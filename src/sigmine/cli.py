"""Command-line entry point.

Exit codes: 0 for a produced report (including empty ones), 1 for usage
errors, 2 for I/O or parse failures (input that is not UTF-8 included), 3
when a full-enumeration correction hit its time limit and the report carries
only the partial summary (a line on stderr says so), 4 when the run ran out
of memory, and 130 when it was interrupted. No failure prints a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

# sigmine makes no BLAS call, yet on import numpy's OpenBLAS starts one worker
# thread per extra core, and each spins for a while before it sleeps: CPU time
# the run pays for nothing. OpenBLAS reads this once, when numpy first loads,
# so it is set before the imports below (``import sigmine`` loads no numpy).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .graphs import LabelError, ParseError, ValidityError
from .report import (
    Report,
    RunConfig,
    iter_report,
    render_min_p,
    render_trace,
    run_pipeline,
)
from .search import STRATEGIES


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; usage failures are 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sigmine",
        description=(
            "Find subgraphs whose occurrence is significantly associated with "
            "one of two graph classes, with family-wise error control."
        ),
    )
    parser.add_argument("--input", required=True, help="graph database file")
    parser.add_argument(
        "--labels",
        help="two-column class file overriding any classes in the input",
    )
    parser.add_argument("--alpha", type=float, default=0.05, help="target FWER level")
    parser.add_argument(
        "--tail",
        choices=("two", "left", "right"),
        default="two",
        help="test tail; right means enrichment in class 1",
    )
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="dynamic",
        help="root-frequency search strategy (results are identical)",
    )
    parser.add_argument(
        "--max-vertices",
        type=int,
        default=0,
        help="largest pattern size to mine, 0 means unlimited",
    )
    parser.add_argument(
        "--correction",
        choices=("tarone", "bonferroni-full", "efftests"),
        default="tarone",
        help="multiplicity correction for the significance threshold",
    )
    parser.add_argument(
        "--permutations",
        type=int,
        default=1000,
        help="label shuffles behind the efftests estimate",
    )
    parser.add_argument(
        "--fwer-permutations",
        type=int,
        nargs="?",
        const=10000,
        default=0,
        help="estimate the empirical FWER of the final rule; "
        "optional value sets the shuffle count",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed for all shuffles")
    parser.add_argument("--output", help="report destination, stdout if omitted")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--trace", help="write the per-invocation search trace here")
    parser.add_argument(
        "--count-singletons",
        choices=("on", "off"),
        default="on",
        help="whether single-vertex patterns enter the pattern family",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility (must be >= 1) and ignored; "
        "runs are single-threaded",
    )
    parser.add_argument(
        "--bf-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abort the bonferroni-full enumeration after this long",
    )
    parser.add_argument(
        "--min-p-out",
        help="dump the permutation min-p samples, one per line "
        "(efftests only; empty when nothing is testable)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run's configuration; the output paths stay on ``args``."""
    if args.max_vertices < 0:
        raise ValueError("--max-vertices must be 0 (unlimited) or positive")
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    given.update(
        max_vertices=args.max_vertices or None,
        correction=args.correction.replace("-", "_"),
        count_singletons=args.count_singletons == "on",
    )
    config = RunConfig(**given)
    if args.min_p_out is not None and config.correction != "efftests":
        raise ValueError("--min-p-out needs --correction efftests")
    return config


def write_report(report: Report, fmt: str, path: str | None) -> None:
    """Write the report to ``path``, or to stdout if it is None or empty.

    The pieces of ``iter_report`` are written as they come, so neither the
    whole text nor an encoded copy of it is ever held.
    """
    pieces = iter_report(report, fmt)
    if not path:
        sys.stdout.writelines(pieces)
        return
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(pieces)


def main(argv=None) -> int:
    try:
        return _run(argv)
    except MemoryError:
        print("sigmine: error: out of memory", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("sigmine: interrupted", file=sys.stderr)
        return 130


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"sigmine: error: {exc}", file=sys.stderr)
        return 1

    try:
        report = run_pipeline(config)
    except (OSError, ParseError, LabelError, ValidityError) as exc:
        print(f"sigmine: error: {exc}", file=sys.stderr)
        return 2

    try:
        write_report(report, config.format, args.output)
        if args.trace:
            Path(args.trace).write_text(render_trace(report.search.trace), encoding="utf-8")
        if args.min_p_out:
            samples = report.min_p_samples or ()
            Path(args.min_p_out).write_text(render_min_p(samples), encoding="utf-8")
    except OSError as exc:
        print(f"sigmine: error: {exc}", file=sys.stderr)
        return 2

    status = report.summary["status"]
    if status == "no_testable":
        print("sigmine: no testable subgraphs at this level; empty report written", file=sys.stderr)
    if status == "bf_timeout":
        print("sigmine: --bf-timeout reached; the report holds the summary only", file=sys.stderr)
    return 3 if status == "bf_timeout" else 0
