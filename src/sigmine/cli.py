"""Command-line entry point.

Exit codes: 0 for a produced report (including empty ones), 1 for usage
errors, 2 for I/O or parse failures, 3 when a full-enumeration correction hit
its time limit and the report carries only the partial summary.
"""

from __future__ import annotations

import argparse
import sys

from .graphs import LabelError, ParseError, ValidityError
from .permute import write_min_p_samples
from .report import RunConfig, render_report, run_pipeline, write_report, write_trace
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
        help="worker threads for permutation stages; never changes results",
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
        help="dump the permutation min-p samples, one per line",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.max_vertices < 0:
        raise ValueError("--max-vertices must be 0 (unlimited) or positive")
    return RunConfig(
        input=args.input,
        labels=args.labels,
        alpha=args.alpha,
        tail=args.tail,
        strategy=args.strategy,
        max_vertices=args.max_vertices if args.max_vertices > 0 else None,
        correction=args.correction.replace("-", "_"),
        permutations=args.permutations,
        fwer_permutations=args.fwer_permutations,
        seed=args.seed,
        output=args.output,
        format=args.format,
        trace=args.trace,
        count_singletons=args.count_singletons == "on",
        threads=args.threads,
        bf_timeout=args.bf_timeout,
        min_p_out=args.min_p_out,
    )


def main(argv=None) -> int:
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
        if config.output:
            write_report(report, config.output, config.format)
        else:
            sys.stdout.write(render_report(report, config.format))
        if config.trace:
            write_trace(report.search.trace, config.trace)
        if config.min_p_out and report.min_p_samples is not None:
            write_min_p_samples(config.min_p_out, report.min_p_samples)
    except OSError as exc:
        print(f"sigmine: error: {exc}", file=sys.stderr)
        return 2

    if report.summary["status"] == "no_testable":
        print(
            "sigmine: no testable subgraphs at this level; empty report written",
            file=sys.stderr,
        )
    return 3 if report.summary["status"] == "bf_timeout" else 0
