#!/usr/bin/env python3
"""One traced in-process sigmine run, for the per-layer metrics.

    python3 bench/traced.py --out traced.json --report report.json [--race] -- <sigmine args>

Wraps the public functions ``run_pipeline`` calls, in the module namespace
it calls them from, with spans, then runs the real pipeline and renders the
report exactly as the CLI does. Afterwards it mines once at the root
frequency with a counting wrapper around ``sigmine.mining.is_canonical`` and,
with ``--race``, runs every root-search strategy and checks that they agree.
Spans and metrics go to ``--out`` as JSON, the rendered report to
``--report``. It must run in a fresh interpreter: the first import of
``sigmine.cli`` is timed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def wrap(self, module, attr: str, name: str, calls: list | None = None):
        """Replace module.attr with a spanned call; returns an undo function."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if calls is not None:
                calls.append((args, result))
            return result

        setattr(module, attr, traced)
        return lambda: setattr(module, attr, original)


class CanonicalCounter:
    """Counts calls to sigmine.mining.is_canonical and its rejections."""

    def __init__(self, mining):
        self.mining = mining
        self.original = mining.is_canonical
        self.checked = 0
        self.rejected = 0

        def counted(code):
            ok = self.original(code)
            self.checked += 1
            self.rejected += not ok
            return ok

        mining.is_canonical = counted

    def take(self) -> tuple[int, float]:
        result = (self.checked, self.rejected / self.checked if self.checked else 0.0)
        self.checked = self.rejected = 0
        return result

    def remove(self):
        self.mining.is_canonical = self.original


def fingerprint(result, db):
    from sigmine.mining import code_string

    codes = tuple(sorted(code_string(p.code, db) for p in result.testable))
    return (result.min_testable_frequency, result.root_frequency, codes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--race", action="store_true", help="run and compare every strategy")
    ap.add_argument("sigmine_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    sigmine_args = args.sigmine_args[1:] if args.sigmine_args[:1] == ["--"] else args.sigmine_args

    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    with tracer.span("cli.import"):
        import sigmine.cli as cli
    from sigmine import mining, report, search
    from sigmine.mining import MinerConfig

    config = cli.config_from_args(cli.build_parser().parse_args(sigmine_args))
    parsed, min_p_calls, fwer_calls = [], [], []
    undo = [
        tracer.wrap(report, "parse_database", "graphs.parse", parsed),
        tracer.wrap(report, "find_root", "search.find_root"),
        tracer.wrap(search, "min_testable_frequency", "stats.min_testable_frequency"),
        tracer.wrap(report, "min_p_distribution", "permute.min_p", min_p_calls),
        tracer.wrap(report, "score_patterns", "search.score"),
        tracer.wrap(report, "empirical_fwer", "permute.fwer", fwer_calls),
    ]
    counter = CanonicalCounter(mining)
    with tracer.span("pipeline"):
        result = report.run_pipeline(config)
    with tracer.span("report.render"):
        text = report.render_report(result, config.format)
    for restore in undo:
        restore()
    total_s = time.perf_counter() - tracer.spans[0][1]
    search_checked, search_noncanonical = counter.take()
    Path(args.report).write_text(text, encoding="utf-8")

    db = parsed[0][1]
    found = result.search
    testable = found.testable
    errors = []

    miner_config = MinerConfig(
        min_frequency=found.root_frequency or 1,
        max_vertices=config.max_vertices,
        count_singletons=config.count_singletons,
    )
    with tracer.span("mining.mine_at_root"):
        outcome = mining.mine(db, miner_config)
    mine_checked, mine_noncanonical = counter.take()
    counter.remove()
    if {p.code for p in outcome.patterns} != {p.code for p in testable}:
        errors.append("mine at sigma_rt does not reproduce the testable set")

    strategies = {}
    if args.race:
        reference = fingerprint(found, db)
        for name in search.STRATEGIES:
            span = f"search.{name}.find_root"
            with tracer.span(span):
                raced = search.find_root(
                    db, config.alpha, replace(miner_config, min_frequency=1), config.tail, name
                )
            strategies[name] = {
                "find_root_s": tracer.seconds(span),
                "fsm_invocations": raced.fsm_invocations,
                "patterns_expanded": raced.patterns_expanded,
            }
            if fingerprint(raced, db) != reference:
                errors.append(f"strategy {name} disagrees with the pipeline's root search")

    margins = {p.frequency for p in testable}
    permute_s = tracer.seconds("permute.min_p") + tracer.seconds("permute.fwer")
    permutations = [(call[0][1], call[0][0]) for call in min_p_calls] + [
        (call[0][2], call[0][0]) for call in fwer_calls
    ]
    pattern_permutations = sum(plan.iterations * len(family) for plan, family in permutations)
    mine_s = tracer.seconds("mining.mine_at_root")
    metrics = {
        "cli.import_s": tracer.seconds("cli.import"),
        "graphs.parse_s": tracer.seconds("graphs.parse"),
        "graphs.input_bytes": Path(config.input).stat().st_size,
        "graphs.graphs": db.size,
        "search.find_root_s": tracer.seconds("search.find_root"),
        "search.aborted_probe_s": sum(
            e.millis for e in found.trace if e.status != "completed") / 1e3,
        "search.final_probe_s": sum(
            e.millis for e in found.trace if e.status == "completed") / 1e3,
        "search.fsm_invocations": found.fsm_invocations,
        "search.patterns_expanded": found.patterns_expanded,
        "search.useful_ratio": (
            len(testable) / found.patterns_expanded if found.patterns_expanded else 0.0),
        "search.sigma_rt": found.root_frequency or 0,
        "search.num_testable": len(testable),
        "search.codes_checked": search_checked,
        "search.noncanonical_ratio": search_noncanonical,
        "mining.mine_at_root_s": mine_s,
        "mining.patterns_per_s": outcome.emitted_count / mine_s if mine_s > 0 else 0.0,
        "mining.occurrences": sum(len(p.occurrences) for p in testable),
        "mining.codes_checked": mine_checked,
        "mining.noncanonical_ratio": mine_noncanonical,
        "search.score_s": tracer.seconds("search.score"),
        "stats.min_testable_frequency_s": tracer.seconds("stats.min_testable_frequency"),
        "stats.distinct_margins": len(margins),
        "stats.table_entries": sum(
            min(f, db.n) - max(0, f - db.n_prime) + 1 for f in margins),
        "permute.min_p_s": tracer.seconds("permute.min_p"),
        "permute.fwer_s": tracer.seconds("permute.fwer"),
        "permute.permutations": sum(plan.iterations for plan, _ in permutations),
        "permute.pattern_permutations": pattern_permutations,
        "permute.pattern_permutations_per_s": (
            pattern_permutations / permute_s if permute_s > 0 else 0.0),
        "report.render_s": tracer.seconds("report.render"),
        "report.bytes": len(text.encode("utf-8")),
        "trace.total_s": total_s,
    }
    Path(args.out).write_text(json.dumps({
        "metrics": metrics,
        "strategies": strategies,
        "errors": errors,
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans
        ],
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
