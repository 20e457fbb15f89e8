#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny size.

    python3 bench/selftest.py

Runs the harness on two tiny workloads, with and without the traced run,
and checks that every metric is printed with its unit and matches
BENCHMARK.json. Then checks that the report checker rejects tampered
reports. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = (
    run.Workload(
        "selftest-planted-perm", "planted", 60,
        ("--correction", "efftests", "--permutations", "200", "--fwer-permutations", "200"),
        race_strategies=True,
    ),
    run.Workload("selftest-null", "null", 300),
)


def printed(lines: list[str], name: str, unit: str) -> bool:
    pattern = re.compile(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)")
    return any(pattern.match(line) for line in lines)


def check_metrics(problems: list[str]) -> Path:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        have = [(m["name"], m["unit"]) for m in declared[key]]
        if have != [(name, unit) for name, unit, _ in table]:
            problems.append(f"BENCHMARK.json {key} does not match bench/run.py")

    for workload in TINY:
        for trace in (False, True):
            lines: list[str] = []
            result = run.run_workload(workload, 1, 0.5, trace, out=lines.append)
            where = f"{workload.name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: run not correct: {lines[-3:]}")
            wanted = run.PER_LAYER if trace else run.END_TO_END
            for name, unit, _ in wanted:
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    problems.append(f"{where}: JSON lacks {name} in {unit}")
            for name, unit in [(n, u) for n, u, _ in wanted] + [
                ("run_s_tail", "s"), ("runs", "count"), ("failed_frac", "share")
            ]:
                if not printed(lines, name, unit):
                    problems.append(f"{where}: {name} not printed with unit {unit}")
            if trace and workload.race_strategies:
                for strategy in ("onepass", "decremental", "incremental", "bisection"):
                    if not printed(lines, f"search.{strategy}.find_root_s", "s"):
                        problems.append(f"{where}: no find_root_s for {strategy}")
    return run.WORK / f"{TINY[0].name}-1" / "reference.json"


def check_tampering(reference: Path, problems: list[str]) -> None:
    text = reference.read_text(encoding="utf-8")
    data = json.loads(text)
    threshold = data["summary"]["corrected_threshold"]
    sig = next(i for i, row in enumerate(data["records"]) if row["significant"])
    motif = data["records"][sig]["pattern"]
    check = dict(tarone=False, motif_code=motif)

    def tampered(edit) -> str:
        copy = json.loads(text)
        edit(copy)
        return json.dumps(copy, indent=2) + "\n"

    if run.check_report(text, **check):
        problems.append("checker rejects an untampered report")
    cases = {
        "flipped significant flag": lambda d: d["records"][-1].update(
            significant=not d["records"][-1]["significant"]),
        "p-value below min_p and out of order": lambda d: d["records"][-1].update(p_value=0.0),
        "frequency != x + x_prime": lambda d: d["records"][0].update(x=d["records"][0]["x"] + 1),
        "rows out of order": lambda d: d["records"].reverse(),
        "planted motif not significant": lambda d: d["records"].pop(sig),
        "status not ok": lambda d: d["summary"].update(status="no_testable"),
    }
    for label, edit in cases.items():
        if not run.check_report(tampered(edit), **check):
            problems.append(f"checker accepts a report with {label}")
    if not run.check_report("{not json", **check):
        problems.append("checker accepts invalid JSON")
    if not run.check_report(
        tampered(lambda d: d["records"].pop()),
        tarone=True, motif_code=None,
    ):
        problems.append("checker accepts a tarone report with a row missing")

    moved = tampered(lambda d: d["records"][0].update(
        p_value=min(d["records"][0]["p_value"] * 0.5, threshold)))
    if not run.compare_traced(text, moved):
        problems.append("traced comparison accepts a changed p-value")
    if run.compare_traced(text, text):
        problems.append("traced comparison rejects an identical report")


def main() -> int:
    if not (run.SRC / "sigmine" / "__init__.py").is_file():
        print("selftest: no sigmine package under src", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    problems: list[str] = []
    reference = check_metrics(problems)
    check_tampering(reference, problems)
    for problem in problems:
        print("FAIL", problem)
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
