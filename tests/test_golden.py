"""Reports pinned by hash across commits.

Each case runs the CLI on a committed input under every strategy and
compares the SHA-256 of its CSV report, JSON report and ``--min-p-out`` file
with ``golden/reports.json``: the strategy changes only the cost of a run,
never a byte it reports. The trace lists each strategy's own mining runs, so
only the default ``dynamic`` strategy's trace rows (without the ``millis``
column) are pinned. The inputs are files, not ``synth`` calls, so that a
change to the generators cannot move them; they cover both class
orientations (``minority`` has class 1 the smaller, ``majority`` is the same
graphs with every class flipped). A change that alters reports on purpose
regenerates the pinned file with

    PYTHONPATH=src python tests/test_golden.py

and says which cases changed and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sigmine.cli import main
from sigmine.search import STRATEGIES

GOLDEN = Path(__file__).parent / "golden"
PINNED = GOLDEN / "reports.json"

# input name -> labels file or None
INPUTS = {
    "planted": None,
    "minority": None,
    "majority": None,
    "random": None,
    "labelled": "labelled.labels",
}
CORRECTIONS = ("tarone", "bonferroni-full", "efftests")
TAILS = ("two", "left", "right")
CASES = [f"{name}-{corr}-{tail}" for name in INPUTS for corr in CORRECTIONS for tail in TAILS]


def outputs(case: str, work: Path, strategy: str = "dynamic") -> dict[str, bytes | None]:
    """Everything one case's CLI runs write under ``strategy``."""
    name, rest = case.split("-", 1)
    correction, tail = rest.rsplit("-", 1)
    argv = [
        "--input", str(GOLDEN / f"{name}.graphs"), "--tail", tail,
        "--correction", correction, "--strategy", strategy, "--seed", "3",
        "--fwer-permutations", "40", "--trace", str(work / "trace.csv"),
    ]
    if INPUTS[name] is not None:
        argv += ["--labels", str(GOLDEN / INPUTS[name])]
    min_p = work / "min_p.txt"
    min_p.unlink(missing_ok=True)
    if correction == "efftests":
        argv += ["--permutations", "50", "--min-p-out", str(min_p)]
    out: dict[str, bytes | None] = {}
    for fmt in ("csv", "json"):
        report = work / f"report.{fmt}"
        assert main([*argv, "--format", fmt, "--output", str(report)]) == 0
        out[fmt] = report.read_bytes()
    rows = (work / "trace.csv").read_text(encoding="utf-8").splitlines()
    out["trace"] = "\n".join(row.rsplit(",", 1)[0] for row in rows).encode()
    out["min_p"] = min_p.read_bytes() if min_p.exists() else None
    return out


def digests(written: dict[str, bytes | None]) -> dict[str, str | None]:
    return {k: None if v is None else hashlib.sha256(v).hexdigest() for k, v in written.items()}


@pytest.mark.parametrize("case", CASES)
def test_report_matches_pinned_hash(case, tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[case]
    for strategy in STRATEGIES:
        got = digests(outputs(case, tmp_path, strategy))
        if strategy != "dynamic":
            del got["trace"]
        assert got == {key: pinned[key] for key in got}, strategy


if __name__ == "__main__":
    import tempfile

    pinned = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            pinned[case] = digests(outputs(case, Path(work)))
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} cases to {PINNED}")
