"""Reports pinned by hash across commits.

Each case runs the CLI on a committed input under the default ``dynamic``
strategy and compares the SHA-256 of its CSV report, JSON report,
``--min-p-out`` file and trace rows (without the ``millis`` column) with
``golden/reports.json``. The inputs are files, not ``synth`` calls, so that a
change to the generators cannot move them. A change that alters reports on
purpose regenerates the pinned file with

    PYTHONPATH=src python tests/test_golden.py

and says which cases changed and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sigmine.cli import main

GOLDEN = Path(__file__).parent / "golden"
PINNED = GOLDEN / "reports.json"

# input name -> labels file or None
INPUTS = {"planted": None, "minority": None, "random": None, "labelled": "labelled.labels"}
CORRECTIONS = ("tarone", "bonferroni-full", "efftests")
TAILS = ("two", "left", "right")
CASES = [f"{name}-{corr}-{tail}" for name in INPUTS for corr in CORRECTIONS for tail in TAILS]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(case: str, work: Path) -> dict[str, str | None]:
    """The hashes of everything one case's CLI runs write."""
    name, rest = case.split("-", 1)
    correction, tail = rest.rsplit("-", 1)
    argv = [
        "--input", str(GOLDEN / f"{name}.graphs"), "--tail", tail,
        "--correction", correction, "--strategy", "dynamic", "--seed", "3",
        "--fwer-permutations", "40", "--trace", str(work / "trace.csv"),
    ]
    if INPUTS[name] is not None:
        argv += ["--labels", str(GOLDEN / INPUTS[name])]
    if correction == "efftests":
        argv += ["--permutations", "50", "--min-p-out", str(work / "min_p.txt")]
    out: dict[str, str | None] = {}
    for fmt in ("csv", "json"):
        report = work / f"report.{fmt}"
        assert main([*argv, "--format", fmt, "--output", str(report)]) == 0
        out[fmt] = _sha(report.read_bytes())
    rows = (work / "trace.csv").read_text(encoding="utf-8").splitlines()
    out["trace"] = _sha("\n".join(row.rsplit(",", 1)[0] for row in rows).encode())
    min_p = work / "min_p.txt"
    out["min_p"] = _sha(min_p.read_bytes()) if min_p.exists() else None
    return out


@pytest.mark.parametrize("case", CASES)
def test_report_matches_pinned_hash(case, tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert digests(case, tmp_path) == pinned[case]


if __name__ == "__main__":
    import tempfile

    pinned = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            pinned[case] = digests(case, Path(work))
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} cases to {PINNED}")
