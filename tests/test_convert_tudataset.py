import subprocess
import sys
from pathlib import Path

import pytest

from sigmine.graphs import GraphDatabase, LabeledGraph, parse_database

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convert_tudataset.py"

# three graphs: a labelled path 1-2-3 with a self-loop on node 3, an edge 4-5,
# and node 6 alone; every edge is listed in both directions, as TUDataset does
FILES = {
    "A": ["1, 2", "2, 1", "2, 3", "3, 2", "3, 3", "4, 5", "5, 4"],
    "edge_labels": ["0", "0", "1", "1", "2", "0", "0"],
    "graph_indicator": ["1", "1", "1", "2", "2", "3"],
    "graph_labels": ["1", "-1", "1"],
    "node_labels": ["0", "1", "2", "0", "0", "1"],
}


def convert(tmp_path, **changes):
    """Write the toy dataset with ``changes`` applied and run the script on it."""
    directory = tmp_path / "TOY"
    directory.mkdir()
    for name, lines in {**FILES, **changes}.items():
        (directory / f"TOY_{name}.txt").write_text("\n".join(lines) + "\n")
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(directory), "--out", str(tmp_path / "out" / "toy")],
        capture_output=True,
        text=True,
    )


def test_converts_a_small_dataset(tmp_path):
    proc = convert(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "self-loop on global node 3 dropped\n"
    out = tmp_path / "out"
    db = parse_database((out / "toy.graphs").read_text(), (out / "toy.labels").read_text())
    expected = GraphDatabase.from_graphs(
        [
            LabeledGraph(0, (0, 1, 2), ((0, 1, 0), (1, 2, 1))),
            LabeledGraph(1, (0, 0), ((0, 1, 0),)),
            LabeledGraph(2, (1,), ()),
        ],
        [1, 0, 1],
    )
    assert db == expected


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"edge_labels": ["0", "1", "1", "1", "2", "0", "0"]}, "conflicting labels"),
        ({"A": FILES["A"][:-1] + ["5, 7"]}, "node missing from the graph indicator"),
        ({"graph_indicator": ["1", "1", "1", "2", "2.5", "3"]}, "malformed graph indicator"),
        ({"graph_indicator": ["0", "1", "1", "2", "2", "3"]}, "1-based graph ids"),
    ],
    ids=["conflicting-edge-labels", "unknown-node", "non-integer-indicator", "zero-indicator"],
)
def test_malformed_input_exits_2(tmp_path, changes, message):
    proc = convert(tmp_path, **changes)
    assert proc.returncode == 2
    assert message in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "toy.graphs").exists()
