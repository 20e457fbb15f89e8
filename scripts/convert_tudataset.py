#!/usr/bin/env python3
"""Convert a TUDataset-style benchmark directory to the transaction format.

Expects the usual file layout inside one directory, where NAME is the
dataset's own prefix (MUTAG_A.txt and so on):

    NAME_A.txt                edge list, 1-based global node ids, one
                              "u, v" pair per line, both directions present
    NAME_graph_indicator.txt  line i holds the 1-based graph id of node i
    NAME_graph_labels.txt     line g holds the raw class label of graph g
    NAME_node_labels.txt      optional, line i holds node i's label
    NAME_edge_labels.txt      optional, parallel to NAME_A.txt

Writes <out>.graphs and <out>.labels. Graphs whose raw label equals
--positive-label become class 1, every other label becomes class 0. MUTAG
ships with labels 1 and -1, so the default mapping sends 1 to class 1:

    python3 scripts/convert_tudataset.py /path/to/MUTAG --out data/mutag
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path


def read_lines(path: Path) -> list[str]:
    return [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]


def find_prefix(directory: Path) -> str:
    hits = sorted(directory.glob("*_A.txt"))
    if not hits:
        raise FileNotFoundError(f"no *_A.txt file under {directory}")
    if len(hits) > 1:
        raise FileNotFoundError(f"ambiguous dataset, several *_A.txt under {directory}")
    return hits[0].name[: -len("_A.txt")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", type=Path, help="dataset directory")
    ap.add_argument("--out", required=True,
                    help="output path prefix, e.g. data/mutag")
    ap.add_argument("--positive-label", default="1",
                    help="raw graph label mapped to class 1 (default: 1)")
    args = ap.parse_args()

    try:
        prefix = find_prefix(args.directory)
        base = args.directory / prefix

        indicator_rows = read_lines(Path(f"{base}_graph_indicator.txt"))
        raw_classes = read_lines(Path(f"{base}_graph_labels.txt"))
        edge_rows = read_lines(Path(f"{base}_A.txt"))

        node_label_path = Path(f"{base}_node_labels.txt")
        node_labels = (
            [t.split(",")[0].strip() for t in read_lines(node_label_path)]
            if node_label_path.exists()
            else ["0"] * len(indicator_rows)
        )
        edge_label_path = Path(f"{base}_edge_labels.txt")
        edge_labels = (
            [t.split(",")[0].strip() for t in read_lines(edge_label_path)]
            if edge_label_path.exists()
            else ["0"] * len(edge_rows)
        )
    except OSError as exc:
        print(f"cannot read dataset: {exc}", file=sys.stderr)
        return 2

    try:
        indicator = [int(t) for t in indicator_rows]
    except ValueError as exc:
        print(f"malformed graph indicator: {exc}", file=sys.stderr)
        return 2
    if not indicator or min(indicator) < 1:
        print("graph indicator must list 1-based graph ids", file=sys.stderr)
        return 2

    if len(node_labels) != len(indicator):
        print("node label count does not match graph indicator", file=sys.stderr)
        return 2
    if len(edge_labels) != len(edge_rows):
        print("edge label count does not match edge list", file=sys.stderr)
        return 2

    num_graphs = max(indicator)
    if len(raw_classes) != num_graphs:
        print("graph label count does not match graph indicator", file=sys.stderr)
        return 2

    # global node id -> (graph, local id), locals dense in global order
    members: dict[int, list[int]] = defaultdict(list)
    for node, graph in enumerate(indicator, start=1):
        members[graph].append(node)
    local: dict[int, tuple[int, int]] = {}
    for graph, nodes in members.items():
        for idx, node in enumerate(nodes):
            local[node] = (graph, idx)

    # dedupe both-direction edges, demand label agreement
    edges: dict[int, dict[tuple[int, int], str]] = defaultdict(dict)
    for row, lbl in zip(edge_rows, edge_labels):
        try:
            # two integers, or ValueError
            gu, gv = map(int, row.replace(",", " ").split())
        except ValueError:
            print(f"malformed edge row: {row!r}", file=sys.stderr)
            return 2
        if gu not in local or gv not in local:
            print(f"edge {gu}-{gv} names a node missing from the graph indicator",
                  file=sys.stderr)
            return 2
        graph_u, u = local[gu]
        graph_v, v = local[gv]
        if graph_u != graph_v:
            print(f"edge {gu}-{gv} crosses graphs {graph_u} and {graph_v}",
                  file=sys.stderr)
            return 2
        if u == v:
            print(f"self-loop on global node {gu} dropped", file=sys.stderr)
            continue
        key = (u, v) if u < v else (v, u)
        known = edges[graph_u].get(key)
        if known is not None and known != lbl:
            print(f"edge {key} in graph {graph_u} has conflicting labels "
                  f"{known!r} and {lbl!r}", file=sys.stderr)
            return 2
        edges[graph_u][key] = lbl

    out_prefix = Path(args.out)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)

    graph_lines: list[str] = []
    label_lines: list[str] = []
    positives = 0
    for graph in range(1, num_graphs + 1):
        gid = graph - 1
        cls = 1 if raw_classes[graph - 1] == args.positive_label else 0
        positives += cls
        graph_lines.append(f"t # {gid} {cls}")
        label_lines.append(f"{gid} {cls}")
        for idx, node in enumerate(members[graph]):
            graph_lines.append(f"v {idx} {node_labels[node - 1]}")
        for (u, v), lbl in sorted(edges[graph].items()):
            graph_lines.append(f"e {u} {v} {lbl}")

    Path(f"{out_prefix}.graphs").write_text("\n".join(graph_lines) + "\n")
    Path(f"{out_prefix}.labels").write_text("\n".join(label_lines) + "\n")
    print(
        f"wrote {num_graphs} graphs ({positives} in class 1, "
        f"{num_graphs - positives} in class 0) to {out_prefix}.graphs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
