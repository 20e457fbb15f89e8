#!/usr/bin/env python3
"""End-to-end benchmark of the sigmine CLI on pinned workloads.

One command per run:

    python3 bench/run.py --workload planted-1k-search --seed 3 --seconds 30 --trace 0

It writes the workload generated from ``--seed`` to disk, times set-up
(importing ``sigmine.cli`` and parsing the workload) in child processes of
their own, then times ``python -m sigmine`` end to end as one child process
at a time until ``--seconds`` have passed. Every report is checked. With
``--trace 1`` it also makes one traced in-process run (``bench/traced.py``)
that times the calls into each module in the order ``run_pipeline`` makes
them, and compares its result with the CLI report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it print every metric with its unit for a human reader. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# Every child process is killed once this many seconds have passed since
# the benchmark started, so that a hung run cannot outlive the benchmark.
DEADLINE_S = 170.0
# At least this many set-up samples per run.
SETUP_REPEATS = 7
# The highest percentile reported is the one with at least this many
# samples above it.
TAIL_BEYOND = 10

# The ROADMAP baseline draw of the planted generator. The planted workloads
# keep this draw fixed and let --seed choose a relabelled, reordered copy of
# it (see ``presentation``): across generator seeds the root search is
# bimodal (sigma_rt 17 or 18; 7.2k or 10.9k patterns expanded at N=1000),
# which moves run time by 60% on data alone.
PLANTED_DRAW = 7
PLANTED = dict(
    motif_size=5, background_vertices=16, edge_probability=0.12, num_vertex_labels=4
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "planted" or "null"
    num_graphs: int
    cli_args: tuple[str, ...] = ()
    race_strategies: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted-1k-search", "planted", 1000),
        Workload(
            "planted-200-perm",
            "planted",
            200,
            ("--correction", "efftests", "--permutations", "10000",
             "--fwer-permutations", "10000"),
            race_strategies=True,
        ),
        Workload("null-20k", "null", 20000),
    )
}

# (name, unit, note) in print order.
END_TO_END = (
    ("run_s", "s", "median wall time of one CLI run, spawn to exit"),
    ("cpu_s", "s", "median user+system CPU time of one CLI run"),
    ("peak_rss_mb", "MB", "median peak resident memory of one CLI run"),
    ("setup_s", "s", "median of import sigmine.cli + parse_database"),
    ("graphs_per_s", "1/s", "graphs / run_s"),
)
PER_LAYER = (
    ("cli.import_s", "s", ""),
    ("graphs.parse_s", "s", ""),
    ("graphs.input_bytes", "bytes", ""),
    ("graphs.graphs", "count", ""),
    ("search.find_root_s", "s", ""),
    ("search.aborted_probe_s", "s", "probes that hit their budget"),
    ("search.final_probe_s", "s", "probes that completed"),
    ("search.fsm_invocations", "count", ""),
    ("search.patterns_expanded", "count", ""),
    ("search.useful_ratio", "ratio", "testable / expanded"),
    ("search.sigma_rt", "count", ""),
    ("search.num_testable", "count", ""),
    ("search.codes_checked", "count", "is_canonical calls in the root search"),
    ("search.noncanonical_ratio", "ratio", "rejected / checked in the root search"),
    ("mining.mine_at_root_s", "s", "one mine() at sigma_rt"),
    ("mining.patterns_per_s", "1/s", "emitted / mine_at_root_s"),
    ("mining.occurrences", "count", "sum of support sizes over the testable set"),
    ("mining.codes_checked", "count", "is_canonical calls in mine_at_root"),
    ("mining.noncanonical_ratio", "ratio", "rejected / checked in mine_at_root"),
    ("search.score_s", "s", ""),
    ("stats.min_testable_frequency_s", "s", ""),
    ("stats.distinct_margins", "count", "distinct testable frequencies"),
    ("stats.table_entries", "count", "computed from the support sizes, not counted"),
    ("permute.min_p_s", "s", ""),
    ("permute.fwer_s", "s", ""),
    ("permute.permutations", "count", ""),
    ("permute.pattern_permutations", "count", "patterns x permutations"),
    ("permute.pattern_permutations_per_s", "1/s", ""),
    ("report.render_s", "s", ""),
    ("report.bytes", "bytes", ""),
    ("trace.total_s", "s", "traced import + pipeline + render"),
    ("trace.overhead_s", "s", "trace.total_s - untraced run_s"),
)


# ---------------------------------------------------------------- workloads


def presentation(db, seed: int):
    """A copy of ``db`` relabelled and reordered by ``seed``.

    Graph order, graph ids, vertex numbering, edge order and orientation and
    the names of vertex and edge labels are all drawn from the seed. The copy
    is isomorphic graph by graph with the same classes, so the root
    frequency, the testable count and the p-values do not change, while the
    file bytes and the label order the miner sees do. Returns the copy and
    the vertex and edge label maps.
    """
    from sigmine.graphs import GraphDatabase, LabeledGraph

    rng = random.Random(seed)
    order = list(range(db.size))
    rng.shuffle(order)
    vmap = list(range(len(db.vertex_tokens)))
    rng.shuffle(vmap)
    emap = list(range(len(db.edge_tokens)))
    rng.shuffle(emap)
    graphs, classes = [], []
    for new_id, old in enumerate(order):
        g = db.graphs[old]
        ids = list(range(g.vertex_count))
        rng.shuffle(ids)
        labels = [0] * g.vertex_count
        for v, lbl in enumerate(g.vertex_labels):
            labels[ids[v]] = vmap[lbl]
        edges = [
            (ids[u], ids[v], emap[lbl]) if rng.random() < 0.5 else (ids[v], ids[u], emap[lbl])
            for u, v, lbl in g.edges
        ]
        rng.shuffle(edges)
        graphs.append(LabeledGraph(new_id, tuple(labels), tuple(edges)))
        classes.append(db.original_classes[old])
    return GraphDatabase.from_graphs(graphs, classes), vmap, emap


def generate(workload: Workload, seed: int):
    """(database, planted motif or None), a pure function of the seed."""
    from sigmine.synth import motif_graph, planted_database, random_database
    from sigmine.graphs import LabeledGraph

    if workload.kind == "null":
        return random_database(workload.num_graphs, seed), None
    base = planted_database(workload.num_graphs, PLANTED_DRAW, **PLANTED)
    db, vmap, emap = presentation(base, seed)
    motif = motif_graph(PLANTED["motif_size"], PLANTED["num_vertex_labels"])
    motif = LabeledGraph(
        0,
        tuple(vmap[lbl] for lbl in motif.vertex_labels),
        tuple((u, v, emap[lbl]) for u, v, lbl in motif.edges),
    )
    return db, motif


def motif_code_string(motif, parsed) -> str:
    """The motif's canonical code as the report prints it for ``parsed``."""
    from sigmine.graphs import LabeledGraph
    from sigmine.mining import code_string, minimum_code

    vertex = {tok: i for i, tok in enumerate(parsed.vertex_tokens)}
    edge = {tok: i for i, tok in enumerate(parsed.edge_tokens)}
    internal = LabeledGraph(
        0,
        tuple(vertex[str(lbl)] for lbl in motif.vertex_labels),
        tuple((u, v, edge[str(lbl)]) for u, v, lbl in motif.edges),
    )
    return code_string(minimum_code(internal), parsed)


# ------------------------------------------------------------------ checks


def check_report(text: str, *, tarone: bool, motif_code: str | None) -> list[str]:
    """Problems found in one JSON report; empty when it is correct."""
    try:
        payload = json.loads(text)
        summary, rows = payload["summary"], payload["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not valid JSON with summary and records: {exc}"]
    problems = []
    if summary.get("status") != "ok":
        problems.append(f"status is {summary.get('status')!r}, not 'ok'")
    threshold = summary.get("corrected_threshold")
    previous = None
    for i, row in enumerate(rows):
        p = row["p_value"]
        if p < row["min_p"]:
            problems.append(f"row {i}: p_value {p!r} below min_p {row['min_p']!r}")
        if threshold is None or row["significant"] != (p < threshold):
            problems.append(f"row {i}: significant={row['significant']} disagrees with threshold")
        if row["frequency"] != row["x"] + row["x_prime"]:
            problems.append(f"row {i}: frequency != x + x_prime")
        if previous is not None and p < previous:
            problems.append(f"row {i}: rows not sorted by p-value")
        previous = p
    if tarone and len(rows) != summary.get("num_testable"):
        problems.append(f"{len(rows)} rows but num_testable={summary.get('num_testable')}")
    if motif_code is not None and not any(
        row["pattern"] == motif_code and row["significant"] for row in rows
    ):
        problems.append(f"planted motif {motif_code} is not significant")
    return problems


def compare_traced(cli_text: str, traced_text: str) -> list[str]:
    """The in-process run must reproduce the CLI report exactly."""
    cli, traced = json.loads(cli_text), json.loads(traced_text)
    problems = []
    if cli["summary"]["sigma_rt"] != traced["summary"]["sigma_rt"]:
        problems.append("traced sigma_rt differs from the CLI report")
    cli_p = {r["pattern"]: r["p_value"] for r in cli["records"]}
    traced_p = {r["pattern"]: r["p_value"] for r in traced["records"]}
    if set(cli_p) != set(traced_p):
        problems.append("traced testable code set differs from the CLI report")
    elif cli_p != traced_p:
        problems.append("traced p-values differ from the CLI report")
    if not problems and cli_text != traced_text:
        problems.append("traced report bytes differ from the CLI report")
    return problems


# ----------------------------------------------------------------- children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


def run_child(argv: list[str], stdout_path: Path, deadline: float) -> Sample:
    """Run one child to completion and measure it from spawn to exit."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
    )


def stderr_tail(stdout_path: Path) -> str:
    lines = stdout_path.with_suffix(".err").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import sigmine.cli
from sigmine.graphs import parse_database
with open(sys.argv[1], encoding="utf-8") as fh:
    parse_database(fh.read())
print(repr(time.perf_counter() - t0))
"""


def setup_once(input_path: Path, work: Path, deadline: float) -> float:
    out = work / "setup.out"
    sample = run_child([sys.executable, "-c", SETUP_CODE, str(input_path)], out, deadline)
    if sample.returncode != 0:
        raise RuntimeError("set-up child failed: " + out.with_suffix(".err").read_text())
    return float(out.read_text())


# ------------------------------------------------------------------ metrics


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND above it."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return None
    return ordered[k - 1], 100.0 * k / len(ordered)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fmt_line(name: str, value, unit: str, note: str = "") -> str:
    shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
    return f"{name:<38} {shown:>14} {unit:<6} {note}".rstrip()


# -------------------------------------------------------------------- runner


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, out=print) -> dict:
    """Run one benchmark and return the result object printed last."""
    from sigmine.graphs import parse_database, serialize_database
    import numpy

    started = time.monotonic()
    deadline = started + DEADLINE_S
    work = WORK / f"{workload.name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)

    db, motif = generate(workload, seed)
    input_path = work / "input.txt"
    input_path.write_text(serialize_database(db), encoding="utf-8")
    parsed = parse_database(input_path.read_text(encoding="utf-8"))
    motif_code = motif_code_string(motif, parsed) if motif is not None else None
    cli_args = ["--input", str(input_path), "--format", "json", "--threads", "1",
                "--seed", str(seed), *workload.cli_args]
    tarone = "--correction" not in workload.cli_args

    out(f"workload {workload.name}  seed {seed}  graphs {db.size}  "
        f"cli: sigmine {' '.join(cli_args[2:])}")
    out(f"python {platform.python_version()}  numpy {numpy.__version__}  "
        f"nproc {len(os.sched_getaffinity(0))}  commit {git_commit()}")

    # the first import compiles bytecode, a cost paid once per install
    setup_once(input_path, work, deadline)
    # set-up is sampled between the timed runs too, so that its median
    # spans the same stretch of machine time as theirs
    setups: list[float] = []

    samples: list[Sample] = []
    failures: list[str] = []
    attempted = 0
    reference: bytes | None = None
    report_path = work / "report.json"
    measure_start = time.perf_counter()
    while time.perf_counter() - measure_start < seconds and time.monotonic() < deadline:
        setups.append(setup_once(input_path, work, deadline))
        attempted += 1
        sample = run_child([sys.executable, "-m", "sigmine", *cli_args], report_path, deadline)
        data = report_path.read_bytes()
        problems = []
        if sample.returncode != 0:
            problems.append(f"exit code {sample.returncode}: {stderr_tail(report_path)}")
        else:
            problems = check_report(data.decode("utf-8"), tarone=tarone, motif_code=motif_code)
            if reference is not None and data != reference:
                problems.append("report bytes differ from the first run")
        if not problems and reference is None:
            reference = data
            (work / "reference.json").write_bytes(data)
        if problems:
            failures.append(f"run {attempted}: " + "; ".join(problems[:5]))
        else:
            samples.append(sample)

    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(input_path, work, deadline))

    metrics: dict[str, float] = {}
    if samples:
        run_s = statistics.median(s.wall_s for s in samples)
        metrics = {
            "run_s": run_s,
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            "setup_s": statistics.median(setups),
            "graphs_per_s": db.size / run_s,
        }
    out("end-to-end")
    for name, unit, note in END_TO_END:
        out(fmt_line(name, metrics.get(name), unit, note))
    walls = [s.wall_s for s in samples]
    high = tail(walls)
    out(fmt_line("run_s_tail", None if high is None else high[0], "s",
                 f"p{high[1]:.0f} of {len(walls)} runs" if high
                 else f"needs {TAIL_BEYOND + 1} runs, have {len(walls)}"))
    out(fmt_line("runs", len(walls), "count",
                 "passed every check; wall s: " + " ".join(f"{w:.3f}" for w in walls)))
    out(fmt_line("setups", len(setups), "count",
                 "set-up s: " + " ".join(f"{t:.3f}" for t in setups)))
    failed = attempted - len(samples)

    layer: dict[str, float] = {}
    if trace and reference is not None and time.monotonic() < deadline:
        attempted += 1
        traced_out = work / "traced.json"
        traced_report = work / "traced-report.json"
        argv = [sys.executable, str(BENCH / "traced.py"), "--out", str(traced_out),
                "--report", str(traced_report)]
        if workload.race_strategies:
            argv.append("--race")
        sample = run_child([*argv, "--", *cli_args], work / "traced.log", deadline)
        problems = []
        if sample.returncode != 0:
            problems.append(
                f"traced run exit code {sample.returncode}: {stderr_tail(work / 'traced.log')}")
        else:
            traced = json.loads(traced_out.read_text())
            problems = traced["errors"] + compare_traced(
                reference.decode("utf-8"), traced_report.read_text(encoding="utf-8")
            )
            layer = traced["metrics"]
            layer["trace.overhead_s"] = layer["trace.total_s"] - metrics["run_s"]
            traced["environment"] = {
                "python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            }
            traced_out.write_text(json.dumps(traced, indent=1))
        if problems:
            failed += 1
            failures.append("traced run: " + "; ".join(problems[:5]))
        out(f"per-layer (traced in-process run; spans in {traced_out.relative_to(ROOT)})")
        for name, unit, note in PER_LAYER:
            out(fmt_line(name, layer.get(name), unit, note))
        for name, stats in (traced["strategies"] if layer else {}).items():
            for key, unit in (("find_root_s", "s"), ("fsm_invocations", "count"),
                              ("patterns_expanded", "count")):
                out(fmt_line(f"search.{name}.{key}", stats[key], unit))

    out(fmt_line("failed_frac", failed / attempted if attempted else None, "share",
                 f"{failed} of {attempted} runs failed a check"))
    for failure in failures:
        out("FAILED " + failure)

    wanted = PER_LAYER if trace else END_TO_END
    correct = not failures and all(name in (layer if trace else metrics) for name, _, _ in wanted)
    chosen = layer if trace else metrics
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": chosen[name], "unit": unit}
            for name, unit, _ in wanted
            if name in chosen
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sigmine" / "__init__.py").is_file():
        print(f"bench: no sigmine package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
