"""End-to-end pipeline: parse, search, correct, test, serialize.

Output files are a pure function of the input database and the run
configuration, seed included. Timing numbers therefore stay on the in-memory
objects and out of the serialized report; the trace file is the one place
wall-clock durations are written, and it is explicitly not byte-stable.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Sequence

from .graphs import GraphDatabase, parse_database
from .mining import MinerConfig, MiningTimeout, Pattern, code_string, mine
from .permute import (
    PermutationPlan,
    effective_num_tests,
    empirical_fwer,
    min_p_distribution,
)
from .search import (
    STRATEGIES,
    RootSearchResult,
    SignificanceRecord,
    Strategy,
    TraceEntry,
    find_root,
    score_patterns,
)
from .stats import TailMode

Correction = Literal["tarone", "bonferroni_full", "efftests"]

CORRECTIONS = ("tarone", "bonferroni_full", "efftests")

CSV_HEADER = (
    "pattern",
    "vertices",
    "edges",
    "frequency",
    "x",
    "x_prime",
    "p_value",
    "min_p",
    "significant",
)


@dataclass(frozen=True)
class RunConfig:
    input: str
    labels: str | None = None
    alpha: float = 0.05
    tail: TailMode = "two"
    strategy: Strategy = "dynamic"
    max_vertices: int | None = None
    correction: Correction = "tarone"
    permutations: int = 1000
    fwer_permutations: int = 0
    seed: int = 0
    output: str | None = None
    format: Literal["csv", "json"] = "csv"
    trace: str | None = None
    count_singletons: bool = True
    threads: int = 1
    bf_timeout: float | None = None
    min_p_out: str | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.tail not in ("left", "right", "two"):
            raise ValueError(f"unknown tail {self.tail!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.correction not in CORRECTIONS:
            raise ValueError(f"unknown correction {self.correction!r}")
        if self.max_vertices is not None and self.max_vertices < 1:
            raise ValueError("max_vertices must be positive or None")
        if self.permutations < 1:
            raise ValueError("permutations must be >= 1")
        if self.fwer_permutations < 0:
            raise ValueError("fwer_permutations must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.bf_timeout is not None and self.bf_timeout <= 0:
            raise ValueError("bf_timeout must be positive or None")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")


@dataclass(frozen=True)
class Report:
    summary: dict
    records: tuple[SignificanceRecord, ...]
    rows: tuple[dict, ...]
    search: RootSearchResult
    wall_time_s: float
    min_p_samples: tuple[float, ...] | None = field(default=None, repr=False)


def _display_row(rec: SignificanceRecord, db: GraphDatabase) -> dict:
    p = rec.pattern
    x, x_prime = (p.x_prime, p.x) if db.swapped else (p.x, p.x_prime)
    return {
        "pattern": code_string(p.code, db),
        "vertices": p.vertex_count,
        "edges": p.edge_count,
        "frequency": p.frequency,
        "x": x,
        "x_prime": x_prime,
        "p_value": rec.p_value,
        "min_p": rec.min_p,
        "significant": rec.significant,
    }


def _original_class_sizes(db: GraphDatabase) -> tuple[int, int]:
    ones = sum(1 for c in db.original_classes if c == 1)
    return ones, db.size - ones


def run_pipeline(config: RunConfig) -> Report:
    """Execute one full run and assemble the report in memory.

    I/O and parse failures propagate to the caller; everything after a
    successful parse produces a report, possibly with empty records.
    """
    started = time.perf_counter()
    graph_text = Path(config.input).read_text(encoding="utf-8")
    labels_text = (
        Path(config.labels).read_text(encoding="utf-8") if config.labels else None
    )
    db = parse_database(graph_text, labels_text)

    miner_config = MinerConfig(
        min_frequency=1,
        max_vertices=config.max_vertices,
        count_singletons=config.count_singletons,
    )
    result = find_root(db, config.alpha, miner_config, config.tail, config.strategy)

    status = result.status
    factor: float | int | None = None
    family: Sequence[Pattern] = result.testable
    m_eff = None
    min_p_samples = None

    if result.status == "ok":
        if config.correction == "tarone":
            factor = len(result.testable) or None
        elif config.correction == "bonferroni_full":
            deadline = (
                time.monotonic() + config.bf_timeout
                if config.bf_timeout is not None
                else None
            )
            try:
                full = mine(
                    db,
                    MinerConfig(
                        min_frequency=2,
                        max_vertices=config.max_vertices,
                        count_singletons=config.count_singletons,
                    ),
                    deadline=deadline,
                )
                factor = len(full.patterns) or None
                family = full.patterns
            except MiningTimeout:
                status = "bf_timeout"
        else:
            if result.testable:
                plan = PermutationPlan(
                    config.permutations, config.seed, (db.n, db.n_prime)
                )
                min_p_samples = min_p_distribution(
                    result.testable, plan, db, config.tail, config.threads
                )
                m_eff = effective_num_tests(
                    min_p_samples, config.alpha, len(result.testable)
                )
                factor = m_eff

    records: tuple[SignificanceRecord, ...] = ()
    if factor is not None:
        records = score_patterns(family, db, config.alpha, config.tail, float(factor))

    fwer = None
    if config.fwer_permutations > 0 and factor is not None and family:
        plan = PermutationPlan(
            config.fwer_permutations, config.seed + 1, (db.n, db.n_prime)
        )
        fwer = empirical_fwer(
            family, config.alpha / factor, plan, db, config.tail, config.threads
        )

    ones, zeros = _original_class_sizes(db)
    summary = {
        "status": status,
        "n": ones,
        "n_prime": zeros,
        "alpha": config.alpha,
        "tail": config.tail,
        "sigma_min": result.min_testable_frequency,
        "sigma_rt": result.root_frequency,
        "num_testable": len(result.testable),
        "strategy": config.strategy,
        "fsm_invocations": result.fsm_invocations,
        "correction": config.correction,
        "correction_factor": factor,
        "corrected_threshold": (
            config.alpha / factor if factor is not None else None
        ),
        "m_eff": m_eff,
        "empirical_fwer": fwer,
        "seed": config.seed,
    }
    rows = tuple(_display_row(rec, db) for rec in records)
    return Report(
        summary=summary,
        records=records,
        rows=rows,
        search=result,
        wall_time_s=time.perf_counter() - started,
        min_p_samples=min_p_samples,
    )


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_report(report: Report, fmt: Literal["csv", "json"]) -> str:
    """Serialize to text. Byte-identical for identical config and input."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in report.rows:
            writer.writerow(_format_cell(row[key]) for key in CSV_HEADER)
        return buffer.getvalue()
    if fmt == "json":
        payload = {"summary": report.summary, "records": list(report.rows)}
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def write_report(report: Report, path, fmt: Literal["csv", "json"]) -> None:
    Path(path).write_text(render_report(report, fmt), encoding="utf-8")


def render_trace(trace: Sequence[TraceEntry]) -> str:
    lines = ["sigma,budget,status,emitted,millis"]
    for entry in trace:
        budget = "" if entry.budget is None else str(entry.budget)
        lines.append(
            f"{entry.sigma},{budget},{entry.status},{entry.emitted},{entry.millis:.3f}"
        )
    return "\n".join(lines) + "\n"


def write_trace(trace: Sequence[TraceEntry], path) -> None:
    Path(path).write_text(render_trace(trace), encoding="utf-8")
