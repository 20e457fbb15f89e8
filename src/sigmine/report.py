"""End-to-end pipeline: parse, search, correct, test, serialize.

``run_pipeline`` builds the report in memory and each ``render_*`` function
gives the text of one file a run writes; ``iter_report`` gives the report's
text one record at a time, so that a writer never holds all of it. Output
files are a pure function of the input database and the run configuration,
seed included, and the search strategy changes none of them, only what the
run costs. Timing numbers therefore stay on the in-memory objects and out of
the serialized report; the trace file is the one place wall-clock durations
are written, and it is explicitly not byte-stable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Literal, Sequence

from .graphs import ParseError, _integral_fields, parse_database
from .mining import MinerConfig, Pattern, _edge_count, _vertex_count
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
    SignificanceRecords,
    Strategy,
    TraceEntry,
    find_root,
    full_family,
    score_patterns,
)
from .stats import TailMode, _check_tail

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
    format: Literal["csv", "json"] = "csv"
    count_singletons: bool = True
    bf_timeout: float | None = None

    def __post_init__(self):
        _integral_fields(self, "max_vertices", "permutations", "fwer_permutations", "seed")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        _check_tail(self.tail)
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
        # NaN compares false with everything, so `not > 0` rejects it too
        if self.bf_timeout is not None and not self.bf_timeout > 0:
            raise ValueError("bf_timeout must be positive or None")
        if self.bf_timeout is not None and self.correction != "bonferroni_full":
            raise ValueError("bf_timeout needs the bonferroni_full correction")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")


@dataclass(frozen=True)
class Report:
    """A run's summary, its records in report order, its root search and min-p samples.

    ``records`` is stored as ``SignificanceRecords``, whatever sequence of
    records it is given as.
    """

    summary: dict
    records: SignificanceRecords
    search: RootSearchResult
    min_p_samples: tuple[float, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "records", SignificanceRecords(self.records))


def _read_text(path: str) -> str:
    """The file's text without a leading UTF-8 byte-order mark.

    Bytes that are not UTF-8 are a parse failure naming the file.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # after a byte-order mark, the error's offsets count from behind it
        data = exc.object
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"byte 0x{data[exc.start]:02x} in {path} is not UTF-8") from None


def run_pipeline(config: RunConfig) -> Report:
    """Execute one full run and assemble the report in memory.

    I/O and parse failures propagate to the caller; everything after a
    successful parse produces a report, possibly with empty records.
    The root search is ``search.find_root``; bonferroni-full's family is
    ``search.full_family``, which stops at its first emission past
    ``bf_timeout``. The report then has status "bf_timeout" and no records.
    """
    labels_text = _read_text(config.labels) if config.labels else None
    # no name holds the graph text, so it is freed once parsed
    db = parse_database(_read_text(config.input), labels_text)

    miner_config = MinerConfig(
        1, max_vertices=config.max_vertices, count_singletons=config.count_singletons
    )
    result = find_root(db, config.alpha, miner_config, config.tail, config.strategy)

    status = result.status
    factor: float | int | None = None
    family: Sequence[Pattern] = result.testable
    min_p_samples = None

    if result.status == "ok":
        if config.correction == "tarone":
            factor = len(result.testable) or None
        elif config.correction == "bonferroni_full":
            family = full_family(db, miner_config, config.bf_timeout)
            if family is None:
                status, family = "bf_timeout", ()
            factor = len(family) or None
        elif result.testable:
            plan = PermutationPlan(config.permutations, config.seed)
            min_p_samples = min_p_distribution(result.testable, plan, db, config.tail)
            factor = effective_num_tests(min_p_samples, config.alpha, len(result.testable))

    records: Sequence[SignificanceRecord] = ()
    if factor is not None:
        records = score_patterns(family, db, config.alpha, config.tail, float(factor))

    fwer = None
    if config.fwer_permutations > 0 and factor is not None and family:
        plan = PermutationPlan(config.fwer_permutations, config.seed + 1)
        fwer = empirical_fwer(family, config.alpha / factor, plan, db, config.tail)

    summary = {
        "status": status,
        "n": db.n,
        "n_prime": db.n_prime,
        "alpha": config.alpha,
        "tail": config.tail,
        "sigma_min": result.min_testable_frequency,
        "sigma_rt": result.root_frequency,
        "num_testable": len(result.testable),
        "correction": config.correction,
        "correction_factor": factor,
        "corrected_threshold": (
            config.alpha / factor if factor is not None else None
        ),
        "empirical_fwer": fwer,
        "seed": config.seed,
    }
    return Report(
        summary=summary,
        records=records,
        search=result,
        min_p_samples=min_p_samples,
    )


# records whose cells are read off the columns at a time
_CELL_BLOCK = 128


def _cells(records: SignificanceRecords) -> Iterator[tuple]:
    """Each record's values in ``CSV_HEADER`` order, read off the columns."""
    store = records.patterns
    for start in range(0, len(records), _CELL_BLOCK):
        block = slice(start, start + _CELL_BLOCK)
        rows = records.order[block]
        codes = [store.codes[row] for row in rows.tolist()]
        frequency, ones = store._frequency(rows), store.x[rows]
        yield from zip(
            records.code_strings[block],
            map(_vertex_count, codes),
            map(_edge_count, codes),
            frequency.tolist(),
            ones.tolist(),
            (frequency - ones).tolist(),
            records.p_values[block].tolist(),
            records.min_p[block].tolist(),
            records.significant[block].tolist(),
        )


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_value(value) -> str:
    """``value`` as ``json.dumps(value, allow_nan=False)`` writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    return encode_basestring_ascii(value)


# one record as json.dumps(..., indent=2) lays it out inside the records list
_JSON_RECORD = "    {{\n" + ",\n".join(f'      "{key}": {{}}' for key in CSV_HEADER) + "\n    }}"


class _LastRow:
    """The target of a ``csv.writer``, which writes each row in one call."""

    def write(self, line: str) -> None:
        self.line = line


def _csv_pieces(report: Report) -> Iterator[str]:
    target = _LastRow()
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    yield target.line
    for cells in _cells(report.records):
        writer.writerow(map(_format_cell, cells))
        yield target.line


def _json_pieces(report: Report) -> Iterator[str]:
    text = json.dumps({"summary": report.summary, "records": []}, indent=2, allow_nan=False)
    if not report.records:
        yield text + "\n"
        return
    # the text ends '"records": []\n}'; records go between the brackets
    yield text[: -len("]\n}")]
    separator = "\n"
    for cells in _cells(report.records):
        yield separator + _JSON_RECORD.format(*map(_json_value, cells))
        separator = ",\n"
    yield "\n  ]\n}\n"


def iter_report(report: Report, fmt: Literal["csv", "json"]) -> Iterator[str]:
    """The report's text in pieces: a head, one piece per record, then any tail.

    The pieces join to ``render_report(report, fmt)``. An unknown format
    raises ValueError here, before any piece is made.
    """
    if fmt == "csv":
        return _csv_pieces(report)
    if fmt == "json":
        return _json_pieces(report)
    raise ValueError(f"unknown format {fmt!r}")


def render_report(report: Report, fmt: Literal["csv", "json"]) -> str:
    """Serialize to text. Byte-identical for identical config and input."""
    return "".join(iter_report(report, fmt))


def render_trace(trace: Sequence[TraceEntry]) -> str:
    lines = ["sigma,budget,status,emitted,millis"]
    for entry in trace:
        budget = "" if entry.budget is None else str(entry.budget)
        lines.append(
            f"{entry.sigma},{budget},{entry.status},{entry.emitted},{entry.millis:.3f}"
        )
    return "\n".join(lines) + "\n"


def render_min_p(samples: Iterable[float]) -> str:
    """One permutation min-p sample per line, full round-trip precision."""
    return "".join(f"{sample:.17g}\n" for sample in samples)
