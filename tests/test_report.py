"""The report written one record at a time.

``iter_report`` and the CLI's ``write_report`` never hold the whole report
text. What they write must still be, byte for byte, what one
``json.dumps(..., indent=2, allow_nan=False)`` or one ``csv.writer`` pass over
the whole report writes.
"""

import csv
import io
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigmine.report
from sigmine import cli
from sigmine.graphs import parse_database
from sigmine.mining import Pattern, code_string
from sigmine.permute import PermutationPlan
from sigmine.report import (
    CSV_HEADER,
    Report,
    RunConfig,
    iter_report,
    render_report,
    run_pipeline,
)
from sigmine.search import RootSearchResult, SignificanceRecord
from test_golden import CASES, GOLDEN, INPUTS

NO_SEARCH = RootSearchResult("no_testable", None, None, (), ())


def row(rec: SignificanceRecord) -> dict:
    p = rec.pattern
    return {
        "pattern": rec.code_string, "vertices": p.vertex_count, "edges": p.edge_count,
        "frequency": p.frequency, "x": p.x, "x_prime": p.x_prime,
        "p_value": rec.p_value, "min_p": rec.min_p, "significant": rec.significant,
    }


def whole_json(report: Report) -> str:
    payload = {"summary": report.summary, "records": [row(rec) for rec in report.records]}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def whole_csv(report: Report) -> str:
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows([cell(v) for v in row(rec).values()] for rec in report.records)
    return buffer.getvalue()


def case_config(case: str) -> RunConfig:
    """The run configuration of one ``test_golden`` case."""
    name, rest = case.split("-", 1)
    correction, tail = rest.rsplit("-", 1)
    labels = INPUTS[name]
    return RunConfig(
        input=str(GOLDEN / f"{name}.graphs"),
        labels=None if labels is None else str(GOLDEN / labels),
        tail=tail,
        correction=correction.replace("-", "_"),
        seed=3,
        fwer_permutations=40,
        permutations=50,
    )


@pytest.mark.parametrize("case", CASES)
def test_golden_reports_render_as_one_dump(case):
    config = case_config(case)
    report = run_pipeline(config)
    db = parse_database(
        Path(config.input).read_text(encoding="utf-8"),
        None if config.labels is None else Path(config.labels).read_text(encoding="utf-8"),
    )
    assert all(rec.code_string == code_string(rec.pattern.code, db) for rec in report.records)
    assert render_report(report, "json") == whole_json(report)
    assert render_report(report, "csv") == whole_csv(report)


def test_pipeline_calls_the_permutation_stages_by_position():
    # bench/traced.py wraps both names in ``sigmine.report`` and reads these
    # positional arguments to count the permutations each stage drew
    config = case_config("planted-efftests-two")
    with (
        mock.patch.object(
            sigmine.report, "min_p_distribution", wraps=sigmine.report.min_p_distribution
        ) as min_p,
        mock.patch.object(
            sigmine.report, "empirical_fwer", wraps=sigmine.report.empirical_fwer
        ) as fwer,
    ):
        report = run_pipeline(config)
    family = report.search.testable
    assert len(family) > 0
    assert min_p.call_count == fwer.call_count == 1
    assert min_p.call_args.kwargs == fwer.call_args.kwargs == {}
    got_family, plan, db, tail = min_p.call_args.args
    assert got_family is family and tail == config.tail
    assert plan == PermutationPlan(config.permutations, config.seed)
    assert db.size == report.summary["n"] + report.summary["n_prime"]
    got_family, threshold, plan, got_db, tail = fwer.call_args.args
    assert got_family is family and got_db is db and tail == config.tail
    assert threshold == config.alpha / report.summary["correction_factor"]
    assert plan == PermutationPlan(config.fwer_permutations, config.seed + 1)


SPECIAL = '"\\\x00\x01\x1f\x7f\n\r\t,é€ 😀'
tokens = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=12)
floats = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
quints = st.tuples(*[st.integers(0, 5)] * 5)
# a pattern's occurrences are as many as x + x_prime, so the counts stay small
records = st.builds(
    lambda code, x, x_prime, p, min_p, significant, token: SignificanceRecord(
        Pattern(tuple(code), range(x + x_prime), x, x_prime), p, min_p, significant, token
    ),
    st.lists(quints, min_size=1, max_size=4),
    st.integers(0, 40),
    st.integers(0, 40),
    floats,
    floats,
    st.booleans(),
    tokens,
)
summaries = st.fixed_dictionaries({
    "status": st.sampled_from(["ok", "no_testable", "bf_timeout"]),
    "n": st.integers(0, 10**6),
    "alpha": floats,
    "correction_factor": st.one_of(st.none(), st.integers(1, 10**9), floats),
    "note": tokens,
})


@settings(max_examples=200, deadline=None)
@given(summaries, st.one_of(st.just([]), st.lists(records, min_size=1, max_size=1),
                            st.lists(records, max_size=6)))
def test_drawn_reports_render_as_one_dump(summary, drawn):
    report = Report(summary, tuple(drawn), NO_SEARCH)
    assert render_report(report, "json") == whole_json(report)
    assert render_report(report, "csv") == whole_csv(report)
    assert "".join(iter_report(report, "json")) == render_report(report, "json")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["p_value", "min_p"])
def test_json_rejects_nan_and_infinity(bad, field):
    values = {"p_value": 0.5, "min_p": 0.25, field: bad}
    rec = SignificanceRecord(Pattern(((0, 1, 0, 0, 0),), (0, 1, 2), 1, 2),
                             values["p_value"], values["min_p"], False, "A")
    report = Report({"status": "ok"}, (rec,), NO_SEARCH)
    with pytest.raises(ValueError):
        whole_json(report)
    with pytest.raises(ValueError):
        render_report(report, "json")


def test_unknown_format_raises_before_any_piece():
    with pytest.raises(ValueError, match="yaml"):
        iter_report(Report({}, (), NO_SEARCH), "yaml")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writer_memory_follows_one_record(fmt, tmp_path):
    # a report of 12,000 records, about 100 to 250 bytes each in the file
    recs = tuple(
        SignificanceRecord(
            Pattern(((0, 1, i % 7, i % 3, i % 5),) * 3, range(i % 40), i % 40 // 2, i % 40 - i % 40 // 2),
            i / 12000, 1.0 / (i + 1), i % 2 == 0, f"{i % 7} {i % 3} {i % 5} {i}",
        )
        for i in range(12000)
    )
    report = Report({"status": "ok", "n": 6000, "alpha": 0.05}, recs, NO_SEARCH)
    path = tmp_path / f"report.{fmt}"
    tracemalloc.start()
    try:
        cli.write_report(report, fmt, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 500_000
    assert peak < size / 4, (peak, size)
    assert path.read_text(encoding="utf-8") == render_report(report, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_and_output_file_get_the_same_bytes(fmt, tmp_path, capsysbinary):
    argv = ["--input", str(GOLDEN / "planted.graphs"), "--correction", "bonferroni-full",
            "--seed", "3", "--format", fmt]
    out = tmp_path / f"report.{fmt}"
    assert cli.main([*argv, "--output", str(out)]) == 0
    assert cli.main(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
