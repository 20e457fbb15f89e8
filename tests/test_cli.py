import json
import subprocess
import sys

import pytest

from sigmine.graphs import GraphDatabase, LabeledGraph, serialize_database
from sigmine.report import (
    CSV_HEADER,
    Report,
    RunConfig,
    render_report,
    render_trace,
    run_pipeline,
)
from sigmine.cli import build_parser, main
from sigmine.search import STRATEGIES
from sigmine.synth import planted_database


def edgeless(gid, labels):
    return LabeledGraph(gid, labels, ())


def toy_database():
    graphs = [edgeless(0, (0,))]
    graphs += [edgeless(i, (0, 1)) for i in range(1, 5)]
    graphs += [edgeless(i, (2,)) for i in range(5, 9)]
    graphs.append(edgeless(9, (3,)))
    classes = (1,) * 5 + (0,) * 5
    return GraphDatabase.from_graphs(
        tuple(graphs), classes, vertex_tokens=("A", "B", "C", "D")
    )


@pytest.fixture
def toy_path(tmp_path):
    path = tmp_path / "toy.graphs"
    path.write_text(serialize_database(toy_database()), encoding="utf-8")
    return str(path)


@pytest.fixture
def planted_path(tmp_path):
    db = planted_database(20, seed=5, background_vertices=6, edge_probability=0.3)
    path = tmp_path / "planted.graphs"
    path.write_text(serialize_database(db), encoding="utf-8")
    return str(path)


class TestRunConfigValidation:
    def test_defaults_are_valid(self):
        RunConfig(input="x")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"tail": "up"},
            {"strategy": "warp"},
            {"correction": "none"},
            {"max_vertices": 0},
            {"permutations": 0},
            {"fwer_permutations": -1},
            {"threads": 0},
            {"bf_timeout": 0.0},
            {"format": "xml"},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(input="x", **kwargs)


class TestPipeline:
    def test_tarone_summary_and_records(self, toy_path):
        report = run_pipeline(RunConfig(input=toy_path))
        s = report.summary
        assert s["status"] == "ok"
        assert (s["n"], s["n_prime"]) == (5, 5)
        assert s["sigma_min"] == 4
        assert s["sigma_rt"] == 5
        assert s["num_testable"] == 1
        assert s["correction_factor"] == 1
        assert s["corrected_threshold"] == 0.05
        assert s["m_eff"] is None and s["empirical_fwer"] is None
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["pattern"] == "A"
        assert row["x"] == 5 and row["x_prime"] == 0
        assert row["significant"] is True
        assert report.wall_time_s > 0.0

    def test_strategy_flag_never_changes_csv_bytes(self, toy_path, planted_path):
        for path in (toy_path, planted_path):
            renders = {
                render_report(
                    run_pipeline(RunConfig(input=path, strategy=s)), "csv"
                )
                for s in STRATEGIES
            }
            assert len(renders) == 1

    def test_correction_factor_ordering(self, planted_path):
        tarone = run_pipeline(RunConfig(input=planted_path))
        bf = run_pipeline(RunConfig(input=planted_path, correction="bonferroni_full"))
        eff = run_pipeline(
            RunConfig(input=planted_path, correction="efftests", permutations=300)
        )
        num_testable = tarone.summary["num_testable"]
        assert eff.summary["m_eff"] <= num_testable
        assert num_testable < bf.summary["correction_factor"]
        assert eff.summary["correction_factor"] == eff.summary["m_eff"]

    def test_bonferroni_records_cover_enumeration(self, toy_path):
        report = run_pipeline(RunConfig(input=toy_path, correction="bonferroni_full"))
        # frequencies {A: 5, B: 4, C: 4} clear the sigma = 2 cut, D does not
        assert report.summary["correction_factor"] == 3
        assert [row["pattern"] for row in report.rows] == ["A", "B", "C"]
        flags = {row["pattern"]: row["significant"] for row in report.rows}
        assert flags["A"] is True

    def test_bf_timeout_marks_partial_summary(self, tmp_path):
        db = planted_database(
            40, seed=9, background_vertices=10, edge_probability=0.45
        )
        path = tmp_path / "dense.graphs"
        path.write_text(serialize_database(db), encoding="utf-8")
        report = run_pipeline(
            RunConfig(
                input=str(path), correction="bonferroni_full", bf_timeout=1e-6
            )
        )
        assert report.summary["status"] == "bf_timeout"
        assert report.summary["sigma_rt"] is not None
        assert report.summary["correction_factor"] is None
        assert report.rows == ()

    def test_efftests_reproducible_and_clamped(self, planted_path):
        config = RunConfig(
            input=planted_path,
            correction="efftests",
            permutations=200,
            seed=42,
            fwer_permutations=300,
        )
        first = run_pipeline(config)
        second = run_pipeline(config)
        assert render_report(first, "json") == render_report(second, "json")
        assert 1.0 <= first.summary["m_eff"] <= first.summary["num_testable"]
        assert 0.0 <= first.summary["empirical_fwer"] <= 1.0
        assert first.min_p_samples is not None
        assert len(first.min_p_samples) == 200

    def test_threads_do_not_change_bytes(self, planted_path):
        base = RunConfig(
            input=planted_path, correction="efftests", permutations=120, seed=3
        )
        threaded = RunConfig(
            input=planted_path,
            correction="efftests",
            permutations=120,
            seed=3,
            threads=4,
        )
        assert render_report(run_pipeline(base), "json") == render_report(
            run_pipeline(threaded), "json"
        )

    def test_max_vertices_restricts_bonferroni_family(self, planted_path):
        full = run_pipeline(RunConfig(input=planted_path, correction="bonferroni_full"))
        capped = run_pipeline(
            RunConfig(
                input=planted_path, correction="bonferroni_full", max_vertices=1
            )
        )
        assert capped.summary["correction_factor"] < full.summary["correction_factor"]
        assert all(row["vertices"] == 1 for row in capped.rows)

    def test_singleton_flag_changes_family(self, toy_path):
        off = run_pipeline(RunConfig(input=toy_path, count_singletons=False))
        # the toy database has no edges at all, so nothing remains
        assert off.summary["num_testable"] == 0
        assert off.summary["correction_factor"] is None
        assert off.rows == ()

    def test_labels_file_overrides_classes(self, toy_path, tmp_path):
        labels = tmp_path / "flip.labels"
        labels.write_text(
            "".join(f"{gid} {1 if gid >= 5 else 0}\n" for gid in range(10)),
            encoding="utf-8",
        )
        report = run_pipeline(RunConfig(input=toy_path, labels=str(labels)))
        row = report.rows[0]
        # A still occurs in graphs 0..4, which are now class 0
        assert row["pattern"] == "A"
        assert row["x"] == 0 and row["x_prime"] == 5

    def test_swapped_classes_report_original_frame(self, tmp_path):
        graphs = tuple(edgeless(i, (0,)) for i in range(3)) + (edgeless(3, (1,)),)
        db = GraphDatabase.from_graphs(
            graphs, (1, 1, 1, 0), vertex_tokens=("A", "B")
        )
        path = tmp_path / "swap.graphs"
        path.write_text(serialize_database(db), encoding="utf-8")
        report = run_pipeline(
            RunConfig(input=str(path), alpha=0.9, tail="right")
        )
        assert report.summary["n"] == 3 and report.summary["n_prime"] == 1
        by_pattern = {row["pattern"]: row for row in report.rows}
        assert by_pattern["A"]["x"] == 3 and by_pattern["A"]["x_prime"] == 0
        assert by_pattern["A"]["p_value"] == pytest.approx(0.25, rel=1e-12)

    def test_no_testable_status(self, tmp_path):
        path = tmp_path / "tiny.graphs"
        path.write_text("t # 0 1\nv 0 A\nt # 1 0\nv 0 B\n", encoding="utf-8")
        report = run_pipeline(RunConfig(input=str(path)))
        assert report.summary["status"] == "no_testable"
        assert report.summary["sigma_rt"] is None
        assert report.summary["correction_factor"] is None
        assert report.rows == ()


class TestRendering:
    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "tiny.graphs"
        path.write_text("t # 0 1\nv 0 A\nt # 1 0\nv 0 B\n", encoding="utf-8")
        report = run_pipeline(RunConfig(input=str(path)))
        assert render_report(report, "csv") == ",".join(CSV_HEADER) + "\n"

    def test_csv_float_precision(self, toy_path):
        report = run_pipeline(RunConfig(input=toy_path))
        text = render_report(report, "csv")
        assert "0.0079365079365079361" in text
        assert text.splitlines()[1].endswith("true")

    def test_json_shape(self, toy_path):
        report = run_pipeline(RunConfig(input=toy_path, format="json"))
        payload = json.loads(render_report(report, "json"))
        assert set(payload) == {"summary", "records"}
        assert [r["pattern"] for r in payload["records"]] == ["A"]
        assert payload["summary"]["seed"] == 0
        # timing stays out of the serialized report so reruns are identical
        assert "wall_time" not in json.dumps(payload)

    def test_trace_render(self, toy_path):
        report = run_pipeline(RunConfig(input=toy_path, strategy="incremental"))
        text = render_trace(report.search.trace)
        lines = text.splitlines()
        assert lines[0] == "sigma,budget,status,emitted,millis"
        assert lines[1].startswith("4,1,terminated_early,2,")
        assert lines[2].startswith("5,6,completed,1,")
        # the default strategy records its one unbudgeted run
        report = run_pipeline(RunConfig(input=toy_path))
        lines = render_trace(report.search.trace).splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("4,,completed,2,")

    def test_unknown_format_rejected(self, toy_path):
        report = run_pipeline(RunConfig(input=toy_path))
        with pytest.raises(ValueError):
            render_report(report, "yaml")


class TestCommandLine:
    def test_success_writes_output_and_trace(self, toy_path, tmp_path, capsys):
        out = tmp_path / "report.csv"
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "--input",
                toy_path,
                "--output",
                str(out),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("pattern,")
        assert trace.read_text().startswith("sigma,")

    def test_stdout_default(self, toy_path, capsys):
        assert main(["--input", toy_path]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("pattern,")

    def test_min_p_dump(self, toy_path, tmp_path):
        dump = tmp_path / "minp.txt"
        code = main(
            [
                "--input",
                toy_path,
                "--correction",
                "efftests",
                "--permutations",
                "50",
                "--min-p-out",
                str(dump),
            ]
        )
        assert code == 0
        assert len(dump.read_text().splitlines()) == 50

    def test_usage_errors_exit_one(self, toy_path, capsys):
        assert main(["--strategy", "warp", "--input", toy_path]) == 1
        assert main(["--input", toy_path, "--alpha", "2.0"]) == 1
        assert main([]) == 1

    def test_io_errors_exit_two(self, tmp_path, capsys):
        assert main(["--input", str(tmp_path / "missing.graphs")]) == 2
        bad = tmp_path / "bad.graphs"
        bad.write_text("t # 0 1\nv 0 A\nt # 1 0\nv 5 B\n", encoding="utf-8")
        assert main(["--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err

    def test_bf_timeout_exits_three(self, tmp_path):
        db = planted_database(
            40, seed=9, background_vertices=10, edge_probability=0.45
        )
        path = tmp_path / "dense.graphs"
        path.write_text(serialize_database(db), encoding="utf-8")
        out = tmp_path / "partial.json"
        code = main(
            [
                "--input",
                str(path),
                "--correction",
                "bonferroni-full",
                "--bf-timeout",
                "0.000001",
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["summary"]["status"] == "bf_timeout"

    def test_no_testable_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "tiny.graphs"
        path.write_text("t # 0 1\nv 0 A\nt # 1 0\nv 0 B\n", encoding="utf-8")
        assert main(["--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert "no testable" in captured.err

    def test_fwer_permutations_flag_forms(self):
        parser = build_parser()
        assert parser.parse_args(["--input", "x"]).fwer_permutations == 0
        assert (
            parser.parse_args(["--input", "x", "--fwer-permutations"]).fwer_permutations
            == 10000
        )
        assert (
            parser.parse_args(
                ["--input", "x", "--fwer-permutations", "250"]
            ).fwer_permutations
            == 250
        )

    def test_max_vertices_zero_means_unlimited(self, toy_path):
        parser = build_parser()
        args = parser.parse_args(["--input", toy_path, "--max-vertices", "0"])
        from sigmine.cli import config_from_args

        assert config_from_args(args).max_vertices is None

    def test_negative_max_vertices_is_a_usage_error(self, toy_path, capsys):
        assert main(["--input", toy_path, "--max-vertices", "-1"]) == 1
        assert "max-vertices" in capsys.readouterr().err

    def test_module_entry_point(self, toy_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sigmine", "--input", toy_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("pattern,")
