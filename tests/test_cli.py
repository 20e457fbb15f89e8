import json
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

from sigmine.graphs import GraphDatabase, LabeledGraph, parse_database, serialize_database
from sigmine.mining import MinerConfig
from sigmine.report import (
    CSV_HEADER,
    RunConfig,
    render_report,
    render_trace,
    run_pipeline,
)
from sigmine import cli
from sigmine.cli import build_parser, main
from sigmine.search import STRATEGIES, find_root, score_patterns
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
            {"bf_timeout": 0.0, "correction": "bonferroni_full"},
            {"format": "xml"},
            {"seed": -1},
            {"bf_timeout": float("nan"), "correction": "bonferroni_full"},
            # a deadline only the bonferroni-full enumeration reads
            {"bf_timeout": 1.0},
            {"bf_timeout": 1.0, "correction": "efftests"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(input="x", **kwargs)

    @pytest.mark.parametrize("field", ["max_vertices", "permutations", "fwer_permutations", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.int64(3)])
    def test_counts_must_be_integers(self, field, value):
        kwargs = {"correction": "efftests", field: value}
        if isinstance(value, np.integer):
            held = getattr(RunConfig(input="x", **kwargs), field)
            assert held == 3 and type(held) is int
        else:
            with pytest.raises(TypeError):
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
        assert s["empirical_fwer"] is None
        # results only: the strategy and its mining runs go to the trace
        assert tuple(s) == (
            "status", "n", "n_prime", "alpha", "tail", "sigma_min", "sigma_rt",
            "num_testable", "correction", "correction_factor", "corrected_threshold",
            "empirical_fwer", "seed",
        )
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.code_string == "A"
        assert rec.pattern.x == 5 and rec.pattern.x_prime == 0
        assert rec.significant is True

    def test_strategy_flag_never_changes_csv_bytes(self, toy_path, planted_path):
        for path in (toy_path, planted_path):
            for fmt in ("csv", "json"):
                renders = {
                    render_report(run_pipeline(RunConfig(input=path, strategy=s)), fmt)
                    for s in STRATEGIES
                }
                assert len(renders) == 1, fmt

    def test_correction_factor_ordering(self, planted_path):
        tarone = run_pipeline(RunConfig(input=planted_path))
        bf = run_pipeline(RunConfig(input=planted_path, correction="bonferroni_full"))
        eff = run_pipeline(
            RunConfig(input=planted_path, correction="efftests", permutations=300)
        )
        num_testable = tarone.summary["num_testable"]
        assert eff.summary["correction_factor"] <= num_testable
        assert num_testable < bf.summary["correction_factor"]

    def test_bonferroni_records_cover_enumeration(self, toy_path):
        report = run_pipeline(RunConfig(input=toy_path, correction="bonferroni_full"))
        # frequencies {A: 5, B: 4, C: 4} clear the sigma = 2 cut, D does not
        assert report.summary["correction_factor"] == 3
        assert [rec.code_string for rec in report.records] == ["A", "B", "C"]
        flags = {rec.code_string: rec.significant for rec in report.records}
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
        assert len(report.records) == 0

    def test_bf_timeout_fires_promptly(self, tmp_path):
        # the full sigma-2 enumeration of this database takes several
        # seconds; the limit must end it close to 0.2 s, not just at all
        db = planted_database(
            200,
            7,
            motif_size=5,
            background_vertices=16,
            edge_probability=0.12,
            num_vertex_labels=4,
        )
        path = tmp_path / "planted.graphs"
        path.write_text(serialize_database(db), encoding="utf-8")
        config = RunConfig(input=str(path), correction="bonferroni_full", bf_timeout=0.2)
        started = time.monotonic()
        report = run_pipeline(config)
        assert report.summary["status"] == "bf_timeout"
        assert time.monotonic() - started < 3.0

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
        assert 1.0 <= first.summary["correction_factor"] <= first.summary["num_testable"]
        assert 0.0 <= first.summary["empirical_fwer"] <= 1.0
        assert first.min_p_samples is not None
        assert len(first.min_p_samples) == 200

    def test_threads_do_not_change_bytes(self, planted_path, capsys):
        args = ["--input", planted_path, "--correction", "efftests",
                "--permutations", "120", "--seed", "3", "--format", "json"]
        assert main(args) == 0
        base = capsys.readouterr().out
        assert main(args + ["--threads", "4"]) == 0
        assert capsys.readouterr().out == base

    def test_max_vertices_restricts_bonferroni_family(self, planted_path):
        full = run_pipeline(RunConfig(input=planted_path, correction="bonferroni_full"))
        capped = run_pipeline(
            RunConfig(
                input=planted_path, correction="bonferroni_full", max_vertices=1
            )
        )
        assert capped.summary["correction_factor"] < full.summary["correction_factor"]
        assert all(rec.pattern.vertex_count == 1 for rec in capped.records)

    def test_singleton_flag_changes_family(self, toy_path):
        off = run_pipeline(RunConfig(input=toy_path, count_singletons=False))
        # the toy database has no edges at all, so nothing remains
        assert off.summary["num_testable"] == 0
        assert off.summary["correction_factor"] is None
        assert len(off.records) == 0

    def test_labels_file_overrides_classes(self, toy_path, tmp_path):
        labels = tmp_path / "flip.labels"
        labels.write_text(
            "".join(f"{gid} {1 if gid >= 5 else 0}\n" for gid in range(10)),
            encoding="utf-8",
        )
        report = run_pipeline(RunConfig(input=toy_path, labels=str(labels)))
        rec = report.records[0]
        # A still occurs in graphs 0..4, which are now class 0
        assert rec.code_string == "A"
        assert rec.pattern.x == 0 and rec.pattern.x_prime == 5

    def test_class_one_majority_reports_input_classes(self, tmp_path):
        graphs = tuple(edgeless(i, (0,)) for i in range(3)) + (edgeless(3, (1,)),)
        db = GraphDatabase.from_graphs(
            graphs, (1, 1, 1, 0), vertex_tokens=("A", "B")
        )
        path = tmp_path / "majority.graphs"
        path.write_text(serialize_database(db), encoding="utf-8")
        report = run_pipeline(
            RunConfig(input=str(path), alpha=0.9, tail="right")
        )
        assert report.summary["n"] == 3 and report.summary["n_prime"] == 1
        by_pattern = {rec.code_string: rec for rec in report.records}
        assert by_pattern["A"].pattern.x == 3 and by_pattern["A"].pattern.x_prime == 0
        assert by_pattern["A"].p_value == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("tail, mirror", [("right", "left"), ("left", "right"), ("two", "two")])
    def test_flipping_every_class_mirrors_the_report(self, tmp_path, tail, mirror):
        # class 1 is the majority (26 of 40) as given and the minority once
        # every class is flipped; the mirrored tail must then give the same
        # p-values, permutation stream and significance, with the counts exchanged
        db = planted_database(40, seed=5, background_vertices=6, edge_probability=0.3)
        classes = list(db.original_classes)
        for i in [i for i, c in enumerate(classes) if c == 0][:6]:
            classes[i] = 1
        runs = []
        for name, labels, t in (
            ("given", classes, tail),
            ("flipped", [1 - c for c in classes], mirror),
        ):
            path = tmp_path / f"{name}.graphs"
            path.write_text(
                serialize_database(GraphDatabase.from_graphs(db.graphs, labels)),
                encoding="utf-8",
            )
            out, min_p = tmp_path / f"{name}.json", tmp_path / f"{name}.min_p"
            argv = [
                "--input", str(path), "--tail", t, "--format", "json",
                "--correction", "efftests", "--permutations", "200",
                "--fwer-permutations", "200", "--output", str(out), "--min-p-out", str(min_p),
            ]
            assert main(argv) == 0
            runs.append((json.loads(out.read_text(encoding="utf-8")), min_p.read_bytes()))
        (given, given_min_p), (flipped, flipped_min_p) = runs
        assert given["summary"]["n"] == 26
        assert given["records"]
        # the planted motif is enriched in class 1, so only a left tail finds nothing
        assert any(row["significant"] for row in given["records"]) == (tail != "left")
        assert flipped_min_p == given_min_p
        summary = flipped["summary"]
        assert {**summary, "n": summary["n_prime"], "n_prime": summary["n"], "tail": tail} == (
            given["summary"]
        )
        assert [
            {**row, "x": row["x_prime"], "x_prime": row["x"]} for row in flipped["records"]
        ] == given["records"]

    def test_no_testable_status(self, tmp_path):
        path = tmp_path / "tiny.graphs"
        path.write_text("t # 0 1\nv 0 A\nt # 1 0\nv 0 B\n", encoding="utf-8")
        report = run_pipeline(RunConfig(input=str(path)))
        assert report.summary["status"] == "no_testable"
        assert report.summary["sigma_rt"] is None
        assert report.summary["correction_factor"] is None
        assert len(report.records) == 0


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

    def test_min_p_out_needs_efftests(self, toy_path, tmp_path, capsys):
        dump = tmp_path / "minp.txt"
        assert main(["--input", toy_path, "--min-p-out", str(dump)]) == 1
        err = capsys.readouterr().err
        assert "--min-p-out" in err and "efftests" in err
        assert not dump.exists()

    def test_min_p_dump_empty_when_nothing_testable(self, tmp_path, capsys):
        # one database with no testable frequency, one where nothing is
        # frequent enough at sigma_min
        no_testable = "t # 0 1\nv 0 A\nt # 1 0\nv 0 B\n"
        none_frequent = "".join(
            f"t # {i} {int(i < 4)}\nv 0 L{i}\n" for i in range(8)
        )
        for text in (no_testable, none_frequent):
            path = tmp_path / "tiny.graphs"
            path.write_text(text, encoding="utf-8")
            dump = tmp_path / "minp.txt"
            dump.unlink(missing_ok=True)
            argv = ["--input", str(path), "--correction", "efftests"]
            assert main([*argv, "--min-p-out", str(dump)]) == 0
            assert dump.read_text() == ""

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

    def test_unwritable_output_exits_two(self, toy_path, tmp_path, capsys):
        out = tmp_path / "missing" / "report.csv"
        assert main(["--input", toy_path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sigmine: error:") and err.count("\n") == 1
        assert str(out) in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--input", "--labels"])
    def test_non_utf8_input_exits_two(self, toy_path, tmp_path, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"t # 0 1\nv 0 A\xff\n")
        argv = ["--input", str(bad)] if flag == "--input" else ["--input", toy_path, flag, str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("sigmine: error:") and err.count("\n") == 1
        assert str(bad) in err and "line 2" in err and "Traceback" not in err

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        # files saved by Windows editors start with one
        graphs = serialize_database(planted_database(20, seed=5, background_vertices=6))
        labels = "".join(f"{gid} {gid % 2}\n" for gid in range(20))
        reports = []
        for bom in (b"", b"\xef\xbb\xbf"):
            paths = []
            for name, text in (("in.graphs", graphs), ("in.labels", labels)):
                paths.append(tmp_path / f"{len(bom)}{name}")
                paths[-1].write_bytes(bom + text.encode("utf-8"))
            out = tmp_path / f"{len(bom)}.csv"
            argv = ["--input", str(paths[0]), "--labels", str(paths[1]), "--output", str(out)]
            assert main(argv) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] and reports[0].count(b"\n") > 1
        bad = tmp_path / "bad.graphs"
        bad.write_bytes(b"\xef\xbb\xbft # 0 1\nv 0 A\xff\n")
        assert main(["--input", str(bad)]) == 2
        assert "line 2: byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc, code", [(MemoryError, 4), (KeyboardInterrupt, 130)]
    )
    def test_hard_failures_exit_without_traceback(
        self, toy_path, capsys, monkeypatch, exc, code
    ):
        def fail(config):
            raise exc

        monkeypatch.setattr(cli, "run_pipeline", fail)
        assert main(["--input", toy_path]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("sigmine:")

    def test_bf_timeout_exits_three(self, tmp_path, capsys):
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
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("sigmine: ")
        assert "--bf-timeout" in lines[0] and "summary only" in lines[0]

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

    def test_every_run_option_is_a_config_field(self):
        # the parsed flags minus the output paths and the ignored --threads
        # are exactly what the run reads, so none is copied by hand
        options = set(vars(build_parser().parse_args(["--input", "x"])))
        outputs = {"threads", "output", "trace", "min_p_out"}
        assert options - outputs == {f.name for f in fields(RunConfig)}

    def test_negative_max_vertices_is_a_usage_error(self, toy_path, capsys):
        assert main(["--input", toy_path, "--max-vertices", "-1"]) == 1
        assert "max-vertices" in capsys.readouterr().err

    def test_threads_below_one_is_a_usage_error(self, toy_path, capsys):
        assert main(["--input", toy_path, "--threads", "0"]) == 1
        assert "threads" in capsys.readouterr().err

    def test_public_surface_resolves(self):
        # a name left in __all__ after its definition went away would only
        # fail at a caller's `from sigmine import *`
        import sigmine
        from sigmine import report, search

        missing = [name for name in sigmine.__all__ if not hasattr(sigmine, name)]
        assert missing == []
        (strategy,) = [a for a in build_parser()._actions if a.dest == "strategy"]
        assert tuple(strategy.choices) == search.STRATEGIES
        (correction,) = [a for a in build_parser()._actions if a.dest == "correction"]
        assert tuple(c.replace("-", "_") for c in correction.choices) == report.CORRECTIONS
        # removing a strategy or correction must update the type literal too
        assert get_args(search.Strategy) == search.STRATEGIES
        assert get_args(report.Correction) == report.CORRECTIONS

    def test_readme_library_snippet_runs(self, tmp_path, monkeypatch, capsys):
        # the fenced Python block under "Library use", run on the toy database
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        (tmp_path / "graphs.txt").write_text(
            serialize_database(toy_database()), encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        exec(compile(snippet, "README.md", "exec"), {})
        # the toy database has one significant pattern, A at p = 2 / C(10, 5)
        (line,) = capsys.readouterr().out.splitlines()
        assert float(line.split()[-1]) == pytest.approx(2 / 252, rel=1e-12)
        # and on a copy of the planted golden input it prints what the same
        # calls made here find significant
        planted = Path(__file__).resolve().parent / "golden" / "planted.graphs"
        shutil.copy(planted, tmp_path / "graphs.txt")
        exec(compile(snippet, "README.md", "exec"), {})
        db = parse_database(planted.read_text(encoding="utf-8"))
        result = find_root(db, 0.05, MinerConfig(min_frequency=1))
        records = score_patterns(result.testable, db, 0.05,
                                 correction_factor=len(result.testable))
        expected = [f"{rec.code_string} {rec.p_value}" for rec in records if rec.significant]
        assert expected
        assert capsys.readouterr().out.splitlines() == expected

    def test_module_entry_point(self, toy_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sigmine", "--input", toy_path],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("pattern,")

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="needs /proc/self/status"
    )
    def test_cli_runs_one_os_thread(self):
        # The variable is set explicitly: importing sigmine.cli in this process
        # has already pinned it to 1 here. A bare `import sigmine` must load no
        # numpy and leave it alone; the entry point (its `main` call guarded by
        # __name__) must then start numpy without an OpenBLAS worker.
        child = (
            "import json, os, sys\n"
            "import sigmine\n"
            "bare = ['numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS']]\n"
            "import sigmine.__main__\n"
            "with open('/proc/self/status') as fh:\n"
            "    (threads,) = [l.split()[1] for l in fh if l.startswith('Threads:')]\n"
            "print(json.dumps(bare + [threads]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env=src_env(OPENBLAS_NUM_THREADS="4"),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, "4", "1"]


def src_env(**extra):
    """This environment with the checkout's src/ first on PYTHONPATH, plus extra."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return env


@pytest.mark.parametrize(
    "script, args",
    [
        ("fwer_study.py", ["--databases", "1", "--permutations", "50"]),
        ("correction_factors.py", ["--max-vertices", "3", "--permutations", "50"]),
    ],
)
def test_study_script_runs_from_any_directory(tmp_path, script, args):
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    # the script must find the package from its own location
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(path), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
