"""The `python -m repro.experiments` CLI."""

import json

import pytest

from repro.experiments.__main__ import main


class TestExperimentsCLI:
    def test_runs_selected_fast_experiments(self, capsys):
        assert main(["--only", "table2", "limits"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Eqs. 4-7" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    def test_accuracy_names_require_flag_or_only(self, capsys):
        # selecting fig3 via --only auto-includes the accuracy set; use
        # the tiniest possible check by just validating name resolution
        with pytest.raises(SystemExit):
            main(["--only", "not-an-experiment", "--accuracy"])

    def test_list_prints_names_and_exits(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig13" in out
        assert "fig3" in out  # accuracy experiments listed too
        assert "Table II" not in out  # nothing actually ran

    def test_total_time_summary_printed(self, capsys):
        assert main(["--only", "limits"]) == 0
        out = capsys.readouterr().out
        assert "== total: 1 experiment(s) in" in out

    def test_pipeline_flag_compiles_model(self, capsys):
        assert main(["--pipeline", "lenet5", "--bits", "8", "--report"]) == 0
        out = capsys.readouterr().out
        assert "compiled lenet5" in out
        assert "== Compile:" in out  # --report prints the per-pass table
        assert "fuse" in out and "quantize" in out

    def test_pipeline_unknown_model_errors(self, capsys):
        assert main(["--pipeline", "not-a-model"]) == 2

    def test_bench_update_needs_bench_compare(self, capsys):
        with pytest.raises(SystemExit):
            main(["--only", "limits", "--bench-update"])
        assert "--bench-update" in capsys.readouterr().err

    def test_obs_rejects_bench_compare(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--obs", str(tmp_path / "run"), "--bench-compare", "m.jsonl"])
        assert "--obs" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_obs_rejects_diff_trace(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--obs", str(tmp_path / "run"), "--diff-trace", "a", "b"])
        assert "--obs" in capsys.readouterr().err


class TestTraceFlags:
    """The trace half of an ``--obs`` run directory."""

    @pytest.fixture(autouse=True)
    def _clean_global_recorders(self):
        yield
        from repro.obs import get_tracer

        get_tracer().disable()
        get_tracer().clear()

    def test_pipeline_chrome_trace_is_unified(self, tmp_path, capsys):
        """The acceptance command: compiler-pass, per-layer forward and
        simulator spans all land in one Chrome trace."""
        assert main(["--pipeline", "lenet5", "--bits", "8", "--obs", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        events = doc["traceEvents"]
        assert events
        for ev in events:
            assert {"ph", "ts", "name"} <= set(ev)
            if ev["ph"] == "X":
                assert "dur" in ev
        names = {ev["name"] for ev in events}
        assert any(n.startswith("compile.pass.") for n in names)  # compiler
        assert "compile.pipeline" in names
        assert any(n.startswith("lenet5.") and n.endswith(".forward") for n in names)
        assert "sim.network" in names and "sim.layer" in names  # simulator
        assert f"obs: 6 files -> {tmp_path}" in capsys.readouterr().out

    def test_suite_jsonl_trace(self, tmp_path, capsys):
        assert main(["--only", "limits", "--obs", str(tmp_path)]) == 0
        docs = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        names = {d["name"] for d in docs}
        assert "experiments.suite" in names
        assert "experiment.limits" in names
        assert {"span"} == {d["type"] for d in docs}

    def test_trace_summary_prints_table(self, tmp_path, capsys):
        """The attribution table of the run's own trace closes the run."""
        assert main(["--only", "limits", "--obs", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== Attribution:" in out
        assert "experiment.limits" in out.split("== Attribution:")[1]

    def test_tracer_disabled_after_run(self, tmp_path):
        from repro.obs import get_tracer

        assert main(["--only", "limits", "--obs", str(tmp_path)]) == 0
        assert not get_tracer().enabled


class TestObsRunDirectory:
    @pytest.fixture(autouse=True)
    def _clean_global_recorders(self):
        yield
        from repro.obs import get_tracer

        get_tracer().disable()
        get_tracer().clear()

    def test_attrib_keeps_every_models_spans(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ROOFLINE_CACHE", str(tmp_path / "roofline.json"))
        run = tmp_path / "run"
        assert main(["--attrib", "lenet5", "resnet18", "--obs", str(run)]) == 0
        names = {json.loads(line)["name"] for line in (run / "trace.jsonl").open()}
        assert any(n.startswith("lenet5.") for n in names)
        assert any(n.startswith("resnet18.") for n in names)
        rows = [json.loads(line) for line in (run / "attrib.jsonl").open()]
        assert {r["model"] for r in rows} == {"lenet5", "resnet18"}

    def test_diff_trace_reads_run_directories(self, tmp_path, capsys):
        for name in ("run_a", "run_b"):
            assert main(["--only", "limits", "--obs", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert main(["--diff-trace", str(tmp_path / "run_a"), str(tmp_path / "run_b")]) == 0
        out = capsys.readouterr().out
        assert "== Run diff:" in out and "experiment.limits" in out
