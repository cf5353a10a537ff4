"""Regression gate: tolerance policies, verdicts, and the CLI exit code."""

import json

import pytest

from repro.experiments.__main__ import main
from repro.obs.metrics import MetricRegistry
from repro.obs.regress import (
    RegressionReport,
    TolerancePolicy,
    compare_metrics,
    gate_jsonl,
    gate_metrics,
    policy_for,
)


def _one(verdicts, key):
    matches = [v for v in verdicts if v.metric == key]
    assert len(matches) == 1
    return matches[0]


class TestTolerancePolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="direction"):
            TolerancePolicy(direction="sideways")
        with pytest.raises(ValueError, match="non-negative"):
            TolerancePolicy(rel_tol=-0.1)

    def test_margin_abs_floor_near_zero(self):
        p = TolerancePolicy(rel_tol=0.05, abs_tol=0.5)
        assert p.margin(0.0) == 0.5       # abs floor dominates
        assert p.margin(100.0) == 5.0     # rel dominates

    def test_policy_resolution(self):
        # prefix override: kernel.* is advisory higher-better
        p = policy_for("kernel.fused_samples_per_sec")
        assert p.direction == "higher" and not p.required
        # exact key beats prefix
        exact = {"kernel.x": TolerancePolicy(direction="lower")}
        assert policy_for("kernel.x", exact).direction == "lower"
        # longest prefix wins
        longer = {
            "fig15.": TolerancePolicy(direction="lower"),
            "fig15.energy_detail": TolerancePolicy(direction="higher"),
        }
        assert policy_for("fig15.energy_detail[m=a]", longer).direction == "higher"
        assert policy_for("fig15.other", longer).direction == "lower"
        # default: higher-better, required
        d = policy_for("fig13.speedup[config=mlcnn]")
        assert d.direction == "higher" and d.required

    def test_directions_are_declared_not_guessed(self):
        # a "bytes" label does not make a speedup lower-is-better
        key = "operating.speedup_vs_bandwidth[bytes_per_cycle=0.5]"
        assert policy_for(key).direction == "higher"
        assert policy_for("table4.measured_adds_per_row[k=3]").direction == "lower"
        assert policy_for("table7.area_mm2[config=mlcnn-fp32]").direction == "lower"
        # an undeclared name gets the default, whatever words it contains
        assert policy_for("fig13.total_cycles").direction == "higher"


AREA = "table7.area_mm2[config=a]"  # declared lower-is-better


class TestCompareMetrics:
    BASE = {"fig13.speedup": 4.0, AREA: 100.0}

    def test_within_tolerance_is_ok(self):
        vs = compare_metrics("accel", self.BASE, {"fig13.speedup": 3.9, AREA: 103.0})
        assert _one(vs, "fig13.speedup").status == "ok"
        assert _one(vs, AREA).status == "ok"
        assert not RegressionReport(vs).failed

    def test_higher_better_directions(self):
        vs = compare_metrics("accel", self.BASE, {"fig13.speedup": 5.0})
        assert _one(vs, "fig13.speedup").status == "improved"
        vs = compare_metrics("accel", self.BASE, {"fig13.speedup": 3.0})
        v = _one(vs, "fig13.speedup")
        assert v.status == "regressed" and v.fails
        assert v.delta_rel == pytest.approx(-0.25)

    def test_energy_efficiency_is_higher_better(self):
        key = "fig15.energy_efficiency[config=mlcnn-fp32]"
        assert policy_for(key).direction == "higher"
        vs = compare_metrics("accel", {key: 3.14}, {key: 2.5})
        v = _one(vs, key)
        assert v.status == "regressed" and v.fails
        vs = compare_metrics("accel", {key: 3.14}, {key: 4.0})
        assert _one(vs, key).status == "improved"

    def test_lower_better_directions(self):
        # area shrinking is an improvement; growing is a regression
        vs = compare_metrics("accel", self.BASE, {AREA: 80.0})
        assert _one(vs, AREA).status == "improved"
        vs = compare_metrics("accel", self.BASE, {AREA: 120.0})
        assert _one(vs, AREA).status == "regressed"

    def test_missing_baseline_passes(self):
        # whole area unseeded
        vs = compare_metrics("core", None, {"table2.rate": 0.5})
        assert _one(vs, "table2.rate").status == "missing_baseline"
        assert not RegressionReport(vs).failed
        # single new metric in a seeded area
        vs = compare_metrics("accel", self.BASE,
                             {"fig13.speedup": 4.0, "fig13.new_metric": 1.0})
        assert _one(vs, "fig13.new_metric").status == "missing_baseline"

    def test_missing_current_fails_only_when_required(self):
        # a required metric the run stopped emitting fails the gate
        vs = compare_metrics("accel", self.BASE, {"fig13.speedup": 4.0})
        v = _one(vs, AREA)
        assert v.status == "missing_current" and v.fails
        assert RegressionReport(vs).failed
        # an advisory one is reported but passes
        vs = compare_metrics("accel", {"kernel.x_per_sec": 1.0}, {"fig13.new": 1.0})
        v = _one(vs, "kernel.x_per_sec")
        assert v.status == "missing_current" and not v.fails
        assert not RegressionReport(vs).failed

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nan_inf_always_fails(self, bad):
        vs = compare_metrics("accel", self.BASE, {"fig13.speedup": bad})
        v = _one(vs, "fig13.speedup")
        assert v.status == "invalid" and v.fails
        # even under an advisory policy: a NaN benchmark is broken, not noisy
        vs = compare_metrics(
            "accel", {"kernel.x": 1.0}, {"kernel.x": float("nan")},
            overrides={"kernel.x": TolerancePolicy(required=False)},
        )
        assert _one(vs, "kernel.x").fails

    def test_nan_baseline_treated_as_missing(self):
        vs = compare_metrics("accel", {"fig13.speedup": float("nan")},
                             {"fig13.speedup": 4.0})
        assert _one(vs, "fig13.speedup").status == "missing_baseline"

    def test_advisory_regression_does_not_fail(self):
        base = {"kernel.fused_samples_per_sec": 1000.0}
        vs = compare_metrics("accel", base, {"kernel.fused_samples_per_sec": 10.0})
        v = _one(vs, "kernel.fused_samples_per_sec")
        assert v.status == "regressed" and not v.fails
        assert not RegressionReport(vs).failed

    def test_only_passing_verdicts_are_labelled_advisory(self):
        base = {"kernel.x": 1000.0, "kernel.y": 1000.0}
        vs = compare_metrics("accel", base, {"kernel.x": float("nan"), "kernel.y": 10.0})
        statuses = {row[2]: row[0] for row in RegressionReport(vs).to_experiment_report().rows}
        assert statuses == {"kernel.x": "invalid", "kernel.y": "regressed (advisory)"}

    def test_report_render(self):
        vs = compare_metrics("accel", self.BASE, {"fig13.speedup": 3.0, AREA: 80.0})
        rep = RegressionReport(vs)
        text = rep.render()
        assert "REGRESSION GATE: FAIL" in text
        assert "regressed" in text and "improved" in text
        assert rep.counts() == {"regressed": 1, "improved": 1}
        assert rep.to_experiment_report().experiment == "Regression gate"

    def test_report_ranks_by_delta_rel_within_status(self):
        """Failures lead; within a status the metric that moved most is first."""
        base = {"a.x": 100.0, "a.y": 100.0, "a.z": 100.0, "a.w": 100.0}
        vs = compare_metrics("core", base, {"a.x": 102.0, "a.y": 50.0, "a.z": 90.0, "a.w": 96.0})
        ranked = [(v.status, v.metric) for v in RegressionReport(vs).ranked()]
        assert ranked == [
            ("regressed", "a.y"), ("regressed", "a.z"), ("ok", "a.w"), ("ok", "a.x"),
        ]


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def _seed(tmp_path, **metrics):
    MetricRegistry(str(tmp_path)).update("accel", metrics, stamp={"git_sha": "seed"})


class TestGateEndToEnd:
    def test_gate_jsonl(self, tmp_path):
        _seed(tmp_path, **{"fig13.speedup[config=a]": 4.0})
        m = tmp_path / "m.jsonl"
        _write_jsonl(m, [{"figure": "fig13", "metric": "speedup", "value": 2.0, "config": "a"}])
        report = gate_jsonl(str(m), root=str(tmp_path))
        assert report.failed

    def test_cli_fails_on_injected_regression(self, tmp_path, capsys):
        """Acceptance criterion: --bench-compare exits non-zero on a
        synthetic regression injected against a seeded baseline."""
        _seed(tmp_path, **{"fig13.speedup[config=a]": 4.0})
        m = tmp_path / "m.jsonl"
        _write_jsonl(m, [{"figure": "fig13", "metric": "speedup", "value": 2.0,
                          "config": "a", "git_sha": "x", "host": "ci"}])
        rc = main(["--bench-compare", str(m), "--bench-root", str(tmp_path)])
        assert rc == 1
        assert "REGRESSION GATE: FAIL" in capsys.readouterr().out

    def test_cli_passes_within_tolerance(self, tmp_path, capsys):
        _seed(tmp_path, **{"fig13.speedup[config=a]": 4.0})
        m = tmp_path / "m.jsonl"
        _write_jsonl(m, [{"figure": "fig13", "metric": "speedup", "value": 3.95,
                          "config": "a"}])
        rc = main(["--bench-compare", str(m), "--bench-root", str(tmp_path)])
        assert rc == 0
        assert "regression gate: pass" in capsys.readouterr().out

    def test_cli_update_refreshes_baseline_then_passes(self, tmp_path, capsys):
        _seed(tmp_path, **{"fig13.speedup[config=a]": 4.0})
        m = tmp_path / "m.jsonl"
        _write_jsonl(m, [{"figure": "fig13", "metric": "speedup", "value": 2.0,
                          "config": "a"}])
        rc = main(["--bench-compare", str(m), "--bench-root", str(tmp_path),
                   "--bench-update"])
        assert rc == 0
        assert MetricRegistry(str(tmp_path)).baseline("accel") == {
            "fig13.speedup[config=a]": 2.0
        }
        # the previous baseline rotated into history
        assert len(MetricRegistry(str(tmp_path)).history("accel")) == 2
        # the formerly-regressing value now gates clean
        assert main(["--bench-compare", str(m), "--bench-root", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_cli_empty_metrics_is_an_error(self, tmp_path, capsys):
        m = tmp_path / "empty.jsonl"
        m.write_text("")
        rc = main(["--bench-compare", str(m), "--bench-root", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    def test_cli_writes_dashboard(self, tmp_path, capsys):
        _seed(tmp_path, **{"fig13.speedup[config=a]": 4.0})
        m = tmp_path / "m.jsonl"
        _write_jsonl(m, [{"figure": "fig13", "metric": "speedup", "value": 4.1,
                          "config": "a"}])
        dash = tmp_path / "dash.md"
        rc = main(["--bench-compare", str(m), "--bench-root", str(tmp_path),
                   "--bench-dashboard", str(dash)])
        assert rc == 0
        text = dash.read_text()
        assert "# Benchmark dashboard" in text
        assert "fig13.speedup[config=a]" in text
        capsys.readouterr()


class TestGateIgnoresHostShape:
    """A verdict depends on the metric values and their policy only.

    Baselines still record the host's ``cpu_count`` and ``machine``;
    the gate reads neither, so a baseline from a differently shaped
    host (or one that predates the fields) gates exactly like a local
    one.
    """

    BASE = {
        "attrib.span_coverage[model=lenet5]": 0.95,
        "telemetry.overhead_pct": 2.0,
        "telemetry.p99_batch_ms[model=lenet5]": 10.0,
        "telemetry.profiler_overhead_pct": 1.0,
    }
    CURRENT = {
        "attrib.span_coverage[model=lenet5]": 0.5,
        "telemetry.overhead_pct": 20.0,
        "telemetry.p99_batch_ms[model=lenet5]": 100.0,
        "telemetry.profiler_overhead_pct": 10.0,
    }

    def _gate(self, tmp_path, stamp):
        tmp_path.mkdir(exist_ok=True)
        registry = MetricRegistry(str(tmp_path))
        registry.update("core", self.BASE, stamp=stamp)
        return gate_metrics({"core": dict(self.CURRENT)}, registry)

    def test_verdicts_do_not_depend_on_baseline_provenance(self, tmp_path):
        import os

        from repro.obs.metrics import provenance

        local = provenance()
        stamps = {
            "local": local,
            "foreign": {**local, "cpu_count": str((os.cpu_count() or 1) + 64)},
            "pre-provenance": {"git_sha": "seed"},
        }
        outcomes = {
            label: [
                (v.metric, v.status, v.fails, v.policy)
                for v in self._gate(tmp_path / label, stamp).verdicts
            ]
            for label, stamp in stamps.items()
        }
        assert outcomes["foreign"] == outcomes["local"]
        assert outcomes["pre-provenance"] == outcomes["local"]

    def test_required_metrics_fail_against_a_foreign_baseline(self, tmp_path):
        report = self._gate(tmp_path, {"git_sha": "seed", "cpu_count": "1024"})
        coverage = _one(report.verdicts, "attrib.span_coverage[model=lenet5]")
        overhead = _one(report.verdicts, "telemetry.overhead_pct")
        assert coverage.status == overhead.status == "regressed"
        assert coverage.fails and overhead.fails
        assert coverage.policy.required and overhead.policy.required
        assert report.failed

    def test_host_speed_metrics_are_advisory_on_every_host(self, tmp_path):
        from repro.obs.metrics import provenance

        for label, stamp in (("local", provenance()), ("foreign", {"cpu_count": "1024"})):
            report = self._gate(tmp_path / label, stamp)
            for key in ("telemetry.p99_batch_ms[model=lenet5]", "telemetry.profiler_overhead_pct"):
                v = _one(report.verdicts, key)
                assert v.status == "regressed" and not v.fails, (label, key)
                assert not v.policy.required, (label, key)

    def test_gate_table_has_one_cell_per_header(self, tmp_path):
        report = self._gate(tmp_path, {"git_sha": "seed", "cpu_count": "1024"})
        table = report.to_experiment_report()
        assert table.headers == [
            "status", "area", "metric", "baseline", "current", "delta", "better",
        ]
        assert len(table.rows) == len(self.CURRENT)
        assert {len(row) for row in table.rows} == {len(table.headers)}
        assert not any("host" in note for note in table.notes)
