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
        # keyword heuristic: energy/cycles/bytes/... are lower-better
        assert policy_for("fig15.energy_nj[model=vgg16]").direction == "lower"
        assert policy_for("fig13.total_cycles").direction == "lower"
        # default: higher-better, required
        d = policy_for("fig13.speedup[config=mlcnn]")
        assert d.direction == "higher" and d.required


class TestCompareMetrics:
    BASE = {"fig13.speedup": 4.0, "fig15.energy_nj": 100.0}

    def test_within_tolerance_is_ok(self):
        vs = compare_metrics("accel", self.BASE,
                             {"fig13.speedup": 3.9, "fig15.energy_nj": 103.0})
        assert _one(vs, "fig13.speedup").status == "ok"
        assert _one(vs, "fig15.energy_nj").status == "ok"
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
        # energy dropping is an improvement; rising is a regression
        vs = compare_metrics("accel", self.BASE, {"fig15.energy_nj": 80.0})
        assert _one(vs, "fig15.energy_nj").status == "improved"
        vs = compare_metrics("accel", self.BASE, {"fig15.energy_nj": 120.0})
        assert _one(vs, "fig15.energy_nj").status == "regressed"

    def test_missing_baseline_passes(self):
        # whole area unseeded
        vs = compare_metrics("core", None, {"table2.rate": 0.5})
        assert _one(vs, "table2.rate").status == "missing_baseline"
        assert not RegressionReport(vs).failed
        # single new metric in a seeded area
        vs = compare_metrics("accel", self.BASE,
                             {"fig13.speedup": 4.0, "fig13.new_metric": 1.0})
        assert _one(vs, "fig13.new_metric").status == "missing_baseline"

    def test_missing_current_is_reported_not_fatal(self):
        vs = compare_metrics("accel", self.BASE, {"fig13.speedup": 4.0})
        v = _one(vs, "fig15.energy_nj")
        assert v.status == "missing_current" and not v.fails

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

    def test_report_render(self):
        vs = compare_metrics("accel", self.BASE,
                             {"fig13.speedup": 3.0, "fig15.energy_nj": 80.0})
        rep = RegressionReport(vs)
        text = rep.render()
        assert "REGRESSION GATE: FAIL" in text
        assert "regressed" in text and "improved" in text
        assert rep.counts() == {"regressed": 1, "improved": 1}


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


class TestHostMismatchGating:
    """Host-shape-aware gating: a baseline recorded on a different (or
    unknown) core count must not fail the build on host-sensitive
    metrics, while host-independent required metrics keep gating."""

    FORCE_REQUIRED = {
        "roofline.": TolerancePolicy(direction="higher", rel_tol=0.05, required=True)
    }

    def _gate(self, tmp_path, stamp, current=None):
        from repro.obs.regress import gate_metrics

        registry = MetricRegistry(str(tmp_path))
        registry.update(
            "core",
            {"roofline.attained_fraction": 0.9, "attrib.span_coverage": 0.95},
            stamp=stamp,
        )
        current = current or {
            "core": {"roofline.attained_fraction": 0.1, "attrib.span_coverage": 0.5}
        }
        return gate_metrics(current, registry, self.FORCE_REQUIRED)

    def test_host_mismatch_reasons(self):
        from repro.obs.regress import host_mismatch

        cur = {"cpu_count": "1", "machine": "x86_64"}
        assert host_mismatch({"cpu_count": "1"}, cur) is None
        assert "cpu_count=64" in host_mismatch({"cpu_count": "64"}, cur)
        # a pre-provenance baseline has unknown host shape -> mismatch
        assert "no cpu_count" in host_mismatch({"git_sha": "old"}, cur)
        assert host_mismatch(None, cur) is not None

    def test_mismatch_downgrades_host_sensitive_only(self, tmp_path):
        import os

        foreign = {"git_sha": "seed", "cpu_count": str((os.cpu_count() or 1) + 64)}
        report = self._gate(tmp_path, foreign)
        roofline = _one(report.verdicts, "roofline.attained_fraction")
        coverage = _one(report.verdicts, "attrib.span_coverage")
        # the huge roofline regression is advisory: noted, cannot fail
        assert not roofline.fails
        assert not roofline.policy.required
        assert "host mismatch" in roofline.note
        # span coverage is instrumentation health, not host speed:
        # it keeps its required policy and fails the gate
        assert coverage.fails and coverage.note == ""
        assert report.failed

    def test_missing_cpu_count_counts_as_mismatch(self, tmp_path):
        report = self._gate(tmp_path, {"git_sha": "pre-provenance-seed"})
        roofline = _one(report.verdicts, "roofline.attained_fraction")
        assert not roofline.fails and "host mismatch" in roofline.note

    def test_same_host_keeps_required_policy(self, tmp_path):
        from repro.obs.metrics import provenance

        report = self._gate(tmp_path, provenance())
        roofline = _one(report.verdicts, "roofline.attained_fraction")
        assert roofline.fails and roofline.note == ""
        assert roofline.policy.required
