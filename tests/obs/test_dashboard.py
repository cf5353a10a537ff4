"""Dashboard rendering: sparklines, markdown and HTML output."""

import pytest

from repro.obs.dashboard import (
    build_dashboard,
    render_html,
    render_markdown,
    sparkline,
    write_dashboard,
)
from repro.analysis.report import ExperimentReport
from repro.obs.metrics import MetricRegistry
from repro.obs.regress import gate_metrics


class TestSparkline:
    def test_monotone_series(self):
        s = sparkline([1, 2, 3, 4])
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"

    def test_flat_series_is_mid_blocks(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▄▄▄"

    def test_short_series_empty(self):
        assert sparkline([]) == ""
        assert sparkline([1.0]) == ""


@pytest.fixture
def registry(tmp_path):
    reg = MetricRegistry(str(tmp_path))
    reg.update("core", {"table2.rate[k=3]": 0.4}, stamp={"git_sha": "r1"})
    reg.update("core", {"table2.rate[k=3]": 0.42}, stamp={"git_sha": "r2"})
    return reg


class TestRendering:
    def test_markdown_sections(self, registry):
        current = {"core": {"table2.rate[k=3]": 0.5, "table2.new[k=5]": 1.0}}
        report = gate_metrics(current, registry)
        table = ExperimentReport("Attribution", "per-layer rows", headers=["row", "wall ms"])
        table.add_row("lenet5.features.0.forward", "1.250")
        text = render_markdown(
            build_dashboard(registry, current, gate_report=report, reports=[table])
        )
        assert "# Benchmark dashboard" in text
        assert "## Area `core`" in text
        assert "## Regression gate" in text
        assert "## Attribution" in text
        assert "| lenet5.features.0.forward | 1.250 |" in text
        assert "table2.rate[k=3]" in text
        # trend sparkline over history + current value
        assert any(ch in text for ch in "▁▂▃▄▅▆▇█")
        # the gate section is the gate's own report, sections in order
        assert text.index("## Attribution") < text.index("## Regression gate")
        assert "regression gate: pass" in text

    def test_html_is_escaped_and_complete(self, registry):
        current = {"core": {"table2.rate[k=3]": 0.42}}
        html_text = render_html(build_dashboard(registry, current))
        assert html_text.startswith("<!doctype html>")
        assert html_text.endswith("</body></html>")
        assert "<table>" in html_text
        assert "table2.rate[k=3]" in html_text

    def test_unseeded_area_notes_how_to_seed(self, tmp_path):
        reg = MetricRegistry(str(tmp_path))
        text = render_markdown(build_dashboard(reg, {"accel": {"fig13.speedup": 3.0}}))
        assert "no committed baseline yet" in text
        assert "--bench-update" in text

    def test_write_dashboard_picks_format_by_extension(self, registry, tmp_path):
        md = write_dashboard(str(tmp_path / "d.md"), registry)
        assert "# Benchmark dashboard" in open(md).read()
        html_path = write_dashboard(str(tmp_path / "d.html"), registry)
        assert open(html_path).read().startswith("<!doctype html>")


def _telemetry_snapshots(n=3):
    from repro.obs.telemetry.registry import TelemetryRegistry

    reg = TelemetryRegistry(enabled=True)
    h = reg.histogram("train.batch_latency_ms", buckets=(1.0, 10.0, 100.0))
    g = reg.gauge("train.loss")
    snaps = []
    for i in range(n):
        h.observe(5.0 * (i + 1))
        g.set(1.0 / (i + 1), model="lenet5")
        snaps.append(reg.snapshot(ts=float(i)))
    return snaps


class TestTelemetrySection:
    def test_renders_series_and_trend(self, registry):
        text = render_markdown(build_dashboard(registry, telemetry=_telemetry_snapshots()))
        assert "## Live telemetry" in text
        assert "train.batch_latency_ms" in text
        assert "train.loss[model=lenet5]" in text
        assert "p99" in text
        assert "3 snapshot(s)" in text
        # time-evolution sparkline across the snapshots
        assert any(ch in text for ch in "▁▂▃▄▅▆▇█")

    def test_run_dashboard_needs_no_registry(self):
        html_text = render_html(build_dashboard(telemetry=_telemetry_snapshots()))
        assert "Live telemetry" in html_text and "Area" not in html_text

    def test_accepts_raw_snapshot_dicts(self, registry, tmp_path):
        docs = [s.as_dict() for s in _telemetry_snapshots()]
        path = write_dashboard(
            str(tmp_path / "d.html"), registry, telemetry=docs
        )
        assert "Live telemetry" in open(path).read()


class TestGateAdvisoryVisibility:
    """The host-mismatch downgrade must be visible in the dashboard,
    not only in the CLI gate report."""

    def _report_with_downgrade(self, tmp_path):
        from repro.obs.regress import TolerancePolicy

        reg = MetricRegistry(str(tmp_path))
        reg.update(
            "core",
            {"telemetry.p99_batch_ms[model=lenet5]": 20.0},
            stamp={"git_sha": "r1", "cpu_count": "64"},
        )
        current = {"core": {"telemetry.p99_batch_ms[model=lenet5]": 21.0}}
        # force the metric required so the cpu_count mismatch (64 in the
        # baseline vs this host) exercises the auto-downgrade path
        report = gate_metrics(
            current,
            reg,
            overrides={
                "telemetry.p99_batch_ms": TolerancePolicy(
                    direction="lower", rel_tol=0.9, abs_tol=5.0, required=True
                )
            },
        )
        return reg, current, report

    def test_advisory_status_suffix_and_downgrade_note(self, tmp_path):
        reg, current, report = self._report_with_downgrade(tmp_path)
        (verdict,) = [
            v for v in report.verdicts if v.metric.startswith("telemetry.")
        ]
        assert not verdict.policy.required
        assert (getattr(verdict, "note", "") or "").startswith("host mismatch")
        text = render_markdown(build_dashboard(reg, current, gate_report=report))
        assert "(advisory)" in text
        assert "auto-downgraded to advisory" in text
        assert "host mismatch" in text

    def test_no_downgrade_no_note(self, registry):
        current = {"core": {"table2.rate[k=3]": 0.42}}
        report = gate_metrics(current, registry)
        text = render_markdown(build_dashboard(registry, current, gate_report=report))
        assert "auto-downgraded" not in text
