"""Dashboard rendering: sparklines, markdown and HTML output."""

import pytest

from repro.obs.dashboard import (
    build_dashboard,
    render_html,
    render_markdown,
    sparkline,
    training_report,
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

    def test_non_finite_points_are_skipped(self):
        assert sparkline([1, 2, float("inf")]) == "▁█"
        assert sparkline([1.0, float("nan"), 3.0]) == "▁█"
        assert sparkline([float("nan"), 1.0]) == ""


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

    def test_invalid_metric_renders_as_a_failure(self, tmp_path):
        reg = MetricRegistry(str(tmp_path))
        reg.update("accel", {"kernel.fused_samples_per_sec": 2000.0}, stamp={"git_sha": "r1"})
        current = {"accel": {"kernel.fused_samples_per_sec": float("nan")}}
        report = gate_metrics(current, reg)
        text = render_markdown(build_dashboard(reg, current, gate_report=report))
        assert "| kernel.fused_samples_per_sec | 2000 | nan | +nan% | · |" in text
        assert "| invalid | accel | kernel.fused_samples_per_sec |" in text
        assert "REGRESSION GATE: FAIL" in text

    def test_write_dashboard_picks_format_by_extension(self, registry, tmp_path):
        md = write_dashboard(str(tmp_path / "d.md"), registry)
        assert "# Benchmark dashboard" in open(md).read()
        html_path = write_dashboard(str(tmp_path / "d.html"), registry)
        assert open(html_path).read().startswith("<!doctype html>")


def _epoch_rows():
    """One traced epoch of three batches: 3, 3 and 4 ms wall time."""
    def span(name, ts, dur, id, parent=None, **attrs):
        return {"type": "span", "name": name, "ts_us": ts, "dur_us": dur,
                "tid": 1, "id": id, "parent": parent, "cat": "train", "attrs": attrs}

    stats = {"epoch": 0, "train_loss": 1.5, "val_loss": 1.25, "val_top1": 0.5,
             "val_top5": 1.0, "samples_per_sec": 320.0}
    return [
        span("train.batch", 1000.0, 2000.0, id=1, parent=0, samples=16),
        span("train.batch", 4000.0, 2000.0, id=2, parent=0, samples=16),
        span("train.batch", 7000.0, 3000.0, id=3, parent=0, samples=16),
        span("train.epoch", 0.0, 12000.0, id=0, **stats),
    ]


class TestTrainingSection:
    def test_one_row_per_epoch(self):
        rep = training_report(_epoch_rows())
        assert rep.experiment == "Training"
        assert rep.rows == [[0, "1.5000", "1.2500", "0.500", "1.000", "320.0", 3, "3.00", "3.98"]]

    def test_no_fit_no_rows(self):
        assert training_report([]).rows == []


class TestGateAdvisoryVisibility:
    """The dashboard's gate section says which verdicts cannot fail."""

    def test_advisory_status_suffix(self, tmp_path):
        reg = MetricRegistry(str(tmp_path))
        reg.update("core", {"telemetry.p99_batch_ms[model=lenet5]": 20.0},
                   stamp={"git_sha": "r1"})
        current = {"core": {"telemetry.p99_batch_ms[model=lenet5]": 80.0}}
        report = gate_metrics(current, reg)
        text = render_markdown(build_dashboard(reg, current, gate_report=report))
        assert "| regressed (advisory) | core | telemetry.p99_batch_ms[model=lenet5] |" in text
        assert "regression gate: pass" in text

    def test_foreign_host_baseline_gates_as_recorded(self, tmp_path):
        """A baseline stamped on another host shape fails a required
        regression like any other, and the table carries no host note."""
        reg = MetricRegistry(str(tmp_path))
        p99 = "telemetry.p99_batch_ms[model=lenet5]"
        reg.update("core", {"telemetry.overhead_pct": 2.0, p99: 20.0},
                   stamp={"git_sha": "r1", "cpu_count": "1024", "machine": "other"})
        current = {"core": {"telemetry.overhead_pct": 20.0, p99: 80.0}}
        report = gate_metrics(current, reg)
        text = render_markdown(build_dashboard(reg, current, gate_report=report))
        assert "| regressed | core | telemetry.overhead_pct |" in text
        assert f"| regressed (advisory) | core | {p99} |" in text
        assert "REGRESSION GATE: FAIL" in text
        assert "host" not in text.split("## Regression gate")[1]
