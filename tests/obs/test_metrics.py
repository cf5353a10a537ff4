"""OpCounters, the recorder, provenance, and the run registry."""

import json
import re

import pytest

from repro.obs import OpCounters, collect_counters, get_recorder
from repro.obs.metrics import (
    HISTORY_LIMIT,
    MetricRegistry,
    RunRecord,
    area_for_figure,
    load_metrics_jsonl,
    metric_key,
    provenance,
)


class TestCounters:
    def test_disabled_recorder_is_inert(self):
        rec = get_recorder()
        assert not rec.enabled
        rec.record(mults=100)  # no active sink: dropped, no error

    def test_collect_is_scoped(self):
        rec = get_recorder()
        with collect_counters() as oc:
            assert rec.enabled
            rec.record(mults=3, half_additions=2)
        assert not rec.enabled
        assert oc.mults == 3 and oc.half_additions == 2
        rec.record(mults=99)
        assert oc.mults == 3  # closed scope no longer receives

    def test_nested_collections_both_receive(self):
        rec = get_recorder()
        with collect_counters() as outer:
            rec.record(mults=1)
            with collect_counters() as inner:
                rec.record(mults=2)
        assert inner.mults == 2
        assert outer.mults == 3

    def test_closing_an_inner_scope_keeps_an_equal_outer_scope(self):
        """Nested sinks that saw the same records compare equal; closing
        the inner one must still close that one, not the outer."""
        rec = get_recorder()
        with collect_counters() as outer:
            with collect_counters() as inner:
                rec.record(mults=2)
            rec.record(mults=5)
        assert not rec.enabled
        assert (inner.mults, outer.mults) == (2, 7)

    def test_derived_fields_and_merge(self):
        a = OpCounters(half_additions=2, full_additions=3, major_additions=5,
                       bias_additions=1, lar_reuse_hits=4, gar_reuse_hits=6)
        assert a.additions == 11
        assert a.reuse_hits == 10
        b = OpCounters(mults=7, half_additions=1)
        a.merge(b)
        assert a.mults == 7 and a.half_additions == 3
        doc = a.as_dict()
        assert doc["additions"] == 12 and doc["reuse_hits"] == 10

    def test_exception_still_pops_sink(self):
        rec = get_recorder()
        with pytest.raises(RuntimeError):
            with collect_counters():
                raise RuntimeError("boom")
        assert not rec.enabled


class TestProvenance:
    def test_fields_present(self):
        stamp = provenance()
        for key in ("git_sha", "timestamp", "host", "user", "python"):
            assert stamp[key]
        # inside this repo the SHA resolves to a real hex prefix
        assert stamp["git_sha"] == "unknown" or all(
            c in "0123456789abcdef" for c in stamp["git_sha"]
        )
        assert "T" in stamp["timestamp"]  # ISO-8601


class TestMetricNaming:
    def test_key_sorts_extras_and_drops_provenance(self):
        key = metric_key("fig13", "speedup", {"config": "mlcnn-fp32", "b": 1,
                                              "git_sha": "abc", "host": "h"})
        assert key == "fig13.speedup[b=1][config=mlcnn-fp32]"

    def test_area_mapping(self):
        assert area_for_figure("fig13") == "accel"
        assert area_for_figure("fig15") == "accel"
        assert area_for_figure("kernel") == "accel"
        assert area_for_figure("table7") == "accel"
        assert area_for_figure("operating") == "accel"
        assert area_for_figure("fig14") == "core"
        assert area_for_figure("table2") == "core"
        assert area_for_figure("ablation") == "core"

    def test_load_jsonl(self, tmp_path):
        p = tmp_path / "m.jsonl"
        rows = [
            {"figure": "fig13", "metric": "speedup", "value": 3.2, "config": "a",
             "git_sha": "deadbeef", "host": "ci"},
            {"figure": "table2", "metric": "lar_reduction_rate", "value": 0.228, "k": 11},
            # re-emitted key keeps the last value
            {"figure": "fig13", "metric": "speedup", "value": 3.4, "config": "a"},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        per_area = load_metrics_jsonl(str(p))
        assert per_area["accel"]["fig13.speedup[config=a]"] == 3.4
        assert per_area["core"]["table2.lar_reduction_rate[k=11]"] == 0.228

    def test_load_jsonl_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"figure": "x"\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            load_metrics_jsonl(str(p))
        p.write_text('{"metric": "no-figure", "value": 1}\n')
        with pytest.raises(ValueError, match="figure/metric/value"):
            load_metrics_jsonl(str(p))

    @pytest.mark.parametrize("value", ["null", '"fast"', "[1]"])
    def test_load_jsonl_rejects_non_numeric_values(self, tmp_path, value):
        p = tmp_path / "bad.jsonl"
        p.write_text(
            '{"figure": "kernel", "metric": "x", "value": 1.0}\n'
            f'{{"figure": "kernel", "metric": "y", "value": {value}}}\n'
        )
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:2: metric value"):
            load_metrics_jsonl(str(p))


class TestRegistry:
    def test_roundtrip_and_history_rotation(self, tmp_path):
        reg = MetricRegistry(str(tmp_path))
        assert reg.baseline("core") is None
        assert reg.areas() == []

        reg.update("core", {"m.a": 1.0}, stamp={"git_sha": "run1"})
        reg.update("core", {"m.a": 2.0, "m.b": 5.0}, stamp={"git_sha": "run2"})
        reg.update("core", {"m.a": 3.0}, stamp={"git_sha": "run3"})

        assert reg.areas() == ["core"]
        # run3 did not measure m.b: the baseline keeps run2's value
        assert reg.baseline("core") == {"m.a": 3.0, "m.b": 5.0}
        history = reg.history("core")
        assert [r.provenance["git_sha"] for r in history] == ["run1", "run2", "run3"]
        assert isinstance(history[0], RunRecord)
        assert reg.series("core", "m.a") == [("run1", 1.0), ("run2", 2.0), ("run3", 3.0)]
        # m.b was only measured in run2, so no later run adds a point
        assert reg.series("core", "m.b") == [("run2", 5.0)]

    def test_partial_update_keeps_unmeasured_baselines(self, tmp_path):
        reg = MetricRegistry(str(tmp_path))
        paper = {"fig13.speedup[config=mlcnn-fp32]": 3.2, "table7.pes[config=a]": 256.0}
        reg.update("accel", {**paper, "kernel.fused_samples_per_sec": 100.0},
                   stamp={"git_sha": "full"})
        reg.update("accel", {"kernel.fused_samples_per_sec": 120.0}, stamp={"git_sha": "kern"})
        assert reg.baseline("accel") == {**paper, "kernel.fused_samples_per_sec": 120.0}
        for key, value in paper.items():
            assert reg.series("accel", key) == [("full", value)]
        assert reg.series("accel", "kernel.fused_samples_per_sec") == [
            ("full", 100.0), ("kern", 120.0)
        ]

    def test_history_is_bounded(self, tmp_path):
        reg = MetricRegistry(str(tmp_path))
        for i in range(HISTORY_LIMIT + 5):
            reg.update("accel", {"x": float(i)}, stamp={"git_sha": f"r{i}"})
        doc = reg.load("accel")
        assert len(doc["history"]) == HISTORY_LIMIT

    def test_file_is_stable_json(self, tmp_path):
        reg = MetricRegistry(str(tmp_path))
        path = reg.update("core", {"b": 2.0, "a": 1.0}, stamp={"git_sha": "s"})
        text = open(path).read()
        assert text.index('"a"') < text.index('"b"')  # sorted keys: clean diffs
        assert json.loads(text)["area"] == "core"
