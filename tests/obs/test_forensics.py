"""Run forensics: injected regressions must rank first, with causes.

The synthetic-trace tests inject a known slowdown / kernel swap /
span removal between run A and run B and assert :func:`diff_runs`
localizes exactly that change at the top of the ranking.  Each
synthetic span states its own ``id`` and its ``parent``'s.
"""

import json
import re

import pytest

from repro.obs.attrib import build_attribution
from repro.obs.export import ObsRun, write_jsonl
from repro.obs.forensics import RunDiff, diff_runs
from repro.obs.tracer import Tracer


def span(name, ts, dur, id, parent=None, cat="", tid=1, **attrs):
    """A recorded span row; ``parent`` is the id of the span it ran in."""
    return {
        "type": "span",
        "name": name,
        "ts_us": ts,
        "dur_us": dur,
        "tid": tid,
        "id": id,
        "parent": parent,
        "cat": cat,
        "attrs": attrs,
    }


def _model_trace(slow_layer=None, factor=3.0, kernel="fused-f64"):
    """A three-layer forward; one layer optionally slowed by ``factor``."""
    walls = {"net.features.0": 400.0, "net.features.1": 300.0, "net.fc": 200.0}
    if slow_layer is not None:
        walls[slow_layer] *= factor
    events, ts = [], 0.0
    for i, (name, dur) in enumerate(walls.items(), 1):
        events.append(span(name, ts, dur, id=i, parent=0, cat="nn", kernel=kernel))
        ts += dur + 5.0
    events.append(span("net.forward", 0.0, ts, id=0, cat="nn"))
    return events


class TestDiffRuns:
    def test_injected_slowdown_is_top_ranked(self):
        """The acceptance property: a synthetic 3x slowdown on one layer
        must come back as the #1 entry, localized to that layer."""
        a = build_attribution(_model_trace())
        b = build_attribution(_model_trace(slow_layer="net.features.1"))
        diff = diff_runs(a, b)
        assert isinstance(diff, RunDiff)
        culprit = diff.culprit
        assert culprit is not None
        # net.forward (the container) grows by the same amount; the
        # layer itself must still outrank or tie every *other* layer
        layer_entries = [e for e in diff.entries if e.name != "net.forward"]
        assert layer_entries[0].name == "net.features.1"
        assert layer_entries[0].delta_us == pytest.approx(600.0)
        assert layer_entries[0].delta_rel == pytest.approx(2.0)
        # untouched layers sit at ~zero delta
        fc = next(e for e in diff.entries if e.name == "net.fc")
        assert fc.delta_us == pytest.approx(0.0)

    def test_added_and_removed_spans_are_noted(self):
        a = build_attribution([span("old.pass", 0, 50, id=0), span("both", 60, 10, id=1)])
        b = build_attribution([span("new.pass", 0, 70, id=0), span("both", 80, 10, id=1)])
        diff = diff_runs(a, b)
        by_name = {e.name: e for e in diff.entries}
        assert "added in B" in by_name["new.pass"].notes
        assert "removed in B" in by_name["old.pass"].notes
        assert by_name["new.pass"].wall_a_us == 0.0
        assert by_name["old.pass"].wall_b_us == 0.0

    def test_kernel_swap_is_annotated(self):
        a = build_attribution(_model_trace(kernel="fused-f64"))
        b = build_attribution(_model_trace(kernel="fused-f32-nhwc"))
        diff = diff_runs(a, b)
        e = next(x for x in diff.entries if x.name == "net.features.0")
        assert any("fused-f64 -> fused-f32-nhwc" in n for n in e.notes)

    def test_ops_drift_is_annotated(self):
        a = build_attribution([span("k", 0, 100, id=0, counters={"mults": 1000})])
        b = build_attribution([span("k", 0, 100, id=0, counters={"mults": 2000})])
        diff = diff_runs(a, b)
        e = next(x for x in diff.entries if x.name == "k")
        assert any(n.startswith("ops x2.00") for n in e.notes)

    def test_kernel_plan_change_surfaces_without_spans(self):
        """A compile.plan kernel swap on a module with no span of its
        own still produces a ranked entry — never silent."""

        def trace(kern):
            return [
                span("compile.pipeline", 0, 100, id=0, cat="compiler"),
                {
                    "type": "instant",
                    "name": "compile.plan",
                    "ts_us": 50,
                    "dur_us": None,
                    "tid": 1,
                    "id": 1,
                    "parent": 0,
                    "cat": "compiler",
                    "attrs": {"kernels": {"features.0": kern}},
                },
            ]

        a = build_attribution(trace("fused-f64"))
        b = build_attribution(trace("fused-int8"))
        diff = diff_runs(a, b)
        e = next(x for x in diff.entries if x.name == "plan.features.0")
        assert e.notes == ["plan kernel fused-f64 -> fused-int8"]

    def test_kernel_plan_change_matches_whole_path_segments(self):
        """features.1's plan change must not land on features.10."""

        def trace(walls, plan):
            rows = [span(name, 1000 * i, wall, id=i, cat="nn")
                    for i, (name, wall) in enumerate(walls)]
            rows.append({"type": "instant", "name": "compile.plan", "ts_us": 5000, "tid": 1,
                         "id": len(rows), "parent": None, "cat": "compiler",
                         "attrs": {"kernels": plan}})
            return rows

        a = build_attribution(trace(
            [("m.features.1.forward", 100), ("m.features.10.conv.forward", 100)],
            {"features.1": "fused-f32-nhwc"},
        ))
        b = build_attribution(trace(
            [("m.features.1.forward", 101), ("m.features.10.conv.forward", 500)], {}
        ))
        note = ["plan kernel fused-f32-nhwc -> none"]
        diff = diff_runs(a, b, min_delta_us=50)
        assert {e.name: e.notes for e in diff.entries} == {
            "m.features.10.conv.forward": [],
            "plan.features.1": note,
        }
        notes = {e.name: e.notes for e in diff_runs(a, b).entries}
        assert notes["m.features.1.forward"] == note
        assert notes["m.features.10.conv.forward"] == []

    def test_min_delta_filter(self):
        a = build_attribution(_model_trace())
        b = build_attribution(_model_trace(slow_layer="net.features.0", factor=1.001))
        diff = diff_runs(a, b, min_delta_us=50.0)
        assert all(abs(e.delta_us) >= 50.0 or e.notes for e in diff.entries)

    def test_accepts_tracers_and_paths(self, tmp_path):
        ta, tb = Tracer(enabled=True), Tracer(enabled=True)
        with ta.span("work"):
            pass
        with tb.span("work"):
            pass
        diff = diff_runs(ta, tb)
        assert any(e.name == "work" for e in diff.entries) or diff.entries == []
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        write_jsonl(str(path_a), ta)
        write_jsonl(str(path_b), tb)
        diff2 = diff_runs(str(path_a), str(path_b))
        assert {e.name for e in diff2.entries} == {e.name for e in diff.entries}

    def test_accepts_run_directories(self, tmp_path):
        """``--obs`` run directories diff through their ``trace.jsonl``."""
        for run, slow in (("run_a", None), ("run_b", "net.fc")):
            (tmp_path / run).mkdir()
            rows = "".join(json.dumps(r) + "\n" for r in _model_trace(slow))
            (tmp_path / run / ObsRun.TRACE).write_text(rows)
        diff = diff_runs(str(tmp_path / "run_a"), str(tmp_path / "run_b"))
        layers = [e for e in diff.entries if e.name != "net.forward"]
        assert layers[0].name == "net.fc"

    def test_run_directory_without_ids_is_rejected(self, tmp_path):
        """A run directory written before spans recorded ids is refused
        with the file and line, not diffed by guesswork."""
        (tmp_path / "run_a").mkdir()
        (tmp_path / "run_b").mkdir()
        rows = _model_trace()
        (tmp_path / "run_a" / ObsRun.TRACE).write_text(
            "".join(json.dumps(r) + "\n" for r in rows))
        old = [{k: v for k, v in r.items() if k != "id"} for r in rows]
        (tmp_path / "run_b" / ObsRun.TRACE).write_text(
            "".join(json.dumps(r) + "\n" for r in old))
        trace_b = tmp_path / "run_b" / ObsRun.TRACE
        with pytest.raises(ValueError, match=re.escape(f"{trace_b}:1: event has no id")):
            diff_runs(str(tmp_path / "run_a"), str(tmp_path / "run_b"))

    def test_render_mentions_totals_and_culprit(self):
        a = build_attribution(_model_trace())
        b = build_attribution(_model_trace(slow_layer="net.fc"))
        text = diff_runs(a, b).render()
        assert "net.fc" in text and "span coverage" in text
