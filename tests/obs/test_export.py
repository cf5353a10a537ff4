"""Exporters: JSONL, Chrome trace schema, the ``--obs`` run directory."""

import json
import os
import threading

import pytest

from repro.obs.export import (
    ObsRun,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import Tracer, get_tracer


def populated_tracer() -> Tracer:
    t = Tracer(enabled=True)
    with t.span("compile.pipeline", category="compiler", pipeline="mlcnn"):
        with t.span("compile.pass.fuse", category="compiler") as sp:
            sp.set(rewrites=4)
        t.event("sim.layer", category="accel", layer="conv1", cycles=123.0)
    return t


class TestChromeTrace:
    def test_valid_json_with_required_fields(self, tmp_path):
        t = populated_tracer()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(str(path), t)
        doc = json.loads(path.read_text())  # must round-trip as JSON
        events = doc["traceEvents"]
        assert n == len(events) == 3
        for ev in events:
            assert {"ph", "ts", "name", "pid", "tid"} <= set(ev)
        complete = [ev for ev in events if ev["ph"] == "X"]
        for ev in complete:
            assert "dur" in ev and ev["dur"] >= 0
        assert {ev["name"] for ev in complete} == {
            "compile.pipeline",
            "compile.pass.fuse",
        }

    def test_instants_and_args(self):
        doc = to_chrome_trace(populated_tracer())
        instant = next(ev for ev in doc["traceEvents"] if ev["ph"] == "i")
        assert instant["name"] == "sim.layer"
        assert instant["args"]["cycles"] == 123.0
        fuse = next(ev for ev in doc["traceEvents"] if ev["name"] == "compile.pass.fuse")
        assert fuse["args"]["rewrites"] == 4

    def test_thread_ids_remapped_to_ordinals(self):
        doc = to_chrome_trace(populated_tracer())
        assert {ev["tid"] for ev in doc["traceEvents"]} == {0}

    def test_nonserializable_attrs_coerced(self):
        import numpy as np

        t = Tracer(enabled=True)
        with t.span("s", arr=np.float64(2.5), obj=object()):
            pass
        json.dumps(to_chrome_trace(t))  # must not raise


class TestJsonl:
    def test_each_line_parses(self, tmp_path):
        t = populated_tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(str(path), t)
        lines = path.read_text().strip().split("\n")
        docs = [json.loads(line) for line in lines]
        types = [d["type"] for d in docs]
        assert types == ["span", "instant", "span"]

    def test_span_fields(self):
        docs = [json.loads(l) for l in to_jsonl(populated_tracer()).strip().split("\n")]
        fuse = next(d for d in docs if d.get("name") == "compile.pass.fuse")
        pipeline = next(d for d in docs if d.get("name") == "compile.pipeline")
        assert fuse["type"] == "span"
        assert fuse["parent"] == pipeline["id"] != fuse["id"]
        assert fuse["depth"] == 1
        assert fuse["dur_us"] >= 0
        assert fuse["attrs"]["rewrites"] == 4

    def test_file_rebuilds_the_live_tree(self, tmp_path):
        """Attributing the written trace gives the tree of the live one."""
        from repro.obs.attrib import build_attribution

        t = populated_tracer()
        with t.span("second.root"):
            with t.span("leaf"):
                pass
        path = tmp_path / "trace.jsonl"
        write_jsonl(str(path), t)
        live, read = build_attribution(t), build_attribution(str(path))
        assert read.roots == live.roots == ["compile.pipeline", "second.root"]
        live_rows = {r.name: r for r in live.rows}
        assert {r.name: r.count for r in read.rows} == {n: r.count for n, r in live_rows.items()}
        for r in read.rows:
            # the exporter rounds times to the nanosecond
            assert r.self_us == pytest.approx(live_rows[r.name].self_us, abs=1e-2)

    def test_empty_tracer_exports_empty(self):
        assert to_jsonl(Tracer(enabled=True)) == ""


class TestObsRun:
    @pytest.fixture(autouse=True)
    def _restore_globals(self):
        yield
        get_tracer().disable()
        get_tracer().clear()

    def _run(self, directory, batches=3):
        with ObsRun(str(directory)) as run:
            tracer = get_tracer()
            assert tracer.enabled
            with tracer.span("work", category="experiments"):
                with tracer.span("train.epoch", category="train", epoch=0, val_top1=0.5):
                    for _ in range(batches):
                        with tracer.span("train.batch", category="train", samples=4):
                            pass
        return run

    def test_writes_every_file_and_switches_off(self, tmp_path):
        run = self._run(tmp_path / "run")
        assert sorted(os.listdir(run.directory)) == sorted(ObsRun.FILES)
        assert not get_tracer().enabled
        names = {json.loads(line)["name"] for line in open(run.path(ObsRun.TRACE))}
        assert names == {"work", "train.epoch", "train.batch"}
        assert json.load(open(run.path(ObsRun.CHROME_TRACE)))["traceEvents"]
        rows = [json.loads(line) for line in open(run.path(ObsRun.ATTRIB))]
        assert {r["name"] for r in rows if r["type"] == "attrib_row"} == names
        assert run.attribution.row("work").count == 1
        dashboard = open(run.path(ObsRun.DASHBOARD)).read()
        assert "<h2>Training</h2>" in dashboard and "<td>0.500</td>" in dashboard

    def test_six_files_and_no_thread_but_the_profiler(self, tmp_path):
        before = set(threading.enumerate())
        with ObsRun(str(tmp_path / "run")) as run:
            started = set(threading.enumerate()) - before
            assert started == {run._profiler._thread}
        assert len(os.listdir(run.directory)) == 6

    def test_reused_directory_holds_one_run(self, tmp_path):
        self._run(tmp_path / "run", batches=5)
        run = self._run(tmp_path / "run", batches=3)
        assert len(open(run.path(ObsRun.TRACE)).read().splitlines()) == 5

    def test_stale_numerics_file_is_removed(self, tmp_path):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / ObsRun.NUMERICS).write_text("{}\n")
        run = self._run(tmp_path / "run")
        assert not os.path.exists(run.path(ObsRun.NUMERICS))

    def test_trace_path_resolves_run_directories(self, tmp_path):
        assert ObsRun.trace_path(str(tmp_path)) == str(tmp_path / ObsRun.TRACE)
        assert ObsRun.trace_path("a.jsonl") == "a.jsonl"
