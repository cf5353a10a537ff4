"""Attribution engine: the recorded span tree, coverage, the counters join.

The synthetic-trace tests pin the attribution *semantics* (sum-capped
coverage, the parent ids as the tree, graceful degradation); each
synthetic span states its own ``id`` and its ``parent``'s.  The model
tests pin the end-to-end join on real instrumented runs, including the
measured-vs-analytic arithmetic-intensity cross-check.
"""

import json
import re

import numpy as np
import pytest

from repro.nn.tensor import Tensor, no_grad
from repro.obs.attrib import AttributionReport, build_attribution, epoch_batch_ms
from repro.obs.instrument import instrument_model
from repro.obs import OpCounters
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


class TestCoverageSemantics:
    def test_leaf_explains_itself(self):
        rep = build_attribution([span("work", 0, 100, id=0)])
        assert rep.span_coverage == pytest.approx(1.0)
        assert rep.unexplained_us == pytest.approx(0.0)

    def test_container_explained_by_children_sum(self):
        rep = build_attribution(
            [
                span("child.a", 10, 30, id=1, parent=0),
                span("child.b", 50, 40, id=2, parent=0),
                span("root", 0, 100, id=0),
            ]
        )
        assert rep.total_us == pytest.approx(100.0)
        # 70 of 100 us explained; 30 us residual
        assert rep.span_coverage == pytest.approx(0.7)
        assert rep.unexplained_us == pytest.approx(30.0)

    def test_concurrent_children_capped_at_parent(self):
        # two shards whose walls sum past the parent (true parallelism)
        rep = build_attribution(
            [
                span("shard.a", 0, 90, id=1, parent=0, tid=2),
                span("shard.b", 5, 90, id=2, parent=0, tid=3),
                span("root", 0, 100, id=0),
            ]
        )
        assert rep.span_coverage == pytest.approx(1.0)

    def test_nesting_attributes_through_depth(self):
        rep = build_attribution(
            [
                span("leaf", 10, 50, id=2, parent=1),
                span("mid", 5, 80, id=1, parent=0),
                span("root", 0, 100, id=0),
            ]
        )
        # root <- mid (explained 50 by leaf) -> coverage 50/100
        assert rep.span_coverage == pytest.approx(0.5)
        row = rep.row("mid")
        assert row.self_us == pytest.approx(30.0)

    def test_tree_is_the_recorded_one(self):
        """A sibling that starts and ends within 0.5 us of the previous
        sibling's end stays a sibling: the parent ids are the tree,
        whatever the intervals suggest."""
        rep = build_attribution(
            [
                span("a", 0, 100, id=1, parent=0),
                span("b", 100.2, 0.2, id=2, parent=0),
                span("root", 0, 200, id=0),
            ]
        )
        assert rep.row("a").self_us == 100.0
        assert rep.attributed_us == pytest.approx(100.2)
        assert rep.roots == ["root"]

    def test_span_whose_parent_is_not_given_is_a_root(self):
        """A window cut from a longer trace: the spans whose parent lies
        outside it are its roots."""
        rep = build_attribution(
            [span("leaf", 10, 20, id=8, parent=7), span("inner", 5, 40, id=7, parent=3)]
        )
        assert rep.roots == ["inner"]
        assert rep.total_us == pytest.approx(40.0)
        assert rep.attributed_us == pytest.approx(20.0)

    def test_rows_without_ids_are_rejected(self, tmp_path):
        """A trace written before events had ids names its first id-less
        row instead of being attributed by guesswork."""
        path = tmp_path / "trace.jsonl"
        rows = [span("a", 0, 10, id=0), {"type": "span", "name": "b", "ts_us": 20,
                                          "dur_us": 5, "tid": 1, "parent": None}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: event has no id")):
            build_attribution(str(path))
        with pytest.raises(ValueError, match="trace row 1: event has no id"):
            epoch_batch_ms(rows)

    def test_instants_are_not_tree_nodes(self):
        """Instant events carry ids and parents but hold no time: they
        neither explain their span nor become rows of their own."""
        rep = build_attribution(
            [
                span("child", 10, 30, id=1, parent=0),
                {"type": "instant", "name": "mark", "ts_us": 50, "dur_us": None,
                 "tid": 1, "id": 2, "parent": 0, "cat": "", "attrs": {}},
                span("root", 0, 100, id=0),
            ]
        )
        assert rep.span_coverage == pytest.approx(0.3)
        assert rep.row("root").self_us == pytest.approx(70.0)
        assert {r.name for r in rep.rows} == {"root", "child"}

    def test_other_threads_spans_keep_their_recorded_parent(self):
        """A span another thread ran inside the root's interval is a root
        of its own when it was recorded without a parent."""
        rep = build_attribution(
            [
                span("worker", 20, 50, id=1, tid=2),
                span("main.child", 10, 30, id=2, parent=0),
                span("main", 0, 100, id=0),
            ]
        )
        assert rep.roots == ["main", "worker"]
        assert rep.total_us == pytest.approx(150.0)
        assert rep.attributed_us == pytest.approx(80.0)
        assert rep.row("main").self_us == pytest.approx(70.0)

    def test_root_filter(self):
        events = [span("a.work", 0, 50, id=0), span("b.work", 60, 50, id=1)]
        rep = build_attribution(events, root="a")
        assert rep.roots == ["a.work"]
        assert rep.total_us == pytest.approx(50.0)

    def test_empty_trace_degrades_gracefully(self):
        rep = build_attribution([])
        assert isinstance(rep, AttributionReport)
        assert rep.rows == []
        assert rep.span_coverage == 0.0
        assert "coverage" in rep.render()  # renders, no crash

    def test_disabled_tracer_yields_empty_report(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored"):
            pass
        rep = build_attribution(tracer)
        assert rep.rows == [] and rep.span_coverage == 0.0


class TestEpochBatchMs:
    """Batch wall time read from the Trainer's spans."""

    def test_loader_gap_counts_and_first_batch_starts_at_the_epoch(self):
        rows = [
            span("train.batch", 1000, 2000, id=1, parent=0, samples=8),  # 1 ms of loading first
            span("train.batch", 4000, 2000, id=2, parent=0, samples=8),  # 1 ms gap before it
            span("train.evaluate", 6500, 500, id=3, parent=0),
            span("train.epoch", 0, 8000, id=0, epoch=0, val_top1=0.5),
        ]
        assert epoch_batch_ms(rows) == [({"epoch": 0, "val_top1": 0.5}, [3.0, 3.0])]

    def test_threads_are_not_mixed(self):
        rows = [
            span("train.epoch", 0, 8000, id=0, tid=1, epoch=0),
            span("train.batch", 1000, 1000, id=2, parent=4, tid=2),
            span("train.batch", 2000, 4000, id=1, parent=0, tid=1),
            span("train.batch", 3000, 1000, id=3, parent=4, tid=2),
            span("train.epoch", 500, 7000, id=4, tid=2, epoch=0),
        ]
        assert epoch_batch_ms(rows) == [
            ({"epoch": 0}, [6.0]),
            ({"epoch": 0}, [1.5, 2.0]),
        ]

    def test_epochs_nested_under_a_fit_span(self):
        """Epochs are found at any depth, in start order, and only their
        own child batches count."""
        rows = [
            span("train.batch", 1500, 500, id=3, parent=2),
            span("train.batch", 1100, 200, id=5, parent=4),
            span("train.evaluate", 1050, 400, id=4, parent=2),
            span("train.epoch", 1000, 1000, id=2, parent=0, epoch=1),
            span("train.batch", 0, 600, id=6, parent=1),
            span("train.epoch", 0, 900, id=1, parent=0, epoch=0),
            span("train.fit", 0, 2000, id=0),
        ]
        assert epoch_batch_ms(rows) == [({"epoch": 0}, [0.6]), ({"epoch": 1}, [1.0])]

    def test_reads_a_jsonl_trace(self, tmp_path):
        from repro.obs.export import write_jsonl

        tracer = Tracer(enabled=True)
        with tracer.span("train.fit"):
            for epoch in range(2):
                with tracer.span("train.epoch", epoch=epoch):
                    for _ in range(3):
                        with tracer.span("train.batch"):
                            pass
        path = tmp_path / "trace.jsonl"
        write_jsonl(str(path), tracer)
        live, read = epoch_batch_ms(tracer), epoch_batch_ms(str(path))
        assert [a for a, _ in read] == [a for a, _ in live] == [{"epoch": 0}, {"epoch": 1}]
        for (_, ms_read), (_, ms_live) in zip(read, live):
            # the exporter rounds timestamps to the nanosecond
            assert ms_read == pytest.approx(ms_live, abs=1e-5)

    def test_reads_a_live_tracer(self):
        tracer = Tracer(enabled=True)
        for epoch in range(2):
            with tracer.span("train.epoch", epoch=epoch):
                for _ in range(3):
                    with tracer.span("train.batch"):
                        pass
        assert [(a["epoch"], len(ms)) for a, ms in epoch_batch_ms(tracer)] == [(0, 3), (1, 3)]


class TestCountersJoin:
    def test_counters_join(self):
        ev = span(
            "k",
            0,
            1000.0,  # 1 ms
            id=0,
            counters={"mults": 500_000},  # -> 1e6 FLOPs (paired adds)
            bytes_io=1e5,
        )
        rep = build_attribution([ev])
        row = rep.row("k")
        assert row.ops == pytest.approx(1e6)
        assert row.intensity == pytest.approx(10.0)
        assert row.attained_flops == pytest.approx(1e9)
        assert row.bound is None  # only the accel model's rows carry one

    def test_counted_additions_preferred_over_pairing(self):
        ev = span(
            "k", 0, 1000.0, id=0,
            counters={"mults": 100, "major_additions": 40, "half_additions": 10},
            bytes_io=10.0,
        )
        rep = build_attribution([ev])
        assert rep.row("k").ops == pytest.approx(150.0)

    def test_kernels_of_one_row_are_joined(self):
        same = [span("k", 0, 10, id=0, kernel="fused-f64"),
                span("k", 20, 10, id=1, kernel="fused-f64")]
        assert build_attribution(same).row("k").kernel == "fused-f64"
        mixed = [span("k", 0, 10, id=0, kernel="fused-f64"),
                 span("k", 20, 10, id=1, kernel="fused-f32-nhwc")]
        assert build_attribution(mixed).row("k").kernel == "fused-f64+fused-f32-nhwc"

    def test_sim_rows_keep_model_bound(self):
        events = [
            span("sim.network", 0, 100, id=0, cat="accel"),
            {
                "type": "instant",
                "name": "sim.layer",
                "ts_us": 50,
                "dur_us": None,
                "tid": 1,
                "id": 1,
                "parent": 0,
                "cat": "accel",
                "attrs": {
                    "layer": "C1",
                    "multiplications": 100,
                    "additions": 90,
                    "preprocessing_additions": 10,
                    "dram_bytes": 400.0,
                    "cycles": 1234,
                    "energy_total_j": 1e-6,
                    "bound": "memory",
                },
            },
        ]
        rep = build_attribution(events)
        row = rep.row("sim.layer.C1")
        assert row.kind == "sim"
        assert row.ops == pytest.approx(200.0)
        assert row.cycles == pytest.approx(1234)
        assert row.bound == "memory"  # the accel model's own verdict

    def test_note_counts_simulated_layers_not_the_network_span(self):
        """The accel note counts the ``sim.layer`` rows only: the
        ``sim.network`` span around them is a row of kind ``sim`` too,
        but it is no layer and carries no bound."""
        layers = [
            {
                "type": "instant", "name": "sim.layer", "ts_us": 10 + i, "dur_us": None,
                "tid": 1, "id": 1 + i, "parent": 0, "cat": "accel",
                "attrs": {"layer": f"C{1 + i}", "cycles": 100, "bound": bound},
            }
            for i, bound in enumerate(("memory", "compute", "compute"))
        ]
        rep = build_attribution([span("sim.network", 0, 100, id=0, cat="accel"), *layers])
        assert rep.row("sim.network").kind == "sim"
        assert (
            "accel model: 3 simulated layer(s), 1 memory-bound / 2 compute-bound"
            in rep.to_experiment_report().notes
        )

    def test_report_round_trips_through_jsonl(self, tmp_path):
        rep = build_attribution([span("k", 0, 10, id=0, counters={"mults": 8}, bytes_io=4.0)])
        path = tmp_path / "attrib.jsonl"
        n = rep.write_jsonl(str(path))
        lines = [l for l in path.read_text().splitlines() if l]
        assert len(lines) == n == 2  # summary + one row
        assert "attrib_summary" in lines[0] and '"k"' in lines[1]


class TestOpCountersRoundTrip:
    def test_merge_from_dict_as_dict_round_trip(self):
        """Property: as_dict/from_dict is the identity, merge is addition."""
        rng = np.random.default_rng(7)
        fields = [
            f for f in OpCounters().as_dict(include_derived=False)
        ]
        for _ in range(25):
            doc_a = {f: int(rng.integers(0, 1000)) for f in fields}
            doc_b = {f: int(rng.integers(0, 1000)) for f in fields}
            a, b = OpCounters.from_dict(doc_a), OpCounters.from_dict(doc_b)
            assert a.as_dict(include_derived=False) == doc_a
            merged = OpCounters.from_dict(doc_a)
            merged.merge(b)
            got = merged.as_dict(include_derived=False)
            assert got == {f: doc_a[f] + doc_b[f] for f in fields}

    def test_from_dict_tolerates_derived_keys(self):
        oc = OpCounters(mults=5, half_additions=3)
        doc = oc.as_dict(include_derived=True)  # adds additions/reuse_hits
        assert OpCounters.from_dict(doc) == oc


class TestInstrumentedModelJoin:
    def test_model_coverage_above_floor(self):
        from repro.obs.attrib import attribute_model_run

        rep = attribute_model_run("lenet5", simulate=False, root="lenet5")
        assert rep.span_coverage >= 0.9
        assert any(r.kind == "layer" and r.ops for r in rep.rows)

    def test_model_run_keeps_and_ignores_earlier_events(self, enabled_tracer):
        """The process-wide trace is not cleared, and the report covers
        only the events the call itself recorded."""
        from repro.obs.attrib import attribute_model_run

        with enabled_tracer.span("earlier"):
            pass
        rep = attribute_model_run("lenet5", simulate=False)
        assert enabled_tracer.events[0].name == "earlier"
        assert "earlier" not in {r.name for r in rep.rows}
        assert "lenet5.forward" in {r.name for r in rep.rows}

    def test_intensity_cross_checks_analytic_model(self):
        """Measured intensity matches the closed-form opcount/bytes model.

        The fused leaf's ops come from the mults its kernel recorded
        (2 FLOPs each) and its bytes from array sizes; both must match
        the geometry formulas, 2*N*M*PO*QO*C*K^2 ops and the operand
        bytes, to well under the 5%% acceptance band.
        """
        from repro.compiler import CompileContext, mlcnn_pipeline
        from repro.models import build_model

        model = build_model("lenet5")
        mlcnn_pipeline(strict=False).run(model, CompileContext())
        tracer = Tracer(enabled=True)
        instrument_model(model, tracer=tracer, prefix="lenet5", counters=True)
        model.eval()
        n = 2
        x = np.random.default_rng(0).normal(size=(n, 3, 32, 32))
        fused = model.features[0]  # FusedConvPool bound to a kernel
        with no_grad():
            out0 = fused(Tensor(x))
        rep = build_attribution(tracer)
        row = rep.row("lenet5.features.0.forward")
        m, c, kh, kw = fused.weight.data.shape
        _, _, po, qo = out0.shape
        # fused conv+pool kernel: mults = pooled outputs x macs each,
        # engine pairs each mult with its accumulate add
        analytic_ops = 2.0 * n * m * po * qo * c * kh * kw
        assert row.ops == pytest.approx(analytic_ops, rel=0.05)
        analytic_bytes = 8.0 * (
            x.size + fused.weight.data.size + fused.bias.data.size + out0.data.size
        )
        assert row.bytes_moved == pytest.approx(analytic_bytes, rel=0.05)
        assert row.intensity == pytest.approx(analytic_ops / analytic_bytes, rel=0.05)

    @pytest.mark.parametrize("bits", [0, 8])
    def test_every_arithmetic_leaf_has_measured_ops(self, bits):
        """Every leaf that multiplies records its own multiplications:
        plain, fused and quantized convolutions and linear layers."""
        from repro.compiler import mlcnn_pipeline
        from repro.models import build_model

        model = build_model("lenet5")
        mlcnn_pipeline(bits=bits, strict=False).run(model)
        tracer = Tracer(enabled=True)
        instrument_model(model, tracer=tracer, prefix="lenet5", counters=True)
        model.eval()
        n = 2
        with no_grad():
            model(Tensor(np.random.default_rng(0).normal(size=(n, 3, 32, 32))))
        rep = build_attribution(tracer)
        kinds = {"Conv2d", "Linear", "FusedConvPool", "QuantizedConvBlock"}
        ran = {ev.name: ev.attrs["cls"] for ev in tracer.events if ev.attrs.get("cls") in kinds}
        conv = "QuantizedConvBlock" if bits else "Conv2d"
        assert set(ran.values()) == {"Linear", "FusedConvPool", conv}
        for name in ran:
            assert rep.row(name).ops, name
        # the unfused conv (16 -> 120, 5x5 over 5x5) runs dense: 2 FLOPs per MAC
        (conv_row,) = [name for name, cls in ran.items() if cls == conv]
        assert rep.row(conv_row).ops == 2.0 * n * 120 * 16 * 5 * 5

    def test_counters_instrumentation_free_when_disabled(self):
        """counters=True must stay near-zero overhead with tracing off."""
        from tests.obs.test_overhead import PER_CALL_BOUND_S, Passthrough, per_call_s

        tracer = Tracer(enabled=False)
        mod = instrument_model(Passthrough(), tracer=tracer, counters=True)
        x = Tensor(np.zeros(4))
        cost = per_call_s(lambda: mod(x))
        assert cost < PER_CALL_BOUND_S, f"disabled counters wrapper costs {cost * 1e6:.2f} us/call"
        assert tracer.events == []
