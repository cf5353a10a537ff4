"""Attribution engine: tree reconstruction, coverage, the roofline join.

The synthetic-trace tests pin the attribution *semantics* (sum-capped
coverage, interval containment, graceful degradation); the model tests
pin the end-to-end join on real instrumented runs, including the
measured-vs-analytic arithmetic-intensity cross-check.
"""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, no_grad
from repro.obs.attrib import AttributionReport, build_attribution, epoch_batch_ms
from repro.obs.instrument import instrument_model
from repro.obs import OpCounters
from repro.obs.roofline import Roofline
from repro.obs.tracer import Tracer

ROOF = Roofline(peak_flops=1e9, stream_bandwidth=1e8)


def span(name, ts, dur, cat="", tid=1, **attrs):
    return {
        "type": "span",
        "name": name,
        "ts_us": ts,
        "dur_us": dur,
        "tid": tid,
        "depth": 0,
        "parent": None,
        "cat": cat,
        "attrs": attrs,
    }


class TestCoverageSemantics:
    def test_leaf_explains_itself(self):
        rep = build_attribution([span("work", 0, 100)])
        assert rep.span_coverage == pytest.approx(1.0)
        assert rep.unexplained_us == pytest.approx(0.0)

    def test_container_explained_by_children_sum(self):
        rep = build_attribution(
            [
                span("child.a", 10, 30),
                span("child.b", 50, 40),
                span("root", 0, 100),
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
                span("shard.a", 0, 90),
                span("shard.b", 5, 90),
                span("root", 0, 100),
            ]
        )
        assert rep.span_coverage == pytest.approx(1.0)

    def test_nesting_attributes_through_depth(self):
        rep = build_attribution(
            [
                span("leaf", 10, 50),
                span("mid", 5, 80),
                span("root", 0, 100),
            ]
        )
        # root <- mid (explained 50 by leaf) -> coverage 50/100
        assert rep.span_coverage == pytest.approx(0.5)
        row = rep.row("mid")
        assert row.self_us == pytest.approx(30.0)

    def test_root_filter(self):
        events = [span("a.work", 0, 50), span("b.work", 60, 50)]
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
            span("train.batch", 1000, 2000, samples=8),  # 1 ms of loading first
            span("train.batch", 4000, 2000, samples=8),  # 1 ms gap before it
            span("train.evaluate", 6500, 500),
            span("train.epoch", 0, 8000, epoch=0, val_top1=0.5),
        ]
        assert epoch_batch_ms(rows) == [({"epoch": 0, "val_top1": 0.5}, [3.0, 3.0])]

    def test_threads_are_not_mixed(self):
        rows = [
            span("train.epoch", 0, 8000, tid=1, epoch=0),
            span("train.batch", 1000, 1000, tid=2),
            span("train.batch", 2000, 4000, tid=1),
            span("train.batch", 3000, 1000, tid=2),
            span("train.epoch", 500, 7000, tid=2, epoch=0),
        ]
        assert epoch_batch_ms(rows) == [
            ({"epoch": 0}, [6.0]),
            ({"epoch": 0}, [1.5, 2.0]),
        ]

    def test_reads_a_live_tracer(self):
        tracer = Tracer(enabled=True)
        for epoch in range(2):
            with tracer.span("train.epoch", epoch=epoch):
                for _ in range(3):
                    with tracer.span("train.batch"):
                        pass
        assert [(a["epoch"], len(ms)) for a, ms in epoch_batch_ms(tracer)] == [(0, 3), (1, 3)]


class TestRooflineJoin:
    def test_counters_join_and_classification(self):
        ev = span(
            "k",
            0,
            1000.0,  # 1 ms
            counters={"mults": 500_000},  # -> 1e6 FLOPs (paired adds)
            bytes_io=1e5,
        )
        rep = build_attribution([ev], roofline=ROOF)
        row = rep.row("k")
        assert row.ops == pytest.approx(1e6)
        assert row.intensity == pytest.approx(10.0)  # ridge sits there
        assert row.attained_flops == pytest.approx(1e9)
        assert row.bound == "compute"
        assert row.attained_fraction == pytest.approx(1.0)

    def test_counted_additions_preferred_over_pairing(self):
        ev = span(
            "k", 0, 1000.0,
            counters={"mults": 100, "major_additions": 40, "half_additions": 10},
            bytes_io=10.0,
        )
        rep = build_attribution([ev], roofline=ROOF)
        assert rep.row("k").ops == pytest.approx(150.0)

    def test_sim_rows_keep_model_bound(self):
        events = [
            span("sim.network", 0, 100, cat="accel"),
            {
                "type": "instant",
                "name": "sim.layer",
                "ts_us": 50,
                "dur_us": None,
                "tid": 1,
                "depth": 1,
                "parent": "sim.network",
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
        rep = build_attribution(events, roofline=ROOF)
        row = rep.row("sim.layer.C1")
        assert row.kind == "sim"
        assert row.ops == pytest.approx(200.0)
        assert row.cycles == pytest.approx(1234)
        # the accel model's own verdict survives; host roofline not applied
        assert row.bound == "memory"

    def test_report_round_trips_through_jsonl(self, tmp_path):
        rep = build_attribution(
            [span("k", 0, 10, counters={"mults": 8}, bytes_io=4.0)], roofline=ROOF
        )
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
