"""RTL micro-simulator: structural invariants, counts and traces.

``tests/core/test_oracle.py`` holds ``RTLFusedConvPoolLayer`` (and so
the single-channel datapath it streams every pass through) to the one
golden.
"""

import numpy as np
import pytest

from repro.accel.rtl import (
    ARUnit,
    Fifo,
    MACSlice,
    RTLFusedConvPool,
    RTLFusedConvPoolLayer,
    ShiftRegister,
)
from repro.core.fusion import fused_conv_pool_counted


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestFifo:
    def test_fifo_order(self):
        f = Fifo(4)
        for v in (1.0, 2.0, 3.0):
            f.push(v)
        assert [f.pop(), f.pop(), f.pop()] == [1.0, 2.0, 3.0]

    def test_overflow_raises(self):
        f = Fifo(1)
        f.push(1.0)
        with pytest.raises(OverflowError):
            f.push(2.0)

    def test_underflow_raises(self):
        with pytest.raises(IndexError):
            Fifo(1).pop()

    def test_high_water_tracked(self):
        f = Fifo(4)
        f.push(1.0)
        f.push(2.0)
        f.pop()
        f.push(3.0)
        assert f.high_water == 2

    def test_flags(self):
        f = Fifo(1)
        assert f.empty and not f.full
        f.push(0.0)
        assert f.full and not f.empty

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            Fifo(0)


class TestShiftRegister:
    def test_taps_follow_shifts(self):
        sr = ShiftRegister(3)
        for v in (1.0, 2.0, 3.0):
            sr.shift_in(v)
        assert [sr.tap(i) for i in range(3)] == [1.0, 2.0, 3.0]
        sr.shift_in(4.0)  # evicts 1.0
        assert sr.tap(0) == 2.0

    def test_tap_out_of_range_raises(self):
        sr = ShiftRegister(2)
        sr.shift_in(1.0)
        with pytest.raises(IndexError):
            sr.tap(1)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            ShiftRegister(0)


class TestARUnit:
    def test_half_and_full_additions(self):
        fifo = Fifo(8)
        ar = ARUnit(fifo)
        ar.start_row()
        ar.tick((1.0, 2.0))  # HA=3, no FA yet
        ar.tick((3.0, 4.0))  # HA=7, FA=3+7=10
        ar.tick((5.0, 6.0))  # HA=11, FA=7+11=18
        assert ar.stats.half_additions == 3
        assert ar.stats.full_additions == 2
        assert fifo.pop() == 10.0
        assert fifo.pop() == 18.0

    def test_idle_cycle(self):
        ar = ARUnit(Fifo(2))
        ar.tick(None)
        assert ar.stats.half_additions == 0

    def test_start_row_resets_column_state(self):
        fifo = Fifo(8)
        ar = ARUnit(fifo)
        ar.tick((1.0, 1.0))
        ar.start_row()
        ar.tick((2.0, 2.0))  # no FA across the row boundary
        assert ar.stats.full_additions == 0


class TestMACSlice:
    def test_accumulates_k2_products(self, rng):
        w = rng.normal(size=(2, 2))
        mac = MACSlice(w, bias=0.5)
        vals = rng.normal(size=(2, 2))
        for i in range(2):
            for j in range(2):
                mac.issue(vals[i, j], i, j)
        out = mac.finish_output(pool=2)
        expected = max((w * vals).sum() / 4 + 0.5, 0.0)
        assert out == pytest.approx(expected)

    def test_finish_requires_full_window(self, rng):
        mac = MACSlice(rng.normal(size=(2, 2)))
        mac.issue(1.0, 0, 0)
        with pytest.raises(RuntimeError):
            mac.finish_output()

    def test_rejects_non_square_weights(self, rng):
        with pytest.raises(ValueError):
            MACSlice(rng.normal(size=(2, 3)))

    def test_relu_applied(self, rng):
        mac = MACSlice(np.ones((1, 1)), bias=-100.0)
        mac.issue(1.0, 0, 0)
        assert mac.finish_output() == 0.0


class TestRTLFusedConvPool:
    def test_each_input_read_once(self, rng):
        """The stream feeds every vertical pair exactly once: 2 reads per
        (row-pair, column)."""
        img = rng.normal(size=(10, 10))
        report = RTLFusedConvPool(rng.normal(size=(3, 3))).run(img)
        assert report.input_reads == 2 * 9 * 10

    def test_ha_fa_counts_match_counted_kernel(self, rng):
        """The RTL stream computes each half/full addition once.  With
        dimensions where the windows touch the whole I_Acc plane
        (h=12, k=3: conv output 10, pooled 5), the totals equal the
        instrumented kernel's under full LAR+GAR."""
        img = rng.normal(size=(12, 12))
        w = rng.normal(size=(3, 3))
        report = RTLFusedConvPool(w).run(img)
        _, counter = fused_conv_pool_counted(
            img[None], w[None, None], None, use_lar=True, use_gar_row=True, use_gar_col=True
        )
        assert report.ar_stats.half_additions == counter.half_additions
        assert report.ar_stats.full_additions == counter.full_additions
        assert report.mac_stats.multiplications == counter.mults

    def test_rtl_never_computes_fewer_small_adds(self, rng):
        """When the pooled grid leaves I_Acc rows unused, the streaming
        RTL still builds the whole plane — never fewer additions than
        the demand-driven counted kernel."""
        img = rng.normal(size=(11, 11))
        w = rng.normal(size=(3, 3))
        report = RTLFusedConvPool(w).run(img)
        _, counter = fused_conv_pool_counted(img[None], w[None, None], None)
        assert report.ar_stats.half_additions >= counter.half_additions
        assert report.ar_stats.full_additions >= counter.full_additions
        assert report.mac_stats.multiplications == counter.mults

    def test_fifo_within_declared_depth(self, rng):
        img = rng.normal(size=(12, 12))
        report = RTLFusedConvPool(rng.normal(size=(3, 3))).run(img)
        assert report.fifo_high_water <= 12 + 3

    def test_cycle_count_dominated_by_macs(self, rng):
        """Cycles >= multiplications (one issue per cycle) and >= stream
        length."""
        img = rng.normal(size=(10, 10))
        report = RTLFusedConvPool(rng.normal(size=(3, 3))).run(img)
        assert report.cycles >= report.mac_stats.multiplications
        assert report.cycles >= 9 * 10

    def test_rejects_multichannel(self, rng):
        with pytest.raises(ValueError):
            RTLFusedConvPool(rng.normal(size=(3, 3))).run(rng.normal(size=(2, 8, 8)))

    def test_rejects_non_2x2_pool(self, rng):
        with pytest.raises(ValueError):
            RTLFusedConvPool(rng.normal(size=(3, 3))).run(rng.normal(size=(8, 8)), pool=3)

    def test_rejects_too_small_input(self, rng):
        with pytest.raises(ValueError):
            RTLFusedConvPool(rng.normal(size=(5, 5))).run(rng.normal(size=(5, 5)))

    @pytest.mark.parametrize("shape", [(8, 12), (12, 8)], ids=["wide", "tall"])
    def test_rejects_non_square_input(self, rng, shape):
        """The output is sized from H alone: a wide input would lose
        columns, a tall one would fail deep in the loop."""
        with pytest.raises(ValueError, match=r"square input \(H == W\)"):
            RTLFusedConvPool(rng.normal(size=(3, 3))).run(rng.normal(size=shape))


class TestTrace:
    def test_trace_disabled_by_default(self, rng):
        report = RTLFusedConvPool(rng.normal(size=(3, 3))).run(rng.normal(size=(9, 9)))
        assert report.trace is None

    def test_trace_event_counts(self, rng):
        report = RTLFusedConvPool(rng.normal(size=(3, 3))).run(
            rng.normal(size=(9, 9)), record_trace=True
        )
        kinds = {}
        for e in report.trace:
            kinds[e.action] = kinds.get(e.action, 0) + 1
        assert kinds["ha"] == report.ar_stats.half_additions
        assert kinds["fa"] == report.ar_stats.full_additions
        assert kinds["issue"] == report.mac_stats.multiplications
        assert kinds["output"] == report.outputs.size

    def test_trace_cycles_monotone(self, rng):
        report = RTLFusedConvPool(rng.normal(size=(2, 2))).run(
            rng.normal(size=(8, 8)), record_trace=True
        )
        cycles = [e.cycle for e in report.trace]
        assert all(a <= b for a, b in zip(cycles, cycles[1:]))
        assert cycles[-1] <= report.cycles

    def test_trace_output_values_match(self, rng):
        report = RTLFusedConvPool(rng.normal(size=(3, 3)), bias=0.1).run(
            rng.normal(size=(10, 10)), record_trace=True
        )
        traced = [e.value for e in report.trace if e.action == "output"]
        np.testing.assert_allclose(traced, report.outputs.ravel())

    def test_trace_format(self, rng):
        report = RTLFusedConvPool(rng.normal(size=(2, 2))).run(
            rng.normal(size=(6, 6)), record_trace=True
        )
        line = report.trace[0].format()
        assert line.startswith("@") and "ar" in line


class TestRTLFusedConvPoolLayer:
    @pytest.fixture
    def rng(self):
        return np.random.default_rng(9)

    def test_parallel_cycles_scale_with_slices(self, rng):
        x = rng.normal(size=(4, 10, 10))
        w = rng.normal(size=(4, 4, 3, 3))
        serial = RTLFusedConvPoolLayer(w, mac_slices=1).run(x)
        par = RTLFusedConvPoolLayer(w, mac_slices=16).run(x)
        assert par.cycles_parallel == pytest.approx(serial.cycles_parallel / 16, rel=0.05)
        np.testing.assert_allclose(par.outputs, serial.outputs)

    def test_op_counts_scale_with_channels(self, rng):
        x1 = rng.normal(size=(1, 9, 9))
        x2 = rng.normal(size=(2, 9, 9))
        w1 = rng.normal(size=(1, 1, 3, 3))
        w2 = rng.normal(size=(1, 2, 3, 3))
        r1 = RTLFusedConvPoolLayer(w1).run(x1)
        r2 = RTLFusedConvPoolLayer(w2).run(x2)
        assert r2.multiplications == 2 * r1.multiplications
        assert r2.half_additions == 2 * r1.half_additions

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RTLFusedConvPoolLayer(rng.normal(size=(2, 2, 3, 4)))
        with pytest.raises(ValueError):
            RTLFusedConvPoolLayer(rng.normal(size=(2, 2, 3, 3)), mac_slices=0)
        with pytest.raises(ValueError):
            RTLFusedConvPoolLayer(rng.normal(size=(2, 2, 3, 3)), bias=np.zeros(3))
        layer = RTLFusedConvPoolLayer(rng.normal(size=(2, 2, 3, 3)))
        with pytest.raises(ValueError):
            layer.run(rng.normal(size=(3, 8, 8)))  # channel mismatch
        with pytest.raises(ValueError, match="too small"):
            layer.run(rng.normal(size=(2, 1, 1)))
