"""RTL micro-simulator: datapath equivalence and structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accel.rtl import ARUnit, Fifo, MACSlice, RTLFusedConvPool, ShiftRegister
from repro.core.fusion import fused_conv_pool, fused_conv_pool_counted
from repro.nn.tensor import Tensor, no_grad


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
    @pytest.mark.parametrize("h,k", [(8, 2), (9, 3), (12, 3), (13, 5), (16, 4)])
    def test_matches_vectorized_kernel(self, rng, h, k):
        img = rng.normal(size=(h, h))
        w = rng.normal(size=(k, k))
        b = float(rng.normal())
        report = RTLFusedConvPool(w, b).run(img)
        with no_grad():
            ref = fused_conv_pool(
                Tensor(img[None, None]), Tensor(w[None, None]), Tensor(np.array([b])), pool=2
            ).data[0, 0]
        np.testing.assert_allclose(report.outputs, ref, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(h=st.integers(6, 14), k=st.integers(2, 4), seed=st.integers(0, 10_000))
    def test_property_equivalence(self, h, k, seed):
        if h < k + 2:
            return
        g = np.random.default_rng(seed)
        img = g.normal(size=(h, h))
        w = g.normal(size=(k, k))
        report = RTLFusedConvPool(w, 0.0).run(img)
        with no_grad():
            ref = fused_conv_pool(
                Tensor(img[None, None]), Tensor(w[None, None]), None, pool=2
            ).data[0, 0]
        np.testing.assert_allclose(report.outputs, ref, atol=1e-9)

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
