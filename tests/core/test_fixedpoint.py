"""Integer (fixed-point) fused kernel: INT8 datapath numerics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fixedpoint import (
    IntPathStats,
    QuantizedTensor,
    accumulator_bound,
    fused_conv_pool_int,
    int_path_error_bound,
    quantization_error_bound,
    quantize_tensor,
)
from repro.core.fusion import fused_conv_pool
from repro.nn.tensor import Tensor, no_grad
from repro.obs.numerics import NumericsCollector


@pytest.fixture
def rng():
    return np.random.default_rng(41)


class TestQuantizeTensor:
    def test_roundtrip_error_bounded(self, rng):
        x = rng.normal(size=(4, 8, 8))
        qt = quantize_tensor(x, bits=8)
        err = np.abs(qt.dequantize() - x).max()
        assert err <= quantization_error_bound(qt) + 1e-12

    def test_values_in_range(self, rng):
        qt = quantize_tensor(rng.normal(size=100) * 50, bits=8)
        assert np.abs(qt.values).max() <= 127

    def test_dtype_by_bits(self, rng):
        x = rng.normal(size=10)
        assert quantize_tensor(x, 8).values.dtype == np.int8
        assert quantize_tensor(x, 16).values.dtype == np.int16

    def test_zero_tensor(self):
        qt = quantize_tensor(np.zeros(5), bits=8)
        assert (qt.values == 0).all()
        assert qt.scale == 1.0

    def test_more_bits_less_error(self, rng):
        x = rng.normal(size=1000)
        e8 = np.abs(quantize_tensor(x, 8).dequantize() - x).max()
        e16 = np.abs(quantize_tensor(x, 16).dequantize() - x).max()
        assert e16 < e8

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            QuantizedTensor(np.array([200], dtype=np.int16), 1.0, 8)
        with pytest.raises(ValueError):
            QuantizedTensor(np.array([1], dtype=np.int8), -1.0, 8)
        with pytest.raises(ValueError):
            QuantizedTensor(np.array([1], dtype=np.int8), 1.0, 1)


class TestClippingSurfaced:
    """Satellite fix: symmetric-range clipping is counted and enters the
    error bound instead of being silently wrapped into it (same pattern
    as the PR 4 opcount cross-check: measured counter vs analytic
    prediction)."""

    def test_self_calibrated_never_clips(self, rng):
        qt = quantize_tensor(rng.normal(size=1000), bits=8)
        assert qt.clipped == 0
        assert qt.clip_excess == 0.0
        assert quantization_error_bound(qt) == 0.5 * qt.scale

    def test_calibrated_amax_counts_exact_clips(self, rng):
        """The measured clip counter equals the analytic count of values
        whose rounded magnitude exceeds qmax."""
        x = rng.normal(size=1000)
        amax = 1.0
        qt = quantize_tensor(x, bits=8, amax=amax)
        scale = amax / 127
        expected = int(np.count_nonzero(np.abs(np.round(x / scale)) > 127))
        assert qt.clipped == expected
        assert qt.clipped > 0  # normal samples do exceed |1| at n=1000
        assert qt.clip_excess == pytest.approx(np.abs(x).max() - amax)

    def test_error_bounded_by_widened_bound_only(self, rng):
        """Roundtrip error respects the clip-aware bound and *violates*
        the old rounding-only bound — proof the fix was needed."""
        x = rng.normal(size=1000)
        x[0] = 6.0  # guaranteed far outside the calibrated range
        qt = quantize_tensor(x, bits=8, amax=1.0)
        err = np.abs(qt.dequantize() - x).max()
        assert err <= quantization_error_bound(qt) + 1e-12
        assert err > 0.5 * qt.scale  # the old bound is insufficient

    def test_generous_amax_matches_self_calibration(self, rng):
        x = rng.normal(size=100)
        amax = float(np.abs(x).max())
        qt = quantize_tensor(x, bits=8, amax=amax)
        assert qt.clipped == 0
        np.testing.assert_array_equal(
            qt.values, quantize_tensor(x, bits=8).values
        )

    def test_invalid_amax_rejected(self, rng):
        with pytest.raises(ValueError):
            quantize_tensor(rng.normal(size=10), bits=8, amax=0.0)
        with pytest.raises(ValueError):
            quantize_tensor(rng.normal(size=10), bits=8, amax=-1.0)

    def test_clip_events_reach_enabled_collector(self, rng):
        x = rng.normal(size=1000)
        col = NumericsCollector()
        with col:
            qt = quantize_tensor(x, bits=8, amax=0.5)
        assert qt.clipped > 0
        counter = col.quant["fixedpoint.quantize"]
        assert counter.clipped == qt.clipped
        assert counter.total == x.size


class TestAccumulatorAndRequant:
    def test_acc_max_within_analytic_bound(self, rng):
        x = rng.normal(size=(3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        qx, qw = quantize_tensor(x, 8), quantize_tensor(w, 8)
        stats = IntPathStats()
        fused_conv_pool_int(qx, qw, stats=stats)
        assert 0 < stats.acc_max_abs <= accumulator_bound(qx, qw, pool=2)
        assert stats.acc_overflows == 0  # 32-bit accumulators are ample here
        assert stats.acc_total > 0

    def test_adversarial_full_scale_reaches_bound_exactly(self):
        """All-ones-at-qmax tensors drive every accumulator to exactly
        the analytic bound — the measured/analytic cross-check is tight."""
        pool, k, c, m = 2, 3, 2, 1
        h = k + pool * 2 - 1  # two pooled outputs per side
        qx = QuantizedTensor(np.full((c, h, h), 127, dtype=np.int8), 0.01, 8)
        qw = QuantizedTensor(np.full((m, c, k, k), 127, dtype=np.int8), 0.01, 8)
        stats = IntPathStats()
        fused_conv_pool_int(qx, qw, stats=stats)
        assert stats.acc_max_abs == accumulator_bound(qx, qw, pool=pool)

    def test_narrow_accumulator_counts_overflows(self, rng):
        """With a deliberately narrow nominal accumulator, the would-be
        overflow counter fires (arithmetic stays exact in int64)."""
        x = rng.normal(size=(3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        qx, qw = quantize_tensor(x, 8), quantize_tensor(w, 8)
        stats = IntPathStats()
        out = fused_conv_pool_int(qx, qw, acc_bits=8, stats=stats)
        assert stats.acc_bits == 8
        assert stats.acc_overflows > 0
        assert stats.overflow_rate <= 1.0
        # the result itself is unchanged by the nominal width
        np.testing.assert_array_equal(out, fused_conv_pool_int(qx, qw))

    def test_requantization_clipping_counted(self, rng):
        x = rng.normal(size=(3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        qx, qw = quantize_tensor(x, 8), quantize_tensor(w, 8)
        ref = fused_conv_pool_int(qx, qw)
        # calibrated output range at half the actual max: must clip
        stats = IntPathStats()
        out = fused_conv_pool_int(
            qx, qw, out_bits=8, out_amax=float(ref.max()) / 2, stats=stats
        )
        assert stats.requant_clipped > 0
        assert stats.requant_total == ref.size
        assert out.max() <= float(ref.max()) / 2 + 1e-9
        # self-calibrated requantization does not clip
        stats2 = IntPathStats()
        fused_conv_pool_int(qx, qw, out_bits=8, stats=stats2)
        assert stats2.requant_clipped == 0

    def test_counters_reach_enabled_collector(self, rng):
        x = rng.normal(size=(3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        qx, qw = quantize_tensor(x, 8), quantize_tensor(w, 8)
        col = NumericsCollector()
        with col:
            fused_conv_pool_int(qx, qw, acc_bits=8, out_bits=4)
        assert "fixedpoint.acc_overflow" in col.quant
        assert "fixedpoint.requant_clip" in col.quant
        assert col.quant["fixedpoint.acc_overflow"].clipped > 0

    def test_int_path_bound_still_holds_with_stats(self, rng):
        """Collecting stats must not perturb the arithmetic: the
        measured error stays within int_path_error_bound."""
        x = rng.normal(size=(3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3)) * 0.5
        qx, qw = quantize_tensor(x, 8), quantize_tensor(w, 8)
        got = fused_conv_pool_int(qx, qw, stats=IntPathStats())
        with no_grad():
            ref = fused_conv_pool(Tensor(x[None]), Tensor(w), None, pool=2).data[0]
        assert np.abs(got - ref).max() <= int_path_error_bound(qx, qw)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"bits": 1}, r"bits must be in \[2, 32\], got 1"),
        ({"bits": 33}, r"bits must be in \[2, 32\], got 33"),
        ({"out_bits": 1}, r"out_bits must be 0 \(no requantization\) or in \[2, 32\], got 1"),
        ({"out_bits": -3}, r"out_bits must be 0 \(no requantization\) or in \[2, 32\], got -3"),
        ({"out_bits": 33}, r"out_bits must be 0 \(no requantization\) or in \[2, 32\], got 33"),
        ({"out_bits": 8, "out_amax": -1.0}, r"out_amax must be positive, got -1.0"),
        ({"out_bits": 8, "out_amax": 0.0}, r"out_amax must be positive, got 0.0"),
        ({"acc_bits": 0}, r"acc_bits must be >= 2, got 0"),
        ({"acc_bits": 1}, r"acc_bits must be >= 2, got 1"),
    ],
    ids=["bits-1", "bits-33", "out_bits-1", "out_bits-neg", "out_bits-33",
         "out_amax-neg", "out_amax-0", "acc_bits-0", "acc_bits-1"],
)
def test_fixed_point_widths_and_ranges_rejected_at_entry(rng, kwargs, match):
    """A width or range outside the valid set raises instead of dividing
    by zero or silently saturating every output."""
    x = rng.normal(size=(2, 8, 8))
    w = rng.normal(size=(3, 2, 3, 3))
    with pytest.raises(ValueError, match=match):
        if "bits" in kwargs:
            quantize_tensor(x, **kwargs)
        else:
            fused_conv_pool_int(quantize_tensor(x, 8), quantize_tensor(w, 8), **kwargs)


class TestIntFusedKernel:
    def _float_ref(self, x, w, b, pool=2):
        with no_grad():
            return fused_conv_pool(
                Tensor(x[None]), Tensor(w), Tensor(b) if b is not None else None, pool=pool
            ).data[0]

    def test_tracks_float_path_within_bound(self, rng):
        x = rng.normal(size=(3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3)) * 0.5
        b = rng.normal(size=4) * 0.1
        qx, qw = quantize_tensor(x, 8), quantize_tensor(w, 8)
        got = fused_conv_pool_int(qx, qw, b)
        ref = self._float_ref(x, w, b)
        bound = int_path_error_bound(qx, qw)
        assert np.abs(got - ref).max() <= bound

    def test_exact_when_inputs_are_grid_points(self, rng):
        """Integers scaled by the quantization step reproduce exactly —
        the integer path is exact arithmetic."""
        xi = rng.integers(-127, 128, size=(2, 10, 10))
        wi = rng.integers(-127, 128, size=(3, 2, 3, 3))
        qx = QuantizedTensor(xi.astype(np.int8), 0.01, 8)
        qw = QuantizedTensor(wi.astype(np.int8), 0.02, 8)
        got = fused_conv_pool_int(qx, qw, None)
        ref = self._float_ref(qx.dequantize(), qw.dequantize(), None)
        np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_16_bit_closer_than_8_bit(self, rng):
        x = rng.normal(size=(2, 12, 12))
        w = rng.normal(size=(2, 2, 3, 3))
        ref = self._float_ref(x, w, None)
        e8 = np.abs(fused_conv_pool_int(quantize_tensor(x, 8), quantize_tensor(w, 8)) - ref).max()
        e16 = np.abs(fused_conv_pool_int(quantize_tensor(x, 16), quantize_tensor(w, 16)) - ref).max()
        assert e16 < e8

    def test_relu_optional(self, rng):
        x = rng.normal(size=(1, 8, 8))
        w = rng.normal(size=(1, 1, 3, 3))
        raw = fused_conv_pool_int(quantize_tensor(x), quantize_tensor(w), apply_relu=False)
        act = fused_conv_pool_int(quantize_tensor(x), quantize_tensor(w), apply_relu=True)
        np.testing.assert_allclose(act, np.maximum(raw, 0.0))

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            fused_conv_pool_int(
                quantize_tensor(rng.normal(size=(2, 8, 8))),
                quantize_tensor(rng.normal(size=(1, 3, 3, 3))),
            )

    def test_too_small_input_raises(self, rng):
        with pytest.raises(ValueError):
            fused_conv_pool_int(
                quantize_tensor(rng.normal(size=(1, 3, 3))),
                quantize_tensor(rng.normal(size=(1, 1, 3, 3))),
            )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(1, 3), st.integers(1, 3), st.sampled_from([2, 3]))
    def test_property_bound_holds(self, seed, cin, cout, k):
        g = np.random.default_rng(seed)
        h = k + 5
        x = g.normal(size=(cin, h, h))
        w = g.normal(size=(cout, cin, k, k))
        qx, qw = quantize_tensor(x, 8), quantize_tensor(w, 8)
        got = fused_conv_pool_int(qx, qw, None, pool=2)
        ref = self._float_ref(x, w, None, pool=2)
        assert np.abs(got - ref).max() <= int_path_error_bound(qx, qw, pool=2)


class TestImplBitExactness:
    """The vectorized int lowering must be indistinguishable from the
    per-tap reference loop — outputs and saturation stats bitwise."""

    def _both(self, qx, qw, b=None, **kw):
        outs, stats = [], []
        for impl in ("vectorized", "reference"):
            s = IntPathStats()
            outs.append(fused_conv_pool_int(qx, qw, b, stats=s, impl=impl, **kw))
            stats.append(s)
        return outs, stats

    def test_outputs_and_stats_identical(self, rng):
        qx = quantize_tensor(rng.normal(size=(3, 14, 14)), 8)
        qw = quantize_tensor(rng.normal(size=(5, 3, 3, 3)), 8)
        (a, b), (sa, sb) = self._both(qx, qw, rng.normal(size=5), acc_bits=16, out_bits=8)
        assert np.array_equal(a, b)
        assert (sa.acc_max_abs, sa.acc_overflows, sa.acc_total) == (
            sb.acc_max_abs, sb.acc_overflows, sb.acc_total
        )
        assert (sa.requant_clipped, sa.requant_total) == (
            sb.requant_clipped, sb.requant_total
        )

    def test_identical_under_saturation_pressure(self, rng):
        """Tight accumulator: overflow/clip counters must still agree."""
        qx = quantize_tensor(rng.normal(size=(4, 12, 12)) * 30, 8)
        qw = quantize_tensor(rng.normal(size=(4, 4, 3, 3)) * 30, 8)
        (a, b), (sa, sb) = self._both(qx, qw, acc_bits=10, out_bits=4, pool=3)
        assert sa.acc_overflows > 0  # the pressure actually bit
        assert np.array_equal(a, b)
        assert sa.acc_overflows == sb.acc_overflows
        assert sa.requant_clipped == sb.requant_clipped

    def test_default_impl_is_vectorized(self, rng):
        qx = quantize_tensor(rng.normal(size=(2, 10, 10)), 8)
        qw = quantize_tensor(rng.normal(size=(2, 2, 3, 3)), 8)
        default = fused_conv_pool_int(qx, qw)
        explicit = fused_conv_pool_int(qx, qw, impl="vectorized")
        assert np.array_equal(default, explicit)
