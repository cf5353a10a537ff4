"""The lowering kernels: box-sum formulations, vectorized-vs-reference
equivalence across shape classes, int-path bit-exactness.

Satellite coverage for the lowering backend:

* the prefix-sum ``box_sum`` against the naive windowed version for
  non-square inputs and ``p`` not dividing the spatial size;
* the equivalence property suite — vectorized vs reference kernels
  agree to 1e-6 (float64) and bit-exactly (int path, counters
  included) across a randomized grid of ``(k, p, stride, bits,
  channels)``;
* the square-only executors reject non-square inputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.fixedpoint import (
    IntPathStats,
    fused_conv_pool_fp16,
    fused_conv_pool_int,
    quantize_tensor,
)
from repro.core.fusion import (
    box_sum,
    dense_conv_pool_counted,
    fused_conv_pool,
    fused_conv_pool_counted,
)
from repro.core.kernels import (
    F32NHWCKernel,
    box_sum_cumsum,
    box_sum_windows,
    fused_backward,
    fused_forward,
)
from repro.models.specs import LayerSpec
from repro.core.opcount import dcnn_layer_ops, mlcnn_layer_ops
from repro.nn.tensor import Tensor, no_grad
from repro.obs import collect_counters


@pytest.fixture
def rng():
    return np.random.default_rng(11)


# ---------------------------------------------------------------------------
# box sum: prefix-sum vs windowed reference (satellite 1)
# ---------------------------------------------------------------------------


class TestBoxSumFormulations:
    @pytest.mark.parametrize(
        "shape,p",
        [
            ((5, 9), 2),  # non-square
            ((9, 5), 3),  # non-square, p does not divide either dim
            ((2, 3, 7, 11), 4),  # batched leading axes, p ∤ size
            ((1, 13, 6), 5),
            ((6, 6), 6),  # box exactly covers the plane
        ],
    )
    def test_matches_windowed_reference(self, rng, shape, p):
        x = rng.normal(size=shape)
        np.testing.assert_allclose(
            box_sum_cumsum(x, p), box_sum_windows(x, p), atol=1e-9
        )

    def test_integer_inputs_are_exact(self, rng):
        x = rng.integers(-1000, 1000, size=(3, 17, 10)).astype(np.int64)
        out = box_sum_cumsum(x, 3)
        assert out.dtype == np.int64
        assert np.array_equal(out, box_sum_windows(x, 3))

    def test_p1_identity_and_validation(self, rng):
        x = rng.normal(size=(4, 4))
        assert box_sum_cumsum(x, 1) is x
        with pytest.raises(ValueError):
            box_sum_cumsum(x, 0)
        with pytest.raises(ValueError):
            box_sum_cumsum(x, 5)

    def test_fusion_box_sum_is_the_cumsum_formulation(self, rng):
        """core.fusion.box_sum delegates to the prefix-sum kernel."""
        x = rng.normal(size=(2, 8, 12))
        np.testing.assert_array_equal(box_sum(x, 3), box_sum_cumsum(x, 3))

    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        p=st.integers(1, 6),
        batch=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    def test_property_equivalence(self, h, w, p, batch, seed):
        g = np.random.default_rng(seed)
        shape = (2,) * batch + (h, w)
        x = g.normal(size=shape)
        if p > 1 and (h < p or w < p):
            with pytest.raises(ValueError):
                box_sum_cumsum(x, p)
            return
        np.testing.assert_allclose(
            box_sum_cumsum(x, p), box_sum_windows(x, p), atol=1e-9
        )


# ---------------------------------------------------------------------------
# float equivalence grid: vectorized vs reference (satellite 3)
# ---------------------------------------------------------------------------


def _reference_out(x, w, b, pool, padding=0, activation="relu"):
    with no_grad():
        return fused_conv_pool(
            Tensor(x), Tensor(w), None if b is None else Tensor(b),
            pool=pool, padding=padding, activation=activation, impl="reference",
        ).data


class TestFloatEquivalenceGrid:
    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 4),
        p=st.sampled_from([2, 3]),
        cin=st.integers(1, 4),
        cout=st.integers(1, 4),
        pad=st.integers(0, 2),
        extra=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_f64_agrees_to_1e6(self, k, p, cin, cout, pad, extra, seed):
        """The ISSUE bar: float kernels agree to 1e-6 across the
        randomized (k, p, stride=p, bits=64, channels) grid."""
        g = np.random.default_rng(seed)
        h = k + p + extra
        x = g.normal(size=(2, cin, h, h))
        w = g.normal(size=(cout, cin, k, k))
        b = g.normal(size=cout)
        out, _ = fused_forward(x, w, b, pool=p, padding=pad)
        np.testing.assert_allclose(out, _reference_out(x, w, b, p, pad), atol=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(
        k=st.integers(1, 3),
        p=st.sampled_from([1, 2, 3]),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        extra_pad=st.integers(0, 1),
        cin=st.integers(1, 3),
        cout=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @example(k=1, p=2, h=1, w=6, extra_pad=0, cin=1, cout=4, seed=0)
    @example(k=3, p=1, h=6, w=4, extra_pad=0, cin=3, cout=2, seed=1)  # pool 1, no padding
    @example(k=3, p=1, h=2, w=5, extra_pad=1, cin=2, cout=3, seed=2)  # pool 1, padding 2
    def test_f32_nhwc_within_single_precision(self, k, p, h, w, extra_pad, cin, cout, seed):
        """The fp32 specialization tracks the f64 reference within its
        documented single-precision bound (not 1e-6 — that is why the
        lowering pass declares it non-semantics-preserving), on
        non-square inputs down to 1 pixel padded to at least one
        pooled output.  ``p = 1`` is the plain stride-1 convolution,
        gathered straight from the input when unpadded."""
        g = np.random.default_rng(seed)
        pad = max(0, -(-(k + p - 1 - min(h, w)) // 2)) + extra_pad
        x = g.normal(size=(2, cin, h, w))
        wt = g.normal(size=(cout, cin, k, k))
        b = g.normal(size=cout)
        out = F32NHWCKernel(p).run_nchw(x, wt, b, padding=pad)
        np.testing.assert_allclose(out, _reference_out(x, wt, b, p, pad), atol=1e-3)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh", "none"])
    def test_activations_match_reference(self, rng, activation):
        x = rng.normal(size=(2, 3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, _ = fused_forward(x, w, b, pool=2, padding=1, activation=activation)
        ref = _reference_out(x, w, b, 2, 1, activation)
        np.testing.assert_allclose(out, ref, atol=1e-10)
        kern = F32NHWCKernel(2)
        out32 = kern.run_nchw(x, w, b, padding=1, activation=activation)
        np.testing.assert_allclose(out32, ref, atol=1e-3)

    def test_nhwc_plan_reuse_is_consistent(self, rng):
        """Repeated calls through the cached plan stay bit-identical."""
        x = rng.normal(size=(2, 3, 10, 10))
        w = rng.normal(size=(4, 3, 3, 3))
        kern = F32NHWCKernel(2)
        first = kern.run_nchw(x, w, None, padding=1)
        second = kern.run_nchw(x, w, None, padding=1)
        assert len(kern._plans) == 1
        np.testing.assert_array_equal(first, second)

    def test_pool3_general_path(self, rng):
        x = rng.normal(size=(1, 2, 15, 15))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        kern = F32NHWCKernel(3)
        out = kern.run_nchw(x, w, b, padding=2)
        np.testing.assert_allclose(out, _reference_out(x, w, b, 3, 2), atol=1e-3)


class TestBackwardEquivalence:
    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh", "none"])
    def test_gradients_match_reference_composition(self, rng, activation):
        x = rng.normal(size=(2, 3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        grads = {}
        for impl in ("vectorized", "reference"):
            xt = Tensor(x, requires_grad=True)
            wt = Tensor(w, requires_grad=True)
            bt = Tensor(b, requires_grad=True)
            out = fused_conv_pool(
                xt, wt, bt, pool=2, padding=1, activation=activation, impl=impl
            )
            (out ** 2).sum().backward()
            grads[impl] = (xt.grad, wt.grad, bt.grad)
        for gv, gr in zip(grads["vectorized"], grads["reference"]):
            np.testing.assert_allclose(gv, gr, atol=1e-8)

    def test_fused_backward_rejects_nothing_without_bias(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(2, 2, 3, 3))
        out, res = fused_forward(x, w, None, pool=2)
        gx, gw, gb = fused_backward(np.ones_like(out), res)
        assert gx.shape == x.shape and gw.shape == w.shape and gb.shape == (2,)


class TestVectorizedCounters:
    def test_f32_kernel_reports_rme(self, rng):
        """The fp32 kernel reports the analytic RME tallies."""
        spec = LayerSpec("v", in_channels=3, out_channels=4, input_size=12, kernel=3, pool=2)
        x = rng.normal(size=(2, 3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        ml, dc = mlcnn_layer_ops(spec), dcnn_layer_ops(spec)
        with collect_counters() as oc:
            F32NHWCKernel(2).run_nchw(x, w, None)
        assert oc.mults == 2 * ml.multiplications
        assert oc.mults_eliminated == 2 * (dc.multiplications - ml.multiplications)


# ---------------------------------------------------------------------------
# int path: bit-exact, counters included (satellite 3)
# ---------------------------------------------------------------------------


class TestIntPathBitExact:
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 4),
        p=st.sampled_from([2, 3]),
        c=st.integers(1, 4),
        m=st.integers(1, 4),
        bits=st.sampled_from([4, 8, 16]),
        acc_bits=st.sampled_from([12, 16, 32]),
        out_bits=st.sampled_from([0, 8]),
        seed=st.integers(0, 2**16),
    )
    def test_vectorized_equals_reference_bitwise(
        self, k, p, c, m, bits, acc_bits, out_bits, seed
    ):
        """Across the (k, p, bits, channels) grid the two accumulation
        schedules produce identical outputs AND identical saturation
        counters (overflows, requant clipping, max accumulator)."""
        g = np.random.default_rng(seed)
        h = k + 2 * p + int(g.integers(0, 4))
        xq = quantize_tensor(g.normal(size=(c, h, h)), bits)
        wq = quantize_tensor(g.normal(size=(m, c, k, k)), bits)
        b = g.normal(size=m)
        results, stats = [], []
        for impl in ("vectorized", "reference"):
            s = IntPathStats()
            out = fused_conv_pool_int(
                xq, wq, b, pool=p, acc_bits=acc_bits, out_bits=out_bits,
                stats=s, impl=impl,
            )
            results.append(out)
            stats.append(s)
        assert np.array_equal(results[0], results[1])
        a, b_ = stats
        assert (a.acc_max_abs, a.acc_overflows, a.acc_total) == (
            b_.acc_max_abs, b_.acc_overflows, b_.acc_total
        )
        assert (a.requant_clipped, a.requant_total) == (
            b_.requant_clipped, b_.requant_total
        )

    def test_bad_impl_rejected(self, rng):
        xq = quantize_tensor(rng.normal(size=(1, 8, 8)), 8)
        wq = quantize_tensor(rng.normal(size=(1, 1, 3, 3)), 8)
        with pytest.raises(ValueError):
            fused_conv_pool_int(xq, wq, impl="fast")


# ---------------------------------------------------------------------------
# square-only executors
# ---------------------------------------------------------------------------


def _int_path(x, w):
    return fused_conv_pool_int(quantize_tensor(x, 8), quantize_tensor(w, 8))


def _int_path_reference(x, w):
    return fused_conv_pool_int(quantize_tensor(x, 8), quantize_tensor(w, 8), impl="reference")


@pytest.mark.parametrize("shape", [(2, 8, 12), (2, 12, 8)], ids=["wide", "tall"])
@pytest.mark.parametrize(
    "executor",
    [
        _int_path,
        _int_path_reference,
        fused_conv_pool_fp16,
        fused_conv_pool_counted,
        dense_conv_pool_counted,
    ],
    ids=["int-vectorized", "int-reference", "fp16", "fused-counted", "dense-counted"],
)
def test_square_only_executors_reject_non_square_input(rng, executor, shape):
    """These size their output from H alone: a wide input would lose
    columns, a tall one would fail deep in the loop."""
    x = rng.normal(size=shape)
    w = rng.normal(size=(3, 2, 3, 3))
    with pytest.raises(ValueError, match=r"square input \(H == W\)"):
        executor(x, w)
