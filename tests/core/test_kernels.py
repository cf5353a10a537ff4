"""The lowering kernels' own behaviour.

Whether each kernel computes the fused operator is checked over one
shared grid by ``tests/core/test_oracle.py``.  This file covers:

* the separable ``box_sum`` against the naive windowed version for
  non-square inputs and ``p`` not dividing the spatial size, exact on
  integers and accurate on a large float32 plane;
* the fp32 kernel's workspaces: one per layer geometry, grown to the
  largest batch it has run, with the invariants its batch-prefix views
  rely on, and one workspace per lowered layer of compiled lenet5 after
  batch sizes 1 to 16; and bit-identical outputs from a channels-last
  view and its NCHW copy;
* the fp32 kernel's row-major and weight-major GEMMs, over both fold
  layouts, against the oracle's golden at 1-32 patch rows on a fold
  above the floor, and the orientation its rule picks for every lowered
  layer of full-width vgg16 (batch 1 and 16) and lenet5 (batch 1 to 16);
* the fused backward's masked branch (an input that needs no gradient)
  and its batch-innermost input-gradient scatter, bit for bit against
  the batch-outer one.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import build_model, mlcnn_pipeline
from repro.compiler import lowered_kernels
from repro.core import kernels
from repro.core.fusion import box_sum, fused_conv_pool
from repro.core.kernels import (
    F32NHWCKernel,
    box_sum_windows,
    fused_backward,
    fused_forward,
)
from repro.core.kernels import nhwc
from repro.nn.tensor import Tensor, no_grad
from tests.core.test_oracle import golden


@pytest.fixture
def rng():
    return np.random.default_rng(11)


# ---------------------------------------------------------------------------
# box sum: separable vs windowed reference
# ---------------------------------------------------------------------------


class TestBoxSumFormulations:
    def test_2x2_values(self):
        x = np.arange(9.0).reshape(3, 3)
        np.testing.assert_allclose(box_sum(x, 2), [[8, 12], [20, 24]])

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
        np.testing.assert_allclose(box_sum(x, p), box_sum_windows(x, p), atol=1e-9)

    def test_integer_inputs_are_exact(self, rng):
        x = rng.integers(-1000, 1000, size=(3, 17, 10)).astype(np.int64)
        out = box_sum(x, 3)
        assert out.dtype == np.int64
        assert np.array_equal(out, box_sum_windows(x, 3))
        pixels = rng.integers(0, 256, size=(17, 10)).astype(np.uint8)
        out = box_sum(pixels, 3)  # 9 * 255 wraps a uint8 unless widened
        ref = box_sum_windows(pixels, 3)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)

    def test_p1_identity_and_validation(self, rng):
        x = rng.normal(size=(4, 4))
        assert box_sum(x, 1) is x
        with pytest.raises(ValueError):
            box_sum(x, 0)
        with pytest.raises(ValueError):
            box_sum(x, 5)

    def test_fusion_box_sum_is_the_kernel_box_sum(self):
        """core.fusion.box_sum is the lowered kernel, not a second formulation."""
        assert box_sum is kernels.box_sum

    def test_float32_large_plane_keeps_single_precision(self, rng):
        """No subtraction, so no cancellation: every output keeps float32
        accuracy whatever the plane size."""
        x = np.abs(rng.normal(size=(3, 224, 224))).astype(np.float32)
        out = box_sum(x, 2)
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, box_sum_windows(x.astype(np.float64), 2), rtol=1e-6, atol=0
        )

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
                box_sum(x, p)
            return
        np.testing.assert_allclose(box_sum(x, p), box_sum_windows(x, p), atol=1e-9)


# ---------------------------------------------------------------------------
# fp32 kernel: workspaces and input layouts
# ---------------------------------------------------------------------------


def _workspace_bytes(plan) -> int:
    return sum(a.nbytes for a in (plan.xpad, plan.tmp, plan.acc, plan.cols) if a is not None)


def _fresh(kern, x, w, **kwargs):
    """The output of a kernel that has run nothing before."""
    return F32NHWCKernel(kern.pool).run_nchw(x, w, None, **kwargs)


#: (pool, H, padding): the pairwise box sum at padding 0, 1 and 2, the
#: zero-padded box sum (pool 3, and pool 2 on a 1-pixel-wide input),
#: and pool 1 with and without padding
WORKSPACE_CASES = [(2, 6, 0), (2, 6, 1), (2, 6, 2), (3, 7, 1), (2, 1, 1), (1, 5, 2), (1, 5, 0)]


class TestF32Kernel:
    def test_nhwc_plan_reuse_is_consistent(self, rng):
        """One workspace per layer geometry, sized for the largest batch
        it has run; every batch size's output equals a fresh kernel's,
        and repeated calls stay bit-identical."""
        w = rng.normal(size=(4, 3, 3, 3))
        kern = F32NHWCKernel(2)
        for n, h in [(2, 10), (2, 10), (5, 10), (3, 10), (1, 8), (5, 10)]:
            x = rng.normal(size=(n, 3, h, h))
            out = kern.run_nchw(x, w, None, padding=1)
            np.testing.assert_array_equal(out, _fresh(kern, x, w, padding=1))
            np.testing.assert_array_equal(kern.run_nchw(x, w, None, padding=1), out)
        assert sorted(p.capacity for p in kern._plans.values()) == [1, 5]
        assert "workspace capacity 5, 1" in repr(kern)

    @pytest.mark.parametrize("pool, h, pad", WORKSPACE_CASES)
    def test_prefix_views_keep_the_workspace_invariants(self, rng, pool, h, pad):
        """A smaller batch on a grown workspace reads nothing past its
        prefix, and no call writes the zero borders or the ones column."""
        w = rng.normal(size=(4, 3, 1, 1)) if h == 1 else rng.normal(size=(4, 3, 3, 3))
        kern = F32NHWCKernel(pool)
        kern.run_nchw(rng.normal(size=(4, 3, h, h + 1)), w, None, padding=pad)
        (plan,) = kern._plans.values()
        assert plan.capacity == 4
        for n in (2, 1, 3, 4, 1):
            # a call of n images reads only its prefix: poison the rest
            rows = n * plan.po * plan.qo
            plan.cols[rows:, : plan.ck] = np.nan
            for a in (plan.xpad, plan.tmp, plan.acc):
                if a is not None:
                    a[n:, pad : pad + h, pad : pad + h + 1] = np.nan
            x = rng.normal(size=(n, 3, h, h + 1))
            out = kern.run_nchw(x, w, None, padding=pad)
            np.testing.assert_array_equal(out, _fresh(kern, x, w, padding=pad))
            # over the whole capacity: the ones column and the zero borders
            assert (plan.cols[:, plan.ck] == 1.0).all()
            borders = []
            if plan.xpad is not None and pad:
                borders += [plan.xpad[:, :pad], plan.xpad[:, pad + h :]]
                borders += [plan.xpad[:, :, :pad], plan.xpad[:, :, pad + h + 1 :]]
            if plan.pairwise and pad:
                borders += [plan.tmp[:, :pad], plan.tmp[:, pad + h :]]
                borders += [plan.tmp[:, :, : pad - 1], plan.tmp[:, :, pad + h + 1 :]]
            assert all((b == 0).all() for b in borders)
            # the rest stays poisoned: nothing past the prefix was written
            if n < 4:
                assert np.isnan(plan.cols[rows:, : plan.ck]).all()

    def test_growth_frees_the_smaller_workspace(self, rng):
        """A batch larger than the workspace replaces it with one for that
        batch: the old workspace and every view over it are freed."""
        w = rng.normal(size=(4, 3, 3, 3))
        kern = F32NHWCKernel(2)
        for n in (1, 2):
            kern.run_nchw(rng.normal(size=(n, 3, 8, 8)), w, None)
        (plan,) = kern._plans.values()
        gone = [weakref.ref(a) for a in (plan.tmp, plan.acc, plan.cols, plan.batch(1).dst)]
        del plan
        x = rng.normal(size=(3, 3, 8, 8))
        np.testing.assert_array_equal(kern.run_nchw(x, w, None), _fresh(kern, x, w))
        assert all(ref() is None for ref in gone)
        (plan,) = kern._plans.values()
        assert plan.capacity == 3

    def test_compiled_lenet5_holds_one_workspace_per_layer(self, monkeypatch):
        """Batch sizes 1 to 16 in a seeded order leave each lowered layer
        one workspace, the size of a fresh plan at batch 16, and every
        call, the growing ones included, equals a fresh kernel's."""
        model, _ = mlcnn_pipeline(strict=False, lower_bits=32).run(build_model("lenet5", seed=0))
        model.eval()
        kernel_call = F32NHWCKernel.__call__
        batches = []

        def checked_call(self, x, weight, bias=None, **kwargs):
            out = kernel_call(self, x, weight, bias, **kwargs)
            fresh = kernel_call(F32NHWCKernel(self.pool), x, weight, bias, **kwargs)
            np.testing.assert_array_equal(out, fresh)
            batches.append(len(x))
            return out

        monkeypatch.setattr(F32NHWCKernel, "__call__", checked_call)
        rng = np.random.default_rng(0)
        order = rng.permutation(np.arange(1, 17))
        for n in order:
            with no_grad():
                model(Tensor(rng.standard_normal((int(n), 3, 32, 32))))
        assert batches == np.repeat(order, 3).tolist()
        for _, kern in lowered_kernels(model):
            (plan,) = kern._plans.values()
            assert plan.capacity == 16
            fresh = nhwc._Plan(16, plan.h, plan.w, plan.c, plan.k, plan.pool, plan.pad)
            assert _workspace_bytes(plan) == _workspace_bytes(fresh)

    @pytest.mark.parametrize("pool, padding", [(2, 0), (2, 1), (1, 0), (1, 2), (3, 1)])
    def test_channels_last_view_and_nchw_copy_agree_bitwise(self, rng, pool, padding):
        """A float32 channels-last view, which the kernel reads in place,
        and its contiguous NCHW copy give bit-identical outputs."""
        x = rng.normal(size=(2, 3, 9, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        kern = F32NHWCKernel(pool)
        last = np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=np.float32)
        last = last.transpose(0, 3, 1, 2)
        out = kern.run_nchw(last, w, None, padding=padding)
        copy = kern.run_nchw(np.ascontiguousarray(last), w, None, padding=padding)
        np.testing.assert_array_equal(copy, out)


# ---------------------------------------------------------------------------
# fp32 GEMM orientation: row-major vs weight-major
# ---------------------------------------------------------------------------


def _weight_major_layers(path_kernels):
    """The layers of ``[(path, kernel)]`` whose latest call ran weight-major."""
    assert all(k.orientation is not None for _, k in path_kernels)
    return {path for path, k in path_kernels if k.orientation == "weight-major"}


class TestGemmOrientation:
    #: (C, K, M) of a 2305x256 fold, vgg16's smallest above the floor
    C, K, M = 256, 3, 256

    @pytest.mark.parametrize("activation", ["relu", "none"])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("pool", [1, 2])
    @pytest.mark.parametrize(
        "n, po", [(1, 1), (3, 1), (1, 4), (2, 4)], ids=["1row", "3rows", "16rows", "32rows"]
    )
    def test_both_products_within_single_precision(self, n, po, pool, pad, activation, monkeypatch):
        """Either product over either fold layout agrees with the f64
        reference at 1-32 patch rows (``n`` images of ``po x po`` pooled
        outputs)."""
        g = np.random.default_rng([n, po, pool, pad])
        c, k, m = self.C, self.K, self.M
        h = pool * po + k - 1 - 2 * pad
        x = g.normal(size=(n, c, h, h))
        w = g.normal(size=(m, c, k, k)) / np.sqrt(c * k * k)
        b = g.normal(size=m)
        kern = F32NHWCKernel(pool)
        fold = kern.fold(w, b)
        assert nhwc.weight_major(n * po * po, fold.size)
        ref = golden(x, w, b, pool, pool, pad, activation)
        for forced in ("row-major", "weight-major"):
            monkeypatch.setattr(nhwc, "weight_major", lambda rows, size: forced == "weight-major")
            for wmat in (fold, np.ascontiguousarray(fold)):
                out = kern.run_nchw(x, w, padding=pad, activation=activation, wmat=wmat)
                assert kern.orientation == forced
                assert out.shape == (n, m, po, po)
                np.testing.assert_allclose(out, ref, atol=1e-3)
                # either way the result is fresh channels-last memory
                assert out.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_full_width_vgg16_picks_weight_major_for_its_small_late_layers(self):
        """Layers with a fold above the floor run weight-major at 128
        patch rows or fewer: from the 8x8 ``features.5`` on at batch 1,
        and from the 2x2 ``features.9`` on at batch 16."""
        model, _ = mlcnn_pipeline(strict=False, lower_bits=32).run(build_model("vgg16", seed=0))
        model.eval()
        paths = lowered_kernels(model)
        assert len(paths) == 13
        rng = np.random.default_rng(0)
        b16 = {"features.9", "features.10.conv", "features.11.conv", "features.12"}
        b1 = b16 | {"features.5.conv", "features.6", "features.7.conv", "features.8.conv"}
        for batch, expected in [(1, b1), (16, b16), (1, b1)]:
            with no_grad():
                model(Tensor(rng.standard_normal((batch, 3, 32, 32))))
            assert _weight_major_layers(paths) == expected, batch

    def test_lenet5_never_runs_weight_major(self):
        """Its largest fold, C5's 401x120, is below the floor at any batch."""
        model, _ = mlcnn_pipeline(strict=False, lower_bits=32).run(build_model("lenet5", seed=0))
        model.eval()
        paths = lowered_kernels(model)
        assert len(paths) == 3
        rng = np.random.default_rng(0)
        for batch in range(1, 17):
            with no_grad():
                model(Tensor(rng.standard_normal((batch, 3, 32, 32))))
            assert _weight_major_layers(paths) == set(), batch


def _fused_backward_batch_outer(g, res):
    """``fused_backward`` with the input-gradient scatter in (N, Po, Qo)
    order: one (C, N, Ha, Wa) plane, runs of Qo elements at the pool
    stride."""
    n, c, h, w = res.x_shape
    _, _, ha, wa = res.acc_shape
    pool, k, padding, stride = res.pool, res.k, res.padding, res.pool_stride
    g = g * (res.out > 0)
    m, (po, qo) = g.shape[1], g.shape[-2:]
    gm = g.transpose(1, 0, 2, 3).reshape(m, n * po * qo)
    gms = gm * (1.0 / (pool * pool))
    gweight = (gms @ res.cols.T).reshape(m, c, k, k)
    gcols = (res.wmat.T @ gms).reshape(c, k, k, n, po, qo)
    b = pool - 1
    gacc = np.zeros((c, n, ha + 2 * b, wa + 2 * b), dtype=gcols.dtype)
    for ki in range(k):
        rows = slice(b + ki, b + ki + stride * po, stride)
        for kj in range(k):
            gacc[:, :, rows, b + kj : b + kj + stride * qo : stride] += gcols[:, ki, kj]
    gx = box_sum(gacc[:, :, padding : padding + h + b, padding : padding + w + b], pool)
    return gx.transpose(1, 0, 2, 3), gweight, gm.sum(axis=1)


class TestBackwardEquivalence:
    def test_input_without_grad_skips_its_gradient(self, rng):
        """The masked branch: no input gradient, the same gw and gb."""
        x = rng.normal(size=(2, 3, 11, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        xt = Tensor(x)  # an input image: needs no gradient
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        out = fused_conv_pool(xt, wt, bt, pool=2, padding=1)
        gout = rng.normal(size=out.shape)
        out.backward(gout)
        assert xt.grad is None

        _, res = fused_forward(x, w, b, pool=2, padding=1)
        gx, gw, gb = fused_backward(gout, res, input_grad=False)
        gx_full, gw_full, gb_full = fused_backward(gout, res)
        assert gx is None and gx_full.shape == x.shape
        assert np.array_equal(gw, gw_full) and np.array_equal(gb, gb_full)
        assert np.array_equal(wt.grad, gw) and np.array_equal(bt.grad, gb)

    @pytest.mark.parametrize("n", [1, 3, 32])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("pool,stride", [(2, 2), (2, 1), (3, 3), (3, 2)])
    def test_batch_innermost_scatter_is_bit_identical(self, n, padding, pool, stride):
        """The (Po, Qo, N) scatter gives the (N, Po, Qo) scatter's three
        gradients bit for bit, overlapping pool strides included."""
        g = np.random.default_rng(n * 100 + pool * 10 + stride + padding)
        x = g.normal(size=(n, 3, 13, 11))
        w = g.normal(size=(4, 3, 3, 3))
        out, res = fused_forward(
            x, w, g.normal(size=4), pool=pool, padding=padding, stride=stride
        )
        gout = g.normal(size=out.shape)
        got = fused_backward(gout, res)
        want = _fused_backward_batch_outer(gout, res)
        assert got[0].shape == x.shape
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_fused_backward_rejects_nothing_without_bias(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(2, 2, 3, 3))
        out, res = fused_forward(x, w, None, pool=2)
        gx, gw, gb = fused_backward(np.ones_like(out), res)
        assert gx.shape == x.shape and gw.shape == w.shape and gb.shape == (2,)
