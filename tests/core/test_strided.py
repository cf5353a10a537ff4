"""Overlapping-pool (stride != pool) fusion on the float64 path.

The MLCNN fused identity
``ReLU(AvgPool_{p,s}(Conv_K(x))) = ReLU((1/p^2) Conv_{K,stride=s}(BoxSum_p(x)))``
holds for *any* pool stride ``s`` — the stride only selects which
``I_Acc`` patches feed the GEMM.  These tests pin that identity against
an explicit loop-nest golden reference, and check that fp32 lowering
leaves overlapping-pool layers on the float64 path.
"""

import numpy as np
import pytest

from repro.compiler import clear_plan_cache, lowered_kernels, mlcnn_pipeline
from repro.core.fusion import FusedConvPool, fused_conv_pool
from repro.models.blocks import ConvBlock, PoolSpec
from repro.nn.layers import Module, Sequential
from repro.nn.tensor import Tensor, no_grad


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def rng():
    return np.random.default_rng(91)


def loopnest_fused(x, w, b, pool, stride, padding=0, activation="relu"):
    """Explicit loop-nest golden reference for overlapping pooling.

    Conv (stride 1, valid after optional zero padding) -> AvgPool with
    kernel ``pool`` and stride ``stride`` -> activation, computed with
    plain Python loops.  Small inputs only.
    """
    n, c, h, ww = x.shape
    m, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        h, ww = h + 2 * padding, ww + 2 * padding
    ch, cw = h - k + 1, ww - k + 1
    conv = np.zeros((n, m, ch, cw))
    for ni in range(n):
        for mo in range(m):
            for i in range(ch):
                for j in range(cw):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(k):
                            for kj in range(k):
                                acc += x[ni, ci, i + ki, j + kj] * w[mo, ci, ki, kj]
                    conv[ni, mo, i, j] = acc + (0.0 if b is None else b[mo])
    po = (ch - pool) // stride + 1
    qo = (cw - pool) // stride + 1
    out = np.zeros((n, m, po, qo))
    for ni in range(n):
        for mo in range(m):
            for i in range(po):
                for j in range(qo):
                    window = conv[
                        ni, mo,
                        i * stride : i * stride + pool,
                        j * stride : j * stride + pool,
                    ]
                    out[ni, mo, i, j] = window.mean()
    if activation == "relu":
        out = np.maximum(out, 0.0)
    elif activation == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-out))
    elif activation == "tanh":
        out = np.tanh(out)
    return out


class TestStridedEquivalence:
    """fused vectorized path == loop-nest golden, across the shape grid."""

    GRID = [
        # (kernel, pool, stride, padding)
        (3, 3, 2, 0),  # overlapping windows
        (3, 2, 3, 1),  # gapped windows (stride > pool)
        (5, 3, 1, 2),  # dense stride-1 pooling
        (2, 4, 2, 0),  # wide pool, half-step stride
        (3, 2, 2, 1),  # stride == pool sanity point on the same path
    ]

    @pytest.mark.parametrize("k,pool,stride,padding", GRID)
    def test_matches_loopnest_golden(self, rng, k, pool, stride, padding):
        x = rng.normal(size=(2, 2, 11, 11))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=3)
        with no_grad():
            got = fused_conv_pool(
                Tensor(x), Tensor(w), Tensor(b),
                pool=pool, pool_stride=stride, padding=padding,
            ).data
        want = loopnest_fused(x, w, b, pool, stride, padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh", "none"])
    def test_activations(self, rng, activation):
        x = rng.normal(size=(1, 1, 9, 9))
        w = rng.normal(size=(2, 1, 3, 3))
        with no_grad():
            got = fused_conv_pool(
                Tensor(x), Tensor(w), pool=3, pool_stride=2, activation=activation
            ).data
        want = loopnest_fused(x, w, None, 3, 2, activation=activation)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_reference_impl_agrees_on_overlap(self, rng):
        x = Tensor(rng.normal(size=(2, 1, 10, 10)))
        w = Tensor(rng.normal(size=(2, 1, 3, 3)))
        with no_grad():
            vec = fused_conv_pool(x, w, pool=3, pool_stride=2).data
            ref = fused_conv_pool(x, w, pool=3, pool_stride=2, impl="reference").data
        np.testing.assert_allclose(vec, ref, atol=1e-12)

    def test_backward_matches_reference_autograd(self, rng):
        for stride in (1, 2, 3):
            xv = rng.normal(size=(2, 2, 10, 10))
            wv = rng.normal(size=(3, 2, 3, 3))
            bv = rng.normal(size=3)
            grads = {}
            for impl in ("vectorized", "reference"):
                x, w, b = Tensor(xv), Tensor(wv), Tensor(bv)
                for t in (x, w, b):
                    t.requires_grad = True
                out = fused_conv_pool(x, w, b, pool=3, pool_stride=stride, impl=impl)
                out.sum().backward()
                grads[impl] = (x.grad.copy(), w.grad.copy(), b.grad.copy())
            for gv, gr in zip(grads["vectorized"], grads["reference"]):
                np.testing.assert_allclose(gv, gr, atol=1e-10)


def _overlap_model(rng):
    """conv3x3 + avg pool3 stride2 block: an overlapping pool."""
    return Sequential(
        ConvBlock(
            1, 2, 3,
            pool=PoolSpec("avg", 3, stride=2),
            order="pool_act",
            rng=rng,
        )
    )


def _mixed_model(seed):
    """An overlapping (pool 3, stride 2) block, then a pool-2 block."""
    rng = np.random.default_rng(seed)
    return Sequential(
        ConvBlock(3, 4, 3, pool=PoolSpec("avg", 3, stride=2), order="pool_act", rng=rng),
        ConvBlock(4, 5, 3, padding=1, pool=PoolSpec("avg", 2), order="pool_act", rng=rng),
    )


class TestOverlapLowering:
    def test_fp32_lowering_skips_the_overlapping_block(self):
        """Only the non-overlapping block gets the fp32 kernel; the
        compiled output stays within the e2e oracle bound of the
        uncompiled float64 model."""
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 32, 32)))
        with no_grad():
            want = _mixed_model(5)(x).data
        model, report = mlcnn_pipeline(lower_bits=32).run(_mixed_model(5))
        assert report.record_for("fuse").rewrites == 2
        assert [(p, k.name) for p, k in lowered_kernels(model)] == [("1", "fused-f32-nhwc")]
        with no_grad():
            got = model(x).data
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want))) <= 1e-4 * float(np.max(np.abs(want)))

    def test_mlcnn_pipeline_fuses_overlapping_block(self):
        """The canonical compile fuses an overlapping pool, and the fused
        model computes what the unfused one does."""
        x = Tensor(np.random.default_rng(4).normal(size=(2, 1, 13, 13)))
        with no_grad():
            want = _overlap_model(np.random.default_rng(91))(x).data
        model, report = mlcnn_pipeline().run(_overlap_model(np.random.default_rng(91)))
        assert report.record_for("fuse").rewrites == 1
        assert isinstance(model[0], FusedConvPool)
        with no_grad():
            got = model(x).data
        np.testing.assert_allclose(got, want, atol=1e-12)
