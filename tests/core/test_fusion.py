"""Fused conv-pool kernel: functional equivalence and exact op counts.

The central invariant of the paper (Section IV): RME/LAR/GAR change
*how* the result is computed, never *what* is computed —
``fused(x, w, b) == relu(avgpool(conv(x, w, b)))`` for every shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fusion import (
    FusedConvPool,
    box_sum,
    dense_conv_pool_counted,
    fused_conv_pool,
    fused_conv_pool_counted,
)
from repro.core import opcount as oc
from repro.models.blocks import ConvBlock, PoolSpec
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad


def reference(x, w, b, pool, padding=0, activation="relu"):
    """Unfused Conv -> AvgPool -> activation."""
    out = F.avg_pool2d(F.conv2d(Tensor(x), Tensor(w), Tensor(b) if b is not None else None, padding=padding), pool)
    if activation == "relu":
        out = F.relu(out)
    return out.data


@pytest.fixture
def rng():
    return np.random.default_rng(21)


class TestBoxSum:
    def test_2x2_values(self):
        x = np.arange(9.0).reshape(3, 3)
        out = box_sum(x, 2)
        np.testing.assert_allclose(out, [[8, 12], [20, 24]])

    def test_p1_is_identity(self, rng):
        x = rng.normal(size=(2, 5, 5))
        assert box_sum(x, 1) is x

    def test_rejects_small_input(self):
        with pytest.raises(ValueError):
            box_sum(np.zeros((2, 2)), 3)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            box_sum(np.zeros((4, 4)), 0)

    def test_batched_leading_axes(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        out = box_sum(x, 2)
        assert out.shape == (2, 3, 5, 5)
        np.testing.assert_allclose(out[1, 2], box_sum(x[1, 2], 2))


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("k,p,pad", [(2, 2, 0), (3, 2, 0), (3, 2, 1), (5, 2, 2), (1, 2, 0), (3, 4, 0), (2, 3, 0)])
    def test_matches_reference(self, rng, k, p, pad):
        c_in, c_out, h = 3, 4, 16
        x = rng.normal(size=(2, c_in, h, h))
        w = rng.normal(size=(c_out, c_in, k, k))
        b = rng.normal(size=c_out)
        with no_grad():
            fused = fused_conv_pool(Tensor(x), Tensor(w), Tensor(b), pool=p, padding=pad).data
        ref = reference(x, w, b, p, pad)
        np.testing.assert_allclose(fused, ref, atol=1e-10)

    def test_activation_variants(self, rng):
        x = rng.normal(size=(1, 1, 8, 8))
        w = rng.normal(size=(1, 1, 3, 3))
        with no_grad():
            none = fused_conv_pool(Tensor(x), Tensor(w), pool=2, activation="none").data
            relu = fused_conv_pool(Tensor(x), Tensor(w), pool=2, activation="relu").data
            sig = fused_conv_pool(Tensor(x), Tensor(w), pool=2, activation="sigmoid").data
            tanh = fused_conv_pool(Tensor(x), Tensor(w), pool=2, activation="tanh").data
        np.testing.assert_allclose(relu, np.maximum(none, 0))
        np.testing.assert_allclose(sig, 1 / (1 + np.exp(-none)))
        np.testing.assert_allclose(tanh, np.tanh(none))

    def test_rejects_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            fused_conv_pool(
                Tensor(rng.normal(size=(1, 1, 6, 6))),
                Tensor(rng.normal(size=(1, 1, 2, 2))),
                activation="swish",
            )

    def test_overlapping_pool_matches_unfused(self, rng):
        """stride != pool is no longer rejected: it lowers to the
        strided gather (cumsum identity holds for any pool stride)."""
        x = Tensor(rng.normal(size=(1, 1, 8, 8)))
        w = Tensor(rng.normal(size=(1, 1, 3, 3)))
        with no_grad():
            fused = fused_conv_pool(x, w, pool=3, pool_stride=2).data
            ref = F.relu(F.avg_pool2d(F.conv2d(x, w), 3, stride=2)).data
        np.testing.assert_allclose(fused, ref, atol=1e-12)

    def test_rejects_invalid_pool_stride(self, rng):
        with pytest.raises(ValueError):
            fused_conv_pool(
                Tensor(rng.normal(size=(1, 1, 8, 8))),
                Tensor(rng.normal(size=(1, 1, 3, 3))),
                pool=3,
                pool_stride=0,
            )

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 4),
        p=st.sampled_from([2, 3]),
        cin=st.integers(1, 3),
        cout=st.integers(1, 3),
        extra=st.integers(0, 4),
        seed=st.integers(0, 2 ** 16),
    )
    def test_property_equivalence(self, k, p, cin, cout, extra, seed):
        """For arbitrary shapes, fused == relu(avgpool(conv)) to fp
        tolerance (the paper's functional-correctness claim)."""
        g = np.random.default_rng(seed)
        h = k + p + extra  # always enough for one pooled output
        x = g.normal(size=(1, cin, h, h))
        w = g.normal(size=(cout, cin, k, k))
        b = g.normal(size=cout)
        with no_grad():
            fused = fused_conv_pool(Tensor(x), Tensor(w), Tensor(b), pool=p).data
        np.testing.assert_allclose(fused, reference(x, w, b, p), atol=1e-9)


class TestCountedExecutor:
    def test_output_matches_reference(self, rng):
        x = rng.normal(size=(2, 11, 11))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, _ = fused_conv_pool_counted(x, w, b)
        np.testing.assert_allclose(out, reference(x[None], w, b, 2)[0], atol=1e-10)

    def test_dense_reference_matches(self, rng):
        x = rng.normal(size=(1, 9, 9))
        w = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=2)
        out, _ = dense_conv_pool_counted(x, w, b)
        np.testing.assert_allclose(out, reference(x[None], w, b, 2)[0], atol=1e-10)

    @pytest.mark.parametrize("lar,gar_row,gar_col", [
        (False, False, False), (True, False, False), (False, True, False),
        (True, True, False), (True, True, True), (False, False, True),
    ])
    def test_reuse_options_preserve_output(self, rng, lar, gar_row, gar_col):
        x = rng.normal(size=(1, 9, 9))
        w = rng.normal(size=(1, 1, 3, 3))
        out, _ = fused_conv_pool_counted(
            x, w, None, use_lar=lar, use_gar_row=gar_row, use_gar_col=gar_col
        )
        np.testing.assert_allclose(out, reference(x[None], w, None, 2)[0], atol=1e-10)

    def test_rme_percentage(self, rng):
        """Fused executor performs exactly 1/4 of the dense mults
        (minus the pool-scaling mults) for 2x2 pooling."""
        x = rng.normal(size=(2, 10, 10))
        w = rng.normal(size=(3, 2, 3, 3))
        _, dense = dense_conv_pool_counted(x, w, None)
        _, fused = fused_conv_pool_counted(x, w, None)
        conv_only = dense.mults - dense.major_additions // 1 - 0
        # dense conv mults = 4 * fused mults (pool scaling mults excluded)
        pooled_outputs = 3 * 4 * 4
        assert fused.mults * 4 == dense.mults - pooled_outputs

    def test_lar_per_output_matches_table2(self, rng):
        """Measured per-output additions with LAR reproduce Table II."""
        for k in (2, 3, 5):
            d = 2 * k + 4
            x = rng.normal(size=(1, d, d))
            w = rng.normal(size=(1, 1, k, k))
            _, counter = fused_conv_pool_counted(
                x, w, None, use_lar=True, use_gar_row=False, use_gar_col=False
            )
            po = ((d - k + 1) - 2) // 2 + 1
            per_output = counter.additions / po ** 2
            assert per_output == oc.lar_additions_with(k)

    def test_no_reuse_per_output_matches_baseline(self, rng):
        for k in (2, 3, 5):
            d = 2 * k + 4
            x = rng.normal(size=(1, d, d))
            w = rng.normal(size=(1, 1, k, k))
            _, counter = fused_conv_pool_counted(
                x, w, None, use_lar=False, use_gar_row=False, use_gar_col=False
            )
            po = ((d - k + 1) - 2) // 2 + 1
            assert counter.additions / po ** 2 == oc.lar_additions_without(k)

    def test_gar_per_row_matches_table4(self, rng):
        """Measured per-row additions with row-GAR reproduce Table IV."""
        d, k = 28, 13
        x = rng.normal(size=(1, d, d))
        w = rng.normal(size=(1, 1, k, k))
        _, counter = fused_conv_pool_counted(
            x, w, None, use_lar=False, use_gar_row=True, use_gar_col=False
        )
        rows = ((d - k + 1) - 2) // 2 + 1
        assert counter.additions / rows == oc.gar_additions_with(d, k)

    def test_full_reuse_cheapest(self, rng):
        x = rng.normal(size=(1, 12, 12))
        w = rng.normal(size=(2, 1, 3, 3))
        counts = {}
        for lar, gr, gc in [(False, False, False), (True, False, False), (True, True, False), (True, True, True)]:
            _, c = fused_conv_pool_counted(x, w, None, use_lar=lar, use_gar_row=gr, use_gar_col=gc)
            counts[(lar, gr, gc)] = c.additions
        vals = [counts[(False, False, False)], counts[(True, False, False)],
                counts[(True, True, False)], counts[(True, True, True)]]
        assert vals == sorted(vals, reverse=True)

    def test_reuse_hits_accounted(self, rng):
        """additions + reuse_hits is invariant across reuse settings
        (a hit is exactly an addition avoided)."""
        x = rng.normal(size=(1, 9, 9))
        w = rng.normal(size=(1, 1, 3, 3))
        _, none = fused_conv_pool_counted(x, w, None, use_lar=False, use_gar_row=False, use_gar_col=False)
        _, full = fused_conv_pool_counted(x, w, None, use_lar=True, use_gar_row=True, use_gar_col=True)
        small_adds_none = none.half_additions + none.full_additions
        small_adds_full = full.half_additions + full.full_additions + full.reuse_hits
        assert small_adds_none == small_adds_full

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            fused_conv_pool_counted(rng.normal(size=(2, 8, 8)), rng.normal(size=(1, 3, 3, 3)), None)

    def test_bias_additions_counted(self, rng):
        x = rng.normal(size=(1, 8, 8))
        w = rng.normal(size=(2, 1, 3, 3))
        _, without = fused_conv_pool_counted(x, w, None)
        _, with_b = fused_conv_pool_counted(x, w, np.zeros(2))
        pooled = 2 * 3 * 3
        assert with_b.bias_additions - without.bias_additions == pooled


class TestFusedConvPoolModule:
    def test_matches_block(self, rng):
        blk = ConvBlock(2, 3, 3, padding=1, pool=PoolSpec("avg", 2), order="pool_act", rng=rng)
        fused = FusedConvPool(blk)
        x = Tensor(rng.normal(size=(2, 2, 8, 8)))
        with no_grad():
            np.testing.assert_allclose(fused(x).data, blk(x).data, atol=1e-10)

    def test_shares_parameters(self, rng):
        blk = ConvBlock(1, 1, 3, pool=PoolSpec("avg", 2), order="pool_act", rng=rng)
        fused = FusedConvPool(blk)
        assert fused.weight is blk.conv.weight
        assert fused.bias is blk.conv.bias

    def test_rejects_unfusable_block(self, rng):
        blk = ConvBlock(1, 1, 3, pool=PoolSpec("max", 2), order="pool_act", rng=rng)
        with pytest.raises(ValueError):
            FusedConvPool(blk)

    def test_rejects_batchnorm_block(self, rng):
        blk = ConvBlock(1, 2, 3, pool=PoolSpec("avg", 2), order="pool_act", batchnorm=True, rng=rng)
        with pytest.raises(ValueError):
            FusedConvPool(blk)

    def test_trainable_through_fusion(self, rng):
        blk = ConvBlock(1, 2, 3, pool=PoolSpec("avg", 2), order="pool_act", rng=rng)
        fused = FusedConvPool(blk)
        x = Tensor(rng.normal(size=(1, 1, 8, 8)))
        out = fused(x)
        (out ** 2).sum().backward()
        assert blk.conv.weight.grad is not None
        assert np.abs(blk.conv.weight.grad).sum() > 0


class TestGeneralPoolSizes:
    """The counted executor generalizes beyond 2x2 pooling."""

    def test_pool3_counted_matches_reference(self):
        rng = np.random.default_rng(77)
        x = rng.normal(size=(2, 13, 13))
        w = rng.normal(size=(2, 2, 3, 3))
        out, counter = fused_conv_pool_counted(x, w, None, pool=3)
        ref = reference(x[None], w, None, 3)[0]
        np.testing.assert_allclose(out, ref, atol=1e-10)
        assert counter.mults > 0

    def test_pool3_small_acc_costs_eight_adds(self):
        """A 3x3 small accumulation costs p^2-1 = 8 additions without
        reuse (2 per HA x 3 HAs + 2 FA additions with LAR)."""
        rng = np.random.default_rng(78)
        x = rng.normal(size=(1, 7, 7))
        w = rng.normal(size=(1, 1, 1, 1))  # K=1: one I_Acc per output
        _, counter = fused_conv_pool_counted(
            x, w, None, pool=3, use_lar=False, use_gar_row=False, use_gar_col=False
        )
        outputs = 2 * 2  # conv out 7x7, pool 3 -> 2x2
        assert counter.full_additions == outputs * 8

    def test_pool3_rme_factor_is_nine(self):
        """With the conv output divisible by the pool (11 - 3 + 1 = 9),
        dense needs exactly 9x the fused multiplications plus one
        scaling multiply per pooled output."""
        rng = np.random.default_rng(79)
        x = rng.normal(size=(1, 11, 11))
        w = rng.normal(size=(1, 1, 3, 3))
        _, fused = fused_conv_pool_counted(x, w, None, pool=3)
        _, dense = dense_conv_pool_counted(x, w, None, pool=3)
        pooled_outputs = 3 * 3
        assert fused.mults == pooled_outputs * 9  # K^2 each
        assert dense.mults == 9 * fused.mults + pooled_outputs
