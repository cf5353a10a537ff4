"""Fused conv-pool kernel: its arguments, its module wrapper and the
counted executor's reuse accounting.

The central invariant of the paper (Section IV) — RME/LAR/GAR change
*how* the result is computed, never *what* — is checked for every
implementation, over one shared grid, by ``tests/core/test_oracle.py``.
"""

import numpy as np
import pytest

from repro.core.fusion import (
    FusedConvPool,
    dense_conv_pool_counted,
    fused_conv_pool,
    fused_conv_pool_counted,
)
from repro.core import opcount as oc
from repro.models.blocks import ConvBlock, PoolSpec
from repro.nn.tensor import Tensor, no_grad


@pytest.fixture
def rng():
    return np.random.default_rng(21)


class TestFusedConvPoolArguments:
    def test_rejects_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            fused_conv_pool(
                Tensor(rng.normal(size=(1, 1, 6, 6))),
                Tensor(rng.normal(size=(1, 1, 2, 2))),
                activation="swish",
            )

    def test_rejects_invalid_pool_stride(self, rng):
        with pytest.raises(ValueError):
            fused_conv_pool(
                Tensor(rng.normal(size=(1, 1, 8, 8))),
                Tensor(rng.normal(size=(1, 1, 3, 3))),
                pool=3,
                pool_stride=0,
            )


class TestCountedExecutor:
    @pytest.mark.parametrize("lar,gar_row,gar_col", [
        (False, False, False), (True, False, False), (False, True, False),
        (True, True, False), (True, True, True), (False, False, True),
    ])
    def test_reuse_options_preserve_output(self, rng, lar, gar_row, gar_col):
        """Reuse scopes change the counts, never the values: every setting
        matches the default full reuse, which the oracle holds to the
        golden."""
        x = rng.normal(size=(1, 9, 9))
        w = rng.normal(size=(1, 1, 3, 3))
        out, _ = fused_conv_pool_counted(
            x, w, None, use_lar=lar, use_gar_row=gar_row, use_gar_col=gar_col
        )
        full, _ = fused_conv_pool_counted(x, w, None)
        np.testing.assert_allclose(out, full, rtol=1e-12, atol=1e-12)

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
