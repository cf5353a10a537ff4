"""Overlapping-pool (stride != pool) fusion in compiled models.

The MLCNN fused identity
``ReLU(AvgPool_{p,s}(Conv_K(x))) = ReLU((1/p^2) Conv_{K,stride=s}(BoxSum_p(x)))``
holds for *any* pool stride ``s``; ``tests/core/test_oracle.py`` holds
every fused implementation to it.  These tests check that the
canonical compile fuses an overlapping pool, and that fp32 lowering
leaves overlapping-pool layers on the float64 path.
"""

import numpy as np
import pytest

from repro.compiler import clear_plan_cache, lowered_kernels, mlcnn_pipeline
from repro.core.fusion import FusedConvPool
from repro.models.blocks import ConvBlock, PoolSpec
from repro.nn.layers import Sequential
from repro.nn.tensor import Tensor, no_grad


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


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
