"""ConvBlock / PoolSpec / Inception / Dense / Transition / Res blocks."""

import numpy as np
import pytest

from repro.models.blocks import (
    ACTIVATIONS,
    ORDERS,
    BasicResBlock,
    ConvBlock,
    DenseBlock,
    Inception,
    PooledInception,
    PoolSpec,
    TransitionBlock,
)
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad

from tests.conftest import reference_epilogue


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestPoolSpec:
    def test_stride_defaults_to_kernel(self):
        p = PoolSpec("avg", 3)
        assert p.stride == 3

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            PoolSpec("median", 2)

    def test_rejects_bad_kernel(self):
        with pytest.raises(ValueError):
            PoolSpec("avg", 0)

    def test_apply_avg_and_max(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        assert np.allclose(PoolSpec("avg", 2).apply(x).data, F.avg_pool2d(x, 2).data)
        assert np.allclose(PoolSpec("max", 2).apply(x).data, F.max_pool2d(x, 2).data)


class TestConvBlock:
    def test_forward_act_pool_order(self, rng):
        blk = ConvBlock(1, 2, 3, pool=PoolSpec("avg", 2), order="act_pool", rng=rng)
        x = Tensor(rng.normal(size=(1, 1, 8, 8)))
        with no_grad():
            out = blk(x)
            ref = F.avg_pool2d(F.relu(blk.conv(x)), 2)
        np.testing.assert_allclose(out.data, ref.data)

    def test_forward_pool_act_order(self, rng):
        blk = ConvBlock(1, 2, 3, pool=PoolSpec("avg", 2), order="pool_act", rng=rng)
        x = Tensor(rng.normal(size=(1, 1, 8, 8)))
        with no_grad():
            out = blk(x)
            ref = F.relu(F.avg_pool2d(blk.conv(x), 2))
        np.testing.assert_allclose(out.data, ref.data)

    def test_no_pool(self, rng):
        blk = ConvBlock(1, 2, 3, rng=rng)
        with no_grad():
            out = blk(Tensor(rng.normal(size=(1, 1, 6, 6))))
        assert out.shape == (1, 2, 4, 4)
        assert (out.data >= 0).all()

    def test_activation_variants(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        for act in ("relu", "sigmoid", "tanh", "none"):
            blk = ConvBlock(1, 1, 3, activation=act, rng=rng)
            with no_grad():
                blk(x)

    def test_rejects_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            ConvBlock(1, 1, 3, activation="gelu", rng=rng)

    def test_rejects_unknown_order(self, rng):
        with pytest.raises(ValueError):
            ConvBlock(1, 1, 3, order="pool_first", rng=rng)

    def test_is_fusable_conditions(self, rng):
        fusable = ConvBlock(1, 1, 3, pool=PoolSpec("avg", 2), order="pool_act", rng=rng)
        assert fusable.is_fusable()
        # wrong order
        assert not ConvBlock(1, 1, 3, pool=PoolSpec("avg", 2), order="act_pool", rng=rng).is_fusable()
        # max pooling
        assert not ConvBlock(1, 1, 3, pool=PoolSpec("max", 2), order="pool_act", rng=rng).is_fusable()
        # strided conv
        assert not ConvBlock(1, 1, 3, stride=2, pool=PoolSpec("avg", 2), order="pool_act", rng=rng).is_fusable()
        # no pool
        assert not ConvBlock(1, 1, 3, rng=rng).is_fusable()
        # an overlapping pool fuses too
        assert ConvBlock(
            1, 1, 3, pool=PoolSpec("avg", 3, stride=2), order="pool_act", rng=rng
        ).is_fusable()


#: pools a ConvBlock may carry, as (kind, kernel, stride): none,
#: non-overlapping average and max, and an overlapping average
EPILOGUE_POOLS = {
    "none": None,
    "avg2": ("avg", 2, 2),
    "max2": ("max", 2, 2),
    "avg3s2": ("avg", 3, 2),
}


class TestEpilogue:
    """``ConvBlock.epilogue`` is everything after the convolution: the
    block's activation and pool in its order, forward and backward."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("pool", sorted(EPILOGUE_POOLS))
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_forward_is_conv_then_epilogue(self, activation, pool, order, rng):
        spec = EPILOGUE_POOLS[pool]
        blk = ConvBlock(
            2, 3, 3, padding=1, activation=activation,
            pool=PoolSpec(*spec) if spec else None, order=order, rng=rng,
        )
        x = Tensor(rng.normal(size=(2, 2, 9, 9)))
        out = blk(x)
        out.sum().backward()
        grad = blk.conv.weight.grad.copy()
        blk.zero_grad()
        y = blk.conv(x)
        want = reference_epilogue(y, activation, spec, order)
        want.sum().backward()
        np.testing.assert_array_equal(out.data, want.data)
        np.testing.assert_array_equal(grad, blk.conv.weight.grad)
        with no_grad():
            np.testing.assert_array_equal(blk.epilogue(blk.conv(x)).data, out.data)


class TestInception:
    def test_output_channels(self, rng):
        inc = Inception(8, 4, 2, 6, 2, 3, 5, rng=rng)
        assert inc.out_channels == 4 + 6 + 3 + 5
        with no_grad():
            out = inc(Tensor(rng.normal(size=(1, 8, 8, 8))))
        assert out.shape == (1, 18, 8, 8)

    def test_forward_is_relu_of_preact(self, rng):
        inc = Inception(4, 2, 2, 2, 2, 2, 2, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 6, 6)))
        with no_grad():
            pre = inc.forward_preact(x)
            out = inc(x)
        np.testing.assert_allclose(out.data, np.maximum(pre.data, 0))

    def test_output_blocks_are_preactivation(self, rng):
        inc = Inception(4, 2, 2, 2, 2, 2, 2, rng=rng)
        assert all(b.activation == "none" for b in inc.output_blocks())


class TestPooledInception:
    def _make(self, order, rng):
        inc = Inception(4, 2, 2, 2, 2, 2, 2, rng=rng)
        return PooledInception(inc, PoolSpec("avg", 2), order=order, rng=rng)

    def test_act_pool_matches_manual(self, rng):
        pi = self._make("act_pool", rng)
        x = Tensor(rng.normal(size=(1, 4, 8, 8)))
        with no_grad():
            out = pi(x)
            ref = F.avg_pool2d(F.relu(pi.inception.forward_preact(x)), 2)
        np.testing.assert_allclose(out.data, ref.data)

    def test_pool_act_matches_manual(self, rng):
        pi = self._make("pool_act", rng)
        x = Tensor(rng.normal(size=(1, 4, 8, 8)))
        with no_grad():
            out = pi(x)
            ref = F.relu(F.avg_pool2d(pi.inception.forward_preact(x), 2))
        np.testing.assert_allclose(out.data, ref.data)

    def test_rejects_unknown_order(self, rng):
        inc = Inception(4, 2, 2, 2, 2, 2, 2, rng=rng)
        with pytest.raises(ValueError):
            PooledInception(inc, PoolSpec("avg", 2), order="sideways")

    def test_downsample_mode(self, rng):
        pi = self._make("act_pool", rng)
        from repro.models.blocks import ConvBlock

        pi.downsample = ConvBlock(pi.out_channels, pi.out_channels, 3, stride=2, padding=1, rng=rng)
        pi.pool = None
        with no_grad():
            out = pi(Tensor(rng.normal(size=(1, 4, 8, 8))))
        assert out.shape == (1, 8, 4, 4)


class TestDenseAndTransition:
    def test_dense_block_concat_growth(self, rng):
        db = DenseBlock(6, growth_rate=3, num_layers=4, rng=rng)
        assert db.out_channels == 6 + 4 * 3
        with no_grad():
            out = db(Tensor(rng.normal(size=(1, 6, 8, 8))))
        assert out.shape == (1, 18, 8, 8)

    def test_transition_halves_spatial(self, rng):
        tb = TransitionBlock(8, 4, rng=rng)
        with no_grad():
            out = tb(Tensor(rng.normal(size=(1, 8, 8, 8))))
        assert out.shape == (1, 4, 4, 4)

    def test_transition_default_order_is_reordered(self, rng):
        tb = TransitionBlock(8, 4, rng=rng)
        assert tb.block.order == "pool_act"
        assert tb.block.is_fusable()


class TestBasicResBlock:
    def test_identity_skip(self, rng):
        blk = BasicResBlock(4, 4, rng=rng)
        assert blk.proj is None
        with no_grad():
            out = blk(Tensor(rng.normal(size=(1, 4, 8, 8))))
        assert out.shape == (1, 4, 8, 8)

    def test_projection_on_stride(self, rng):
        blk = BasicResBlock(4, 8, stride=2, rng=rng)
        assert blk.proj is not None
        with no_grad():
            out = blk(Tensor(rng.normal(size=(1, 4, 8, 8))))
        assert out.shape == (1, 8, 4, 4)

    def test_gradients_flow_through_skip(self, rng):
        blk = BasicResBlock(2, 2, rng=rng)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        blk(x).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0
