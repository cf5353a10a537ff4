"""Network fusion transform: semantics preservation across the zoo."""

import itertools

import numpy as np
import pytest

from repro.compiler import mlcnn_pipeline
from repro.core.fusion import FusedConvPool
from repro.core.transform import fuse_network, fused_blocks
from repro.models import build_model, reorder_activation_pooling, set_pooling
from repro.models.blocks import ACTIVATIONS, ConvBlock, PoolSpec
from repro.nn.layers import Sequential
from repro.nn.tensor import Tensor, no_grad

SMALL = {"lenet5": 1.0, "vgg16": 0.125, "vgg19": 0.125, "densenet": 0.5, "resnet18": 0.125}


@pytest.fixture
def x32():
    return Tensor(np.random.default_rng(8).normal(size=(2, 3, 32, 32)))


class TestFuseNetwork:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_fusion_preserves_outputs(self, name, x32):
        model = build_model(name, width_mult=SMALL[name], seed=2)
        reorder_activation_pooling(model)
        with no_grad():
            before = model(x32).data
        fuse_network(model)
        with no_grad():
            after = model(x32).data
        np.testing.assert_allclose(before, after, atol=1e-9)

    def test_expected_fusion_counts(self, x32):
        """LeNet-5 fuses 2 blocks, VGG-16 fuses 5, DenseNet fuses 3."""
        for name, expected in [("lenet5", 2), ("vgg16", 5), ("densenet", 3)]:
            model = build_model(name, width_mult=SMALL[name])
            reorder_activation_pooling(model)
            _, replaced = fuse_network(model)
            assert len(replaced) == expected, name

    def test_fused_blocks_discoverable(self):
        model = build_model("lenet5")
        reorder_activation_pooling(model)
        fuse_network(model)
        assert len(fused_blocks(model)) == 2
        assert all(isinstance(b, FusedConvPool) for b in fused_blocks(model))

    def test_unreordered_model_raises(self):
        model = build_model("vgg16", width_mult=0.125)  # still ReLU+AP
        with pytest.raises(ValueError):
            fuse_network(model)

    def test_max_pooled_model_raises(self):
        model = build_model("vgg16", width_mult=0.125, pooling="max", order="pool_act")
        with pytest.raises(ValueError):
            fuse_network(model)

    def test_parameters_shared_after_fusion(self):
        model = build_model("lenet5")
        reorder_activation_pooling(model)
        _, replaced = fuse_network(model)
        for _, fused in replaced:
            assert fused.weight is fused.source.conv.weight

    def test_fused_model_remains_trainable(self, x32, tiny_split):
        from repro.train import TrainConfig, Trainer

        train_set, val_set = tiny_split
        model = build_model("lenet5", num_classes=4, image_size=16)
        reorder_activation_pooling(model)
        fuse_network(model)
        trainer = Trainer(model, train_set, val_set, TrainConfig(epochs=5, batch_size=16, lr=0.01))
        before = [p.data.copy() for p in model.parameters()]
        hist = trainer.fit()
        assert min(h.train_loss for h in hist) < hist[0].train_loss
        assert any(
            not np.allclose(b, p.data) for b, p in zip(before, model.parameters())
        )

    def test_fusion_after_set_pooling(self, x32):
        """max-pool model becomes fusable after set_pooling + reorder —
        the paper's preparation pipeline."""
        model = build_model("vgg16", width_mult=0.125, pooling="max")
        set_pooling(model, "avg")
        reorder_activation_pooling(model)
        _, replaced = fuse_network(model)
        assert len(replaced) == 5

    def test_double_fusion_raises(self):
        model = build_model("lenet5")
        reorder_activation_pooling(model)
        fuse_network(model)
        with pytest.raises(ValueError):
            fuse_network(model)  # nothing left to fuse


class TestMLCNNPipeline:
    def test_pipeline_from_maxpool_model(self, x32):
        model = build_model("vgg16", width_mult=0.125, pooling="max")
        model, _ = mlcnn_pipeline().run(model)
        assert len(fused_blocks(model)) == 5
        with no_grad():
            out = model(x32)
        assert out.shape == (2, 10)

    def test_pipeline_with_quantization(self, x32):
        from repro.core.quantize import QuantizedConvBlock

        model, _ = mlcnn_pipeline(bits=8).run(build_model("lenet5"))
        qblocks = [m for _, m in model.named_modules() if isinstance(m, QuantizedConvBlock)]
        assert qblocks  # the non-fused conv got wrapped
        with no_grad():
            out = model(x32)
        assert np.isfinite(out.data).all()

    def test_idempotent_failure_is_loud(self):
        model, _ = mlcnn_pipeline().run(build_model("lenet5"))
        with pytest.raises(ValueError):
            mlcnn_pipeline().run(model)  # nothing left to fuse


#: one axis per condition of ConvBlock.is_fusable; the first value passes
FUSABILITY_GRID = list(
    itertools.product(
        ("avg", "max"),  # pool kind
        ("pool_act", "act_pool"),  # order
        (1, 2),  # conv stride
        ((1, 1), (0, 1)),  # padding
        ((3, 3), (3, 5)),  # kernel
        (3, 2),  # pool stride, pool size 3: equal, then overlapping
    )
)


def _grid_block(kind, order, stride, padding, kernel, pool_stride):
    return ConvBlock(
        2, 3, kernel, stride=stride, padding=padding,
        pool=PoolSpec(kind, 3, stride=pool_stride), order=order,
        rng=np.random.default_rng(0),
    )


class TestOneFusabilityPredicate:
    """``ConvBlock.is_fusable`` alone decides: ``fuse_network`` fuses
    exactly the blocks it accepts, ``FusedConvPool`` rejects exactly the
    others, and every accepted block computes what the unfused one does."""

    @pytest.mark.parametrize(
        "case", FUSABILITY_GRID, ids=lambda c: "-".join(map(str, c)).replace(" ", "")
    )
    def test_predicate_fuse_network_and_constructor_agree(self, case):
        kind, order, stride, padding, kernel, _ = case
        expected = (
            (kind, order, stride, padding, kernel)
            == ("avg", "pool_act", 1, (1, 1), (3, 3))
        )
        block = _grid_block(*case)
        assert block.is_fusable() == expected
        model, replaced = fuse_network(Sequential(block), strict=False)
        assert isinstance(model[0], FusedConvPool) == expected
        assert len(replaced) == int(expected)
        if not expected:
            with pytest.raises(ValueError, match="not fusable"):
                FusedConvPool(block)
            return
        x = Tensor(np.random.default_rng(1).normal(size=(2, 2, 12, 12)))
        with no_grad():
            want = _grid_block(*case)(x).data
            got = model(x).data
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestFusedActivations:
    """``is_fusable`` does not look at the activation or the bias: a
    fused block applies each activation after the pool, with or without
    a bias, and trains the shared weight as the unfused block does."""

    @pytest.mark.parametrize("pool_stride", (3, 2), ids=["pool3", "pool3s2"])
    @pytest.mark.parametrize("bias", (True, False), ids=["bias", "nobias"])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_fused_block_matches_unfused(self, activation, bias, pool_stride):
        def block():
            return ConvBlock(
                2, 3, 3, padding=1, activation=activation, bias=bias,
                pool=PoolSpec("avg", 3, stride=pool_stride), order="pool_act",
                rng=np.random.default_rng(4),
            )

        unfused, fused_source = block(), block()
        assert fused_source.is_fusable()
        fused = FusedConvPool(fused_source)
        assert fused.activation == activation
        assert (fused.bias is None) == (not bias)
        x = Tensor(np.random.default_rng(5).normal(size=(2, 2, 12, 12)))
        want = unfused(x)
        got = fused(x)
        np.testing.assert_allclose(got.data, want.data, atol=1e-12)
        want.sum().backward()
        got.sum().backward()
        np.testing.assert_allclose(
            fused.weight.grad, unfused.conv.weight.grad, rtol=1e-9, atol=1e-12
        )
        if bias:
            np.testing.assert_allclose(
                fused.bias.grad, unfused.conv.bias.grad, rtol=1e-9, atol=1e-12
            )
