"""DoReFa quantization (Eqs. 8-9): value properties and STE training."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.quantize import (
    QuantConfig,
    QuantizedConvBlock,
    quantize_activations,
    quantize_k,
    quantize_model,
    quantize_weights,
    ste_quantize_activations,
    ste_quantize_weights,
)
from repro.models import build_model
from repro.models.blocks import ACTIVATIONS, ORDERS, ConvBlock, PoolSpec
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad

from tests.conftest import reference_epilogue


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestQuantizeK:
    def test_levels_count(self):
        """k-bit quantization admits exactly 2^k distinct values in [0,1]."""
        x = np.linspace(0, 1, 1000)
        for k in (1, 2, 4, 8):
            q = quantize_k(x, k)
            assert len(np.unique(q)) == 2 ** k

    def test_endpoints_preserved(self):
        for k in (1, 2, 8):
            assert quantize_k(np.array([0.0]), k) == 0.0
            assert quantize_k(np.array([1.0]), k) == 1.0

    @given(k=st.integers(1, 16), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, k, seed):
        x = np.random.default_rng(seed).uniform(0, 1, size=20)
        q = quantize_k(x, k)
        np.testing.assert_allclose(quantize_k(q, k), q, atol=1e-12)

    @given(k=st.integers(1, 16), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_error_bounded_by_half_step(self, k, seed):
        x = np.random.default_rng(seed).uniform(0, 1, size=50)
        q = quantize_k(x, k)
        assert np.abs(q - x).max() <= 0.5 / (2 ** k - 1) + 1e-12

    def test_32_bit_is_identity(self, rng):
        x = rng.uniform(0, 1, size=10)
        np.testing.assert_array_equal(quantize_k(x, 32), x)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            quantize_k(np.zeros(1), 0)


class TestWeightQuantization:
    def test_output_range(self, rng):
        w = rng.normal(0, 2, size=100)
        q = quantize_weights(w, 8)
        assert q.min() >= -1.0 and q.max() <= 1.0

    def test_monotone(self, rng):
        w = np.sort(rng.normal(size=50))
        q = quantize_weights(w, 8)
        assert (np.diff(q) >= -1e-12).all()

    def test_sign_preserved(self, rng):
        w = rng.normal(size=100)
        w = w[np.abs(w) > 0.1]
        q = quantize_weights(w, 8)
        assert (np.sign(q) == np.sign(w)).all()

    def test_high_bits_approach_tanh_normalization(self, rng):
        w = rng.normal(size=50)
        q = quantize_weights(w, 16)
        t = np.tanh(w)
        expected = t / np.abs(t).max()
        np.testing.assert_allclose(q, expected, atol=1e-3)

    def test_fp32_identity(self, rng):
        w = rng.normal(size=10)
        np.testing.assert_array_equal(quantize_weights(w, 32), w)


class TestActivationQuantization:
    def test_clips_to_unit_interval(self, rng):
        x = rng.normal(0, 3, size=100)
        q = quantize_activations(x, 8)
        assert q.min() >= 0.0 and q.max() <= 1.0

    def test_negative_inputs_become_zero(self):
        assert (quantize_activations(np.array([-5.0, -0.1]), 8) == 0).all()


class TestSTE:
    def test_weight_ste_passes_gradient(self, rng):
        w = Tensor(rng.normal(size=(4,)), requires_grad=True)
        q = ste_quantize_weights(w, 8)
        (q * 2.0).sum().backward()
        np.testing.assert_allclose(w.grad, 2.0)

    def test_activation_ste_masks_out_of_range(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        q = ste_quantize_activations(x, 8)
        q.sum().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 0])


class TestQuantConfig:
    def test_labels(self):
        assert QuantConfig(32, 32).label == "FP32"
        assert QuantConfig(16, 16).label == "FP16"
        assert QuantConfig(8, 8).label == "INT8"

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            QuantConfig(0, 8)


class TestQuantizedModel:
    def test_wraps_every_conv_block(self):
        model = build_model("lenet5")
        quantize_model(model, QuantConfig(8, 8))
        blocks = [m for _, m in model.named_modules() if isinstance(m, QuantizedConvBlock)]
        raw = [m for _, m in model.named_modules() if isinstance(m, ConvBlock)]
        assert len(blocks) == 3
        # the original ConvBlocks survive as children of the wrappers
        assert len(raw) == 3

    def test_first_layer_input_unquantized(self):
        model = build_model("lenet5")
        quantize_model(model, QuantConfig(8, 8))
        blocks = [m for _, m in model.named_modules() if isinstance(m, QuantizedConvBlock)]
        assert blocks[0].quantize_input is False
        assert all(b.quantize_input for b in blocks[1:])

    def test_forward_shape_and_finite(self, rng):
        model = build_model("lenet5")
        quantize_model(model, QuantConfig(8, 8))
        with no_grad():
            out = model(Tensor(rng.normal(size=(2, 3, 32, 32))))
        assert out.shape == (2, 10)
        assert np.isfinite(out.data).all()

    def test_int8_close_to_fp32_forward(self, rng):
        """8-bit quantization perturbs logits only mildly (the paper's
        <1% accuracy story needs outputs to stay close)."""
        x = Tensor(rng.normal(size=(4, 3, 32, 32)))
        fp = build_model("lenet5", seed=3)
        with no_grad():
            ref = fp(x).data
        q = build_model("lenet5", seed=3)
        quantize_model(q, QuantConfig(8, 8))
        with no_grad():
            got = q(x).data
        # rank correlation of logits stays high
        ref_rank = np.argsort(ref, axis=1)
        got_rank = np.argsort(got, axis=1)
        agreement = (ref_rank[:, -1] == got_rank[:, -1]).mean()
        assert agreement >= 0.5

    def test_quantized_training_decreases_loss(self, tiny_split):
        from repro.train import TrainConfig, Trainer

        train_set, val_set = tiny_split
        model = build_model("lenet5", num_classes=4, image_size=16)
        quantize_model(model, QuantConfig(8, 8))
        trainer = Trainer(model, train_set, val_set, TrainConfig(epochs=3, batch_size=16, lr=0.05))
        hist = trainer.fit()
        assert hist[-1].train_loss < hist[0].train_loss

    def test_respects_block_order(self, rng):
        blk = ConvBlock(1, 2, 3, pool=PoolSpec("avg", 2), order="pool_act", rng=rng)
        q = QuantizedConvBlock(blk, QuantConfig(8, 8), quantize_input=False)
        x = Tensor(rng.normal(size=(1, 1, 8, 8)))
        with no_grad():
            out = q(x)
        assert (out.data >= 0).all()  # relu applied after pool


class TestQuantizedEpilogue:
    """``QuantizedConvBlock`` convolves the quantized input with the
    quantized weight (Eqs. 8-9) and then runs the wrapped block's own
    epilogue, for every activation, pool and order."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("pool", [None, ("avg", 2, 2), ("max", 2, 2)],
                             ids=["none", "avg2", "max2"])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_forward_matches_quantized_conv_then_epilogue(
        self, activation, pool, order, rng
    ):
        blk = ConvBlock(
            2, 3, 3, padding=1, activation=activation,
            pool=PoolSpec(*pool) if pool else None, order=order, rng=rng,
        )
        q = QuantizedConvBlock(blk, QuantConfig(4, 4))
        x = rng.normal(size=(2, 2, 8, 8))
        with no_grad():
            got = q(Tensor(x)).data
            y = F.conv2d(
                Tensor(quantize_activations(x, 4)),
                Tensor(quantize_weights(blk.conv.weight.data, 4)),
                blk.conv.bias,
                blk.conv.stride,
                blk.conv.padding,
            )
            want = reference_epilogue(y, activation, pool, order).data
        np.testing.assert_array_equal(got, want)
