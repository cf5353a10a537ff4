"""float32 training mode (Module.to_dtype)."""

import numpy as np
import pytest

from repro import mlcnn_pipeline
from repro.data import SyntheticImageConfig, make_synth_cifar, train_val_split
from repro.models import MODEL_REGISTRY, build_model
from repro.nn import Conv2d, ReLU, Sequential, functional as F
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor, no_grad
from repro.train import TrainConfig, Trainer

from tests.conftest import ZOO_WIDTH


class TestToDtype:
    def test_parameters_cast(self):
        model = build_model("lenet5")
        model.to_dtype(np.float32)
        for _, p in model.named_parameters():
            assert p.data.dtype == np.float32

    def test_forward_stays_float32(self):
        model = build_model("lenet5").to_dtype(np.float32)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32))
        with no_grad():
            out = model(x)
        assert out.dtype == np.float32

    def test_float32_matches_float64_closely(self):
        x64 = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        m64 = build_model("lenet5", seed=3)
        m32 = build_model("lenet5", seed=3).to_dtype(np.float32)
        with no_grad():
            y64 = m64(Tensor(x64)).data
            y32 = m32(Tensor(x64.astype(np.float32))).data
        np.testing.assert_allclose(y32, y64, rtol=1e-3, atol=1e-3)

    def test_training_step_in_float32(self):
        model = build_model("lenet5", num_classes=4, image_size=16).to_dtype(np.float32)
        opt = SGD(model.parameters(), lr=0.01)
        x = Tensor(np.random.default_rng(1).normal(size=(8, 3, 16, 16)).astype(np.float32))
        loss = F.cross_entropy(model(x), np.zeros(8, dtype=int))
        loss.backward()
        for _, p in model.named_parameters():
            assert p.grad is not None
            assert p.grad.dtype == np.float32
        opt.step()
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError):
            build_model("lenet5").to_dtype(np.int32)

    def test_cast_back_to_float64(self):
        model = build_model("lenet5").to_dtype(np.float32).to_dtype(np.float64)
        assert all(p.data.dtype == np.float64 for p in model.parameters())

    def test_train_mode_forward_after_cast(self):
        model = Sequential(Conv2d(1, 2, 3, rng=np.random.default_rng(0)), ReLU())
        model.to_dtype(np.float32)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 1, 6, 6)).astype(np.float32))
        out = model(x)
        assert out.dtype == np.float32
        assert np.isfinite(out.data).all()



class TestZooToDtype:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_cast_rounds_every_parameter_and_drops_grads(self, name):
        """``to_dtype(float32)`` rounds each parameter of the model and
        drops its stale float64 gradient; the float32 forward stays close
        to the float64 one."""
        m64 = build_model(name, width_mult=ZOO_WIDTH[name], seed=3)
        m32 = build_model(name, width_mult=ZOO_WIDTH[name], seed=3)
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        m32(Tensor(x)).sum().backward()
        m32.to_dtype(np.float32)
        for (n, p), (_, p64) in zip(m32.named_parameters(), m64.named_parameters()):
            assert p.data.dtype == np.float32, n
            assert p.grad is None, n
            np.testing.assert_array_equal(p.data, p64.data.astype(np.float32))
        with no_grad():
            y64 = m64(Tensor(x)).data
            y32 = m32(Tensor(x.astype(np.float32))).data
        assert y32.dtype == np.float32
        np.testing.assert_allclose(y32, y64, rtol=1e-3, atol=1e-3)


def _cast(build):
    return lambda: build().to_dtype(np.float32)


#: float32 models to fit: each cast with ``to_dtype``, except the lowered
#: lenet5, which the ``lower`` pass casts
FLOAT32_FIT_MODELS = {
    "lenet5": _cast(lambda: build_model("lenet5", num_classes=4)),
    "lenet5-compiled": _cast(
        lambda: mlcnn_pipeline().run(build_model("lenet5", num_classes=4))[0]
    ),
    "lenet5-lowered": lambda: mlcnn_pipeline(lower_bits=32).run(
        build_model("lenet5", num_classes=4)
    )[0],
    "alexnet": _cast(lambda: build_model("alexnet", num_classes=4, width_mult=0.125)),
    "vgg16-dropout": _cast(
        lambda: build_model("vgg16", num_classes=4, width_mult=0.125, dropout=0.5)
    ),
    "googlenet": _cast(lambda: build_model("googlenet", num_classes=4, width_mult=0.125)),
    "densenet": _cast(lambda: build_model("densenet", num_classes=4, width_mult=0.125)),
    "resnet18": _cast(lambda: build_model("resnet18", num_classes=4, width_mult=0.125)),
}


def _record_dtypes(model):
    """Wrap every module's forward to record its output's dtype and the
    dtype of the gradient its backward receives."""
    seen = set()
    for name, mod in model.named_modules():

        def forward(*args, _orig=mod.forward, _name=name or "<root>", **kwargs):
            out = _orig(*args, **kwargs)
            seen.add((_name, "output", out.dtype))
            backward = out._backward
            if backward is not None:

                def traced(g, _bw=backward):
                    seen.add((_name, "gradient", g.dtype))
                    _bw(g)

                out._backward = traced
            return out

        object.__setattr__(mod, "forward", forward)
    return seen


class TestFloat32Fit:
    @pytest.mark.parametrize("name", sorted(FLOAT32_FIT_MODELS))
    def test_fit_computes_in_float32(self, name):
        """The Trainer casts the loader's float64 batches, and scalars,
        pooling means, the loss and dropout masks stay float32; a
        lowered model's validation forwards run its fp32 kernels."""
        data = make_synth_cifar(
            SyntheticImageConfig(num_classes=4, samples_per_class=4, max_shift=2, seed=7)
        )
        train_set, val_set = train_val_split(data, val_fraction=0.25, seed=7)
        model = FLOAT32_FIT_MODELS[name]()
        seen = _record_dtypes(model)
        trainer = Trainer(
            model, train_set, val_set,
            TrainConfig(epochs=1, batch_size=8, optimizer="adam", lr=1e-3),
        )
        trainer.fit()
        assert {kind for _, kind, _ in seen} == {"output", "gradient"}
        assert sorted(s for s in seen if s[2] != np.float32) == []
        for p in model.parameters():
            assert p.data.dtype == np.float32 and p.grad.dtype == np.float32
        states = trainer.optimizer._m + trainer.optimizer._v
        assert all(a.dtype == np.float32 for a in states)


SCALAR_OPS = {
    "t + 1.5": lambda t: t + 1.5,
    "1.5 + t": lambda t: 1.5 + t,
    "t - 2": lambda t: t - 2,
    "2 - t": lambda t: 2 - t,
    "t * 0.1": lambda t: t * 0.1,
    "0.1 * t": lambda t: 0.1 * t,
    "t / 3.0": lambda t: t / 3.0,
    "3.0 / t": lambda t: 3.0 / t,
}


def _leaf(dtype):
    data = np.random.default_rng(0).uniform(0.5, 2.0, size=(4, 3, 2, 2)).astype(dtype)
    return Tensor(data, requires_grad=True)


class TestDtypeRules:
    def test_python_scalar_operand_takes_the_tensor_dtype(self):
        for expr, op in SCALAR_OPS.items():
            t = _leaf(np.float32)
            out = op(t)
            out.sum().backward()
            assert (out.dtype, t.grad.dtype) == (np.float32, np.float32), expr

    def test_float64_scalar_results_are_unchanged(self):
        """A float64 tensor's scalar ops give what NumPy gives the raw
        array, bit for bit."""
        t = _leaf(np.float64)
        a = t.data
        expected = {
            "t + 1.5": a + 1.5, "1.5 + t": 1.5 + a, "t - 2": a - 2, "2 - t": 2 - a,
            "t * 0.1": a * 0.1, "0.1 * t": 0.1 * a, "t / 3.0": a / 3.0, "3.0 / t": 3.0 / a,
        }
        for expr, op in SCALAR_OPS.items():
            out = op(t)
            assert out.dtype == np.float64, expr
            assert np.array_equal(out.data, expected[expr]), expr

    def test_means_and_loss_stay_float32(self):
        t = _leaf(np.float32)
        pooled = F.global_avg_pool2d(t)
        loss = F.cross_entropy(pooled, np.array([0, 1, 2, 0]))
        assert (t.mean().dtype, pooled.dtype, loss.dtype) == (np.float32,) * 3
        loss.backward()
        assert t.grad.dtype == np.float32

    def test_dropout_mask_takes_the_input_dtype(self):
        for dtype in (np.float32, np.float64):
            t = _leaf(dtype)
            out = F.dropout(t, 0.5, training=True, rng=np.random.default_rng(0))
            out.sum().backward()
            assert (out.dtype, t.grad.dtype) == (dtype, dtype)
