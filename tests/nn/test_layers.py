"""Module system: registration, traversal, serialization, layers."""

import numpy as np
import pytest

from repro.models import MODEL_REGISTRY, build_model
from repro.nn import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ModuleList,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.tensor import Tensor, no_grad

from tests.conftest import ZOO_WIDTH


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestModulePlumbing:
    def test_parameters_collected_recursively(self, rng):
        m = Sequential(Conv2d(1, 2, 3, rng=rng), ReLU(), Linear(4, 5, rng=rng))
        names = [n for n, _ in m.named_parameters()]
        assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]

    def test_num_parameters(self, rng):
        m = Linear(10, 5, rng=rng)
        assert m.num_parameters() == 10 * 5 + 5

    def test_train_eval_recursive(self, rng):
        m = Sequential(Dropout(0.5), Sequential(Dropout(0.2)))
        m.eval()
        assert all(not mod.training for _, mod in m.named_modules())
        m.train()
        assert all(mod.training for _, mod in m.named_modules())

    def test_zero_grad_clears_all(self, rng):
        m = Linear(3, 2, rng=rng)
        out = m(Tensor(rng.normal(size=(4, 3))))
        out.sum().backward()
        assert m.weight.grad is not None
        m.zero_grad()
        assert m.weight.grad is None and m.bias.grad is None

    def test_state_dict_roundtrip(self, rng):
        m1 = Sequential(Conv2d(1, 2, 3, rng=rng), Linear(4, 2, rng=rng))
        m2 = Sequential(
            Conv2d(1, 2, 3, rng=np.random.default_rng(99)),
            Linear(4, 2, rng=np.random.default_rng(99)),
        )
        sd = m1.state_dict()
        assert list(sd) == ["0.weight", "0.bias", "1.weight", "1.bias"]
        m2.load_state_dict(sd)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_load_state_dict_missing_key_raises(self, rng):
        m = Linear(2, 2, rng=rng)
        with pytest.raises(KeyError):
            m.load_state_dict({"weight": np.zeros((2, 2))})

    def test_load_state_dict_shape_mismatch_raises(self, rng):
        m = Linear(2, 2, rng=rng)
        sd = m.state_dict()
        sd["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            m.load_state_dict(sd)

    def test_repr_contains_children(self, rng):
        r = repr(Sequential(Conv2d(1, 2, 3, rng=rng)))
        assert "Conv2d" in r

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor(np.zeros(1)))



class TestZooStateDict:
    """``state_dict``/``load_state_dict`` carry every zoo model's
    parameters, which is how ``Trainer.fit`` keeps its best epoch."""

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_roundtrip_reproduces_forward(self, name):
        src = build_model(name, width_mult=ZOO_WIDTH[name], seed=1)
        dst = build_model(name, width_mult=ZOO_WIDTH[name], seed=2)
        sd = src.state_dict()
        assert list(sd) == [n for n, _ in src.named_parameters()]
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32)))
        with no_grad():
            want = src(x).data
            assert not np.array_equal(dst(x).data, want)
            dst.load_state_dict(sd)
            np.testing.assert_array_equal(dst(x).data, want)

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_state_is_a_copy_and_load_writes_in_place(self, name):
        model = build_model(name, width_mult=ZOO_WIDTH[name], seed=1)
        sd = model.state_dict()
        params = dict(model.named_parameters())
        for key, arr in sd.items():
            assert arr is not params[key].data
            arr += 1.0  # editing the snapshot leaves the model alone
        assert not any(
            np.array_equal(arr, params[key].data) for key, arr in sd.items()
        )
        before = {key: p.data for key, p in params.items()}
        model.load_state_dict(sd)
        for key, p in params.items():
            # in place: a lowered layer's fold, which the data is a view of, sees it
            assert p.data is before[key]
            np.testing.assert_array_equal(p.data, sd[key])


class TestContainers:
    def test_sequential_order(self, rng):
        m = Sequential(Flatten(), Linear(4, 4, rng=rng), ReLU())
        out = m(Tensor(rng.normal(size=(2, 1, 2, 2))))
        assert out.shape == (2, 4)
        assert (out.data >= 0).all()

    def test_sequential_indexing_and_append(self, rng):
        m = Sequential(ReLU())
        m.append(Tanh())
        assert len(m) == 2
        assert isinstance(m[1], Tanh)

    def test_module_list(self, rng):
        ml = ModuleList([ReLU(), Sigmoid()])
        assert len(ml) == 2
        assert [type(x).__name__ for x in ml] == ["ReLU", "Sigmoid"]
        with pytest.raises(RuntimeError):
            ml(Tensor(np.zeros(1)))


class TestLayers:
    def test_conv2d_shapes_and_config(self, rng):
        c = Conv2d(3, 8, (3, 5), stride=(1, 2), padding=(1, 2), rng=rng)
        out = c(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 8, 4)

    def test_conv2d_no_bias(self, rng):
        c = Conv2d(1, 1, 3, bias=False, rng=rng)
        assert c.bias is None
        assert len(c.parameters()) == 1

    def test_linear_forward(self, rng):
        l = Linear(4, 2, rng=rng)
        out = l(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 2)

    def test_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        assert Identity()(x) is x

    def test_pool_layers(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 8, 8)))
        assert AvgPool2d(2)(x).shape == (1, 2, 4, 4)
        assert MaxPool2d(2)(x).shape == (1, 2, 4, 4)
        assert MaxPool2d(3, 1, padding=1)(x).shape == (1, 2, 8, 8)

    def test_dropout_train_vs_eval(self, rng):
        d = Dropout(0.5, rng=rng)
        x = Tensor(np.ones((10, 10)))
        train_out = d(x).data
        d.eval()
        eval_out = d(x).data
        assert (eval_out == 1.0).all()
        assert (train_out == 0.0).any()

    def test_flatten(self, rng):
        out = Flatten()(Tensor(rng.normal(size=(2, 3, 4, 5))))
        assert out.shape == (2, 60)

    def test_activations(self):
        x = Tensor(np.array([-1.0, 1.0]))
        assert np.allclose(ReLU()(x).data, [0, 1])
        assert np.allclose(Tanh()(x).data, np.tanh([-1, 1]))
        assert np.allclose(Sigmoid()(x).data, 1 / (1 + np.exp([1, -1])))


class TestTrainingIntegration:
    def test_gradients_reach_all_parameters(self, rng):
        m = Sequential(
            Conv2d(1, 2, 3, padding=1, rng=rng),
            ReLU(),
            AvgPool2d(2),
            Flatten(),
            Linear(2 * 4 * 4, 3, rng=rng),
        )
        out = m(Tensor(rng.normal(size=(2, 1, 8, 8))))
        (out ** 2).sum().backward()
        for name, p in m.named_parameters():
            assert p.grad is not None, f"no gradient for {name}"
            assert np.isfinite(p.grad).all()
