"""Optimizers and initializers."""

import numpy as np
import pytest

from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor


def quadratic_loss(params):
    """f(x) = ||x - 3||^2, minimized at 3."""
    x = params[0]
    return ((x - 3.0) ** 2).sum()


def run_steps(opt, params, steps=200):
    for _ in range(steps):
        loss = quadratic_loss(params)
        opt.zero_grad()
        loss.backward()
        opt.step()
    return quadratic_loss(params).item()


class TestSGD:
    def test_converges_on_quadratic(self):
        x = Tensor(np.array([10.0, -5.0]), requires_grad=True)
        assert run_steps(SGD([x], lr=0.1), [x]) < 1e-6

    def test_momentum_converges(self):
        x = Tensor(np.array([10.0]), requires_grad=True)
        assert run_steps(SGD([x], lr=0.05, momentum=0.9), [x]) < 1e-6

    def test_nesterov_converges(self):
        x = Tensor(np.array([10.0]), requires_grad=True)
        assert run_steps(SGD([x], lr=0.05, momentum=0.9, nesterov=True), [x]) < 1e-6

    def test_weight_decay_shrinks_solution(self):
        x = Tensor(np.array([10.0]), requires_grad=True)
        run_steps(SGD([x], lr=0.1, weight_decay=1.0), [x])
        # decay pulls the optimum below 3
        assert 0 < x.data[0] < 3.0

    def test_skips_params_without_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([x, y], lr=0.1)
        loss = (x * 2).sum()
        loss.backward()
        opt.step()
        assert y.data[0] == 1.0

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_rejects_bad_lr(self):
        x = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([x], lr=-1.0)

    def test_rejects_bad_momentum(self):
        x = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([x], lr=0.1, momentum=1.5)


#: three fixed gradients fed to each update-rule test
GRADS = np.random.default_rng(5).normal(size=(3, 4))


def _feed(opt, p):
    """Step ``opt`` once per row of :data:`GRADS`, recording ``p``."""
    seen = []
    for g in GRADS:
        p.grad = g.copy()
        opt.step()
        seen.append(p.data.copy())
    return seen


class TestSGDUpdateRule:
    @pytest.mark.parametrize("nesterov", (False, True), ids=["plain", "nesterov"])
    @pytest.mark.parametrize("weight_decay", (0.0, 1e-4), ids=["wd0", "wd1e-4"])
    @pytest.mark.parametrize("momentum", (0.0, 0.9), ids=["m0", "m0.9"])
    def test_steps_follow_the_update_rule(self, momentum, weight_decay, nesterov):
        """p -= lr * d, with d = g + wd * p, then (given momentum)
        v = m * v + d and d = v, or d + m * v for Nesterov."""
        start = np.random.default_rng(6).normal(size=4)
        p = Tensor(start.copy(), requires_grad=True)
        opt = SGD([p], lr=0.1, momentum=momentum, weight_decay=weight_decay,
                  nesterov=nesterov)
        got = _feed(opt, p)
        want, v = start.copy(), np.zeros(4)
        for g, seen in zip(GRADS, got):
            d = g + weight_decay * want
            if momentum:
                v = momentum * v + d
                d = d + momentum * v if nesterov else v
            want = want - 0.1 * d
            np.testing.assert_allclose(seen, want, rtol=1e-12, atol=0)
        assert p._version == len(GRADS)


class TestAdam:
    def test_converges_on_quadratic(self):
        x = Tensor(np.array([10.0, -4.0]), requires_grad=True)
        assert run_steps(Adam([x], lr=0.2), [x], steps=400) < 1e-4

    def test_bias_correction_first_step(self):
        # After one step with |grad| >> eps, Adam moves by ~lr.
        x = Tensor(np.array([10.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        loss = quadratic_loss([x])
        loss.backward()
        opt.step()
        assert np.isclose(x.data[0], 10.0 - 0.1, atol=1e-3)

    def test_weight_decay(self):
        x = Tensor(np.array([5.0]), requires_grad=True)
        run_steps(Adam([x], lr=0.1, weight_decay=1.0), [x], steps=500)
        assert x.data[0] < 3.0



class TestAdamUpdateRule:
    @pytest.mark.parametrize("weight_decay", (0.0, 1e-4), ids=["wd0", "wd1e-4"])
    @pytest.mark.parametrize(
        "betas", ((0.9, 0.999), (0.5, 0.9)), ids=["b0.9-0.999", "b0.5-0.9"]
    )
    def test_steps_follow_the_update_rule(self, betas, weight_decay):
        """Moments of d = g + wd * p, bias-corrected by step count."""
        b1, b2 = betas
        start = np.random.default_rng(6).normal(size=4)
        p = Tensor(start.copy(), requires_grad=True)
        opt = Adam([p], lr=0.01, betas=betas, weight_decay=weight_decay)
        got = _feed(opt, p)
        want, m, v = start.copy(), np.zeros(4), np.zeros(4)
        for t, (g, seen) in enumerate(zip(GRADS, got), start=1):
            d = g + weight_decay * want
            m = b1 * m + (1 - b1) * d
            v = b2 * v + (1 - b2) * d * d
            want = want - 0.01 * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + 1e-8)
            np.testing.assert_allclose(seen, want, rtol=1e-12, atol=0)


class TestInit:
    def test_kaiming_normal_std(self):
        from repro.nn import init

        rng = np.random.default_rng(0)
        w = init.kaiming_normal((256, 128), rng)
        assert np.isclose(w.std(), np.sqrt(2.0 / 128), rtol=0.1)

    def test_conv_fan_computation(self):
        from repro.nn.init import _fan

        assert _fan((16, 8, 3, 3)) == (72, 144)
        assert _fan((10, 20)) == (20, 10)
        with pytest.raises(ValueError):
            _fan((1, 2, 3))

    @pytest.mark.parametrize("gain", (np.sqrt(2.0), 1.0), ids=["relu", "unit"])
    @pytest.mark.parametrize(
        "shape", [(256, 128), (512, 64), (64, 32, 3, 3), (128, 16, 5, 5)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_kaiming_normal_scale_and_determinism(self, shape, gain):
        from repro.nn import init
        from repro.nn.init import _fan

        w = init.kaiming_normal(shape, np.random.default_rng(0), gain=gain)
        assert w.shape == shape
        std = gain / np.sqrt(_fan(shape)[0])
        assert np.isclose(w.std(), std, rtol=0.05)
        assert abs(w.mean()) < 0.05 * std
        again = init.kaiming_normal(shape, np.random.default_rng(0), gain=gain)
        np.testing.assert_array_equal(w, again)
