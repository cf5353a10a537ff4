"""Numeric gradient checks of every differentiable primitive.

Each check compares the autograd gradient against central differences
on small random inputs — the strongest correctness evidence for the
substrate that all accuracy experiments stand on.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from tests.conftest import numeric_gradient

TOL = 5e-5


def check_grads(build, *arrays):
    """Assert autograd grads of scalar ``build(*tensors)`` match numerics."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for arr, t in zip(arrays, tensors):
        num = numeric_gradient(lambda: build(*[Tensor(a) for a in arrays]).item(), arr)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, num, atol=TOL, rtol=TOL)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestArithmeticGradcheck:
    def test_add_broadcast(self, rng):
        check_grads(lambda a, b: (a + b).sum(), rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_sub(self, rng):
        check_grads(lambda a, b: ((a - b) ** 2).sum(), rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))

    def test_mul_broadcast(self, rng):
        check_grads(lambda a, b: (a * b).sum(), rng.normal(size=(2, 1, 3)), rng.normal(size=(4, 1)))

    def test_div(self, rng):
        b = rng.normal(size=(3,)) + 3.0  # keep away from zero
        check_grads(lambda a, b: (a / b).sum(), rng.normal(size=(2, 3)), b)

    def test_matmul_batched(self, rng):
        check_grads(
            lambda a, b: (a @ b).sum(),
            rng.normal(size=(2, 3, 4)),
            rng.normal(size=(2, 4, 5)),
        )

    def test_pow(self, rng):
        check_grads(lambda a: (a ** 3).sum(), rng.normal(size=(4,)))


class TestElementwiseGradcheck:
    def test_exp(self, rng):
        check_grads(lambda a: a.exp().sum(), rng.normal(size=(3, 3)) * 0.5)

    def test_log(self, rng):
        check_grads(lambda a: a.log().sum(), rng.uniform(0.5, 2.0, size=(5,)))

    def test_tanh(self, rng):
        check_grads(lambda a: a.tanh().sum(), rng.normal(size=(4,)))

    def test_sigmoid(self, rng):
        check_grads(lambda a: a.sigmoid().sum(), rng.normal(size=(4,)))

    def test_relu_away_from_kink(self, rng):
        x = rng.normal(size=(20,))
        x[np.abs(x) < 0.1] = 0.5
        check_grads(lambda a: a.relu().sum(), x)


class TestFunctionalGradcheck:
    def test_conv2d_all_inputs(self, rng):
        check_grads(
            lambda x, w, b: (F.conv2d(x, w, b, stride=1, padding=1) ** 2).sum(),
            rng.normal(size=(2, 2, 5, 5)),
            rng.normal(size=(3, 2, 3, 3)),
            rng.normal(size=(3,)),
        )

    def test_conv2d_strided(self, rng):
        check_grads(
            lambda x, w: (F.conv2d(x, w, stride=2) ** 2).sum(),
            rng.normal(size=(1, 2, 7, 7)),
            rng.normal(size=(2, 2, 3, 3)),
        )

    def test_conv2d_rect_kernel(self, rng):
        check_grads(
            lambda x, w: F.conv2d(x, w, stride=(1, 2), padding=(1, 0)).sum(),
            rng.normal(size=(1, 1, 5, 6)),
            rng.normal(size=(2, 1, 2, 3)),
        )

    def test_avg_pool(self, rng):
        check_grads(lambda x: (F.avg_pool2d(x, 2) ** 2).sum(), rng.normal(size=(2, 2, 6, 6)))

    def test_avg_pool_overlapping(self, rng):
        check_grads(lambda x: F.avg_pool2d(x, 3, stride=2).sum(), rng.normal(size=(1, 1, 7, 7)))

    def test_avg_pool_padded(self, rng):
        check_grads(lambda x: (F.avg_pool2d(x, 3, 1, padding=1) ** 2).sum(), rng.normal(size=(1, 2, 5, 5)))

    def test_max_pool(self, rng):
        # distinct values keep argmax stable under the eps perturbation
        x = rng.permutation(72).astype(float).reshape(2, 1, 6, 6)
        check_grads(lambda x: (F.max_pool2d(x, 2) * 0.1).sum(), x)

    def test_max_pool_padded(self, rng):
        x = rng.permutation(50).astype(float).reshape(1, 2, 5, 5)
        check_grads(lambda x: F.max_pool2d(x, 3, 2, padding=1).sum(), x)

    def test_linear(self, rng):
        check_grads(
            lambda x, w, b: (F.linear(x, w, b) ** 2).sum(),
            rng.normal(size=(4, 3)),
            rng.normal(size=(2, 3)),
            rng.normal(size=(2,)),
        )

    def test_softmax(self, rng):
        weights = Tensor(rng.normal(size=(3, 4)))
        check_grads(lambda x: (F.softmax(x) * weights).sum(), rng.normal(size=(3, 4)))

    def test_log_softmax(self, rng):
        weights = Tensor(rng.normal(size=(3, 4)))
        check_grads(lambda x: (F.log_softmax(x) * weights).sum(), rng.normal(size=(3, 4)))

    def test_cross_entropy(self, rng):
        targets = np.array([0, 2, 1])
        check_grads(lambda x: F.cross_entropy(x, targets), rng.normal(size=(3, 4)))

    def test_concat(self, rng):
        check_grads(
            lambda a, b: (F.concat([a, b], axis=1) ** 2).sum(),
            rng.normal(size=(2, 3, 2, 2)),
            rng.normal(size=(2, 1, 2, 2)),
        )

    def test_global_avg_pool(self, rng):
        check_grads(lambda x: (F.global_avg_pool2d(x) ** 2).sum(), rng.normal(size=(2, 3, 4, 4)))


class TestFusedKernelGradcheck:
    def test_fused_conv_pool_grads(self, rng):
        from repro.core.fusion import fused_conv_pool

        check_grads(
            lambda x, w, b: (fused_conv_pool(x, w, b, pool=2, activation="none") ** 2).sum(),
            rng.normal(size=(1, 2, 7, 7)),
            rng.normal(size=(2, 2, 2, 2)),
            rng.normal(size=(2,)),
        )

    def test_fused_conv_pool_padded_grads(self, rng):
        from repro.core.fusion import fused_conv_pool

        check_grads(
            lambda x, w: (fused_conv_pool(x, w, pool=2, padding=1, activation="tanh")).sum(),
            rng.normal(size=(1, 1, 6, 6)),
            rng.normal(size=(1, 1, 3, 3)),
        )
