"""Leaf-only gradient accumulation."""

import numpy as np

from repro.nn.tensor import Tensor


class TestLeafGradPolicy:
    def test_leaves_accumulate(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * 3).backward(np.ones(1))
        assert np.allclose(x.grad, 3.0)

    def test_intermediates_do_not_accumulate(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3
        (y * 2).backward(np.ones(1))
        assert y.grad is None
        assert np.allclose(x.grad, 6.0)

    def test_parameters_are_leaves(self):
        from repro.nn import Conv2d

        conv = Conv2d(1, 1, 3, rng=np.random.default_rng(0))
        assert conv.weight._is_leaf
        out = conv(Tensor(np.random.default_rng(1).normal(size=(1, 1, 5, 5))))
        assert not out._is_leaf
        out.sum().backward()
        assert conv.weight.grad is not None

    def test_memory_not_held_on_deep_chain(self):
        """A long chain of intermediates keeps grads only at the ends."""
        x = Tensor(np.ones(10), requires_grad=True)
        y = x
        nodes = []
        for _ in range(50):
            y = y * 1.01
            nodes.append(y)
        y.sum().backward()
        assert x.grad is not None
        assert all(n.grad is None for n in nodes)
