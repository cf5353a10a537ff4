"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticImageConfig, make_synth_cifar, train_val_split

#: a width at which each zoo model builds and runs quickly at 32 px
ZOO_WIDTH = {"alexnet": 0.25, "lenet5": 1.0, "vgg16": 0.125, "vgg19": 0.125,
             "googlenet": 0.0625, "densenet": 0.5, "resnet18": 0.125}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def enabled_tracer():
    """The global repro.obs tracer, enabled and cleaned for one test."""
    from repro.obs import get_tracer

    tracer = get_tracer()
    tracer.clear()
    tracer.enable()
    try:
        yield tracer
    finally:
        tracer.disable()
        tracer.clear()


@pytest.fixture
def tiny_dataset():
    """A small 4-class dataset usable for fast training tests."""
    cfg = SyntheticImageConfig(
        num_classes=4, samples_per_class=16, image_size=16, max_shift=2, seed=7
    )
    return make_synth_cifar(cfg)


@pytest.fixture
def tiny_split(tiny_dataset):
    return train_val_split(tiny_dataset, val_fraction=0.25, seed=7)


def numeric_gradient(f, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` w.r.t. ``array``.

    ``f`` must read ``array`` afresh on each call (the helper mutates it
    in place and restores it).
    """
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(array.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f()
        flat[i] = old - eps
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def reference_like(model, name="lenet5", width_mult=1.0):
    """The uncompiled float64 zoo model ``name`` (seed 0, set to average
    pooling and reordered, as the MLCNN compile leaves it) carrying
    ``model``'s current weights."""
    from repro import build_model, reorder_activation_pooling, set_pooling

    ref = build_model(name, width_mult=width_mult, seed=0)
    ref = reorder_activation_pooling(set_pooling(ref, "avg")).eval()
    pairs = list(zip(ref.parameters(), model.parameters()))
    assert len(pairs) == len(model.parameters())
    for pr, pm in pairs:
        assert pr.shape == pm.shape
        pr.data = pm.data.astype(np.float64)
    return ref


def reference_epilogue(y, activation, pool, order):
    """``ConvBlock``'s activation and pool after its convolution ``y``,
    composed directly from :mod:`repro.nn.functional`.

    ``pool`` is ``None`` or a ``(kind, kernel, stride)`` triple.
    """
    from repro.nn import functional as F

    act = {"relu": F.relu, "sigmoid": F.sigmoid, "tanh": F.tanh, "none": lambda t: t}[
        activation
    ]
    if pool is None:
        return act(y)
    kind, kernel, stride = pool
    pool_op = F.avg_pool2d if kind == "avg" else F.max_pool2d
    if order == "act_pool":
        return pool_op(act(y), kernel, stride)
    return act(pool_op(y, kernel, stride))
