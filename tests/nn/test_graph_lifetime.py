"""Autograd graphs are acyclic: reference counting frees each step's graph.

A backward closure that captured its own output node would make every
graph holding that op a reference cycle, which only the cyclic garbage
collector frees, with all the activations and fused-layer residuals it
keeps alive.  Each case runs one training step (forward, cross-entropy,
backward, an Adam step, ``del loss``) with the collector disabled and
requires that it left nothing for the collector to find.
"""

import gc

import numpy as np
import pytest

from repro import build_model, mlcnn_pipeline
from repro.nn import Flatten, Linear, Sequential, Sigmoid, Tanh, functional as F
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.obs import NumericsCollector, instrument_model


def _unreachable_after_step(model, image_size=32, classes=10):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3, image_size, image_size))
    y = rng.integers(0, classes, size=4)
    opt = Adam(model.parameters(), lr=1e-3)
    model.train()
    gc.collect()
    gc.disable()
    try:
        loss = F.cross_entropy(model(Tensor(x)), y)
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert np.isfinite(loss.item())
        del loss
        return gc.collect()
    finally:
        gc.enable()


ZOO = {
    "lenet5": lambda: build_model("lenet5"),
    "lenet5-compiled": lambda: mlcnn_pipeline().run(build_model("lenet5"))[0],
    "lenet5-int8": lambda: mlcnn_pipeline(bits=8).run(build_model("lenet5"))[0],
    "alexnet": lambda: build_model("alexnet", width_mult=0.125),
    "vgg16": lambda: build_model("vgg16", width_mult=0.125, dropout=0.5),
    "googlenet": lambda: build_model("googlenet", width_mult=0.125),
    "densenet": lambda: build_model("densenet", width_mult=0.125),
    "resnet18": lambda: build_model("resnet18", width_mult=0.125),
}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_training_step_leaves_no_cycles(name):
    assert _unreachable_after_step(ZOO[name]()) == 0


def test_tanh_and_sigmoid_layers_leave_no_cycles():
    rng = np.random.default_rng(1)
    model = Sequential(
        Flatten(),
        Linear(3 * 8 * 8, 16, rng=rng),
        Tanh(),
        Linear(16, 16, rng=rng),
        Sigmoid(),
        Linear(16, 4, rng=rng),
    )
    assert _unreachable_after_step(model, image_size=8, classes=4) == 0


def test_traced_and_watched_step_leaves_no_cycles(enabled_tracer):
    """The tracer's and the watchdog's backward wrappers hold no node."""
    watch = NumericsCollector()
    model = instrument_model(
        mlcnn_pipeline().run(build_model("lenet5"))[0],
        tracer=enabled_tracer,
        numerics=watch,
    )
    with watch:
        assert _unreachable_after_step(model) == 0
    assert any(ev.name.endswith(".backward") for ev in enabled_tracer.events)
    assert watch.first_anomaly is None
