"""Per-module instrumentation: spans via named_modules, no code changes."""

import numpy as np

from repro.nn import AvgPool2d, Conv2d, Flatten, Linear, ReLU, Sequential
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.obs.instrument import deinstrument_model, instrument_model
from repro.obs.tracer import Tracer


def tiny_model(rng=None):
    rng = rng or np.random.default_rng(0)
    return Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(4 * 8 * 8, 4, rng=rng),
    )


def batch(n=2):
    return Tensor(np.random.default_rng(1).normal(size=(n, 3, 16, 16)))


class TestForwardSpans:
    def test_every_module_gets_a_span(self):
        t = Tracer(enabled=True)
        model = instrument_model(tiny_model(), tracer=t, prefix="net")
        model(batch())
        names = {ev.name for ev in t.events}
        assert names == {
            "net.forward",
            "net.0.forward",
            "net.1.forward",
            "net.2.forward",
            "net.3.forward",
            "net.4.forward",
        }

    def test_children_nest_under_container(self):
        t = Tracer(enabled=True)
        model = instrument_model(tiny_model(), tracer=t, prefix="net")
        model(batch())
        (root,) = [ev for ev in t.events if ev.name == "net.forward"]
        for ev in t.events:
            if ev is not root:
                assert ev.parent == root.id
                assert ev.depth == 1

    def test_class_name_attr(self):
        t = Tracer(enabled=True)
        model = instrument_model(tiny_model(), tracer=t, prefix="net")
        model(batch())
        by_name = {ev.name: ev for ev in t.events}
        assert by_name["net.0.forward"].attrs["cls"] == "Conv2d"
        assert by_name["net.4.forward"].attrs["cls"] == "Linear"

    def test_default_root_label_is_class_name(self):
        t = Tracer(enabled=True)
        model = instrument_model(tiny_model(), tracer=t)
        model(batch())
        assert any(ev.name == "sequential.forward" for ev in t.events)

    def test_output_unchanged_by_instrumentation(self):
        x = batch()
        plain = tiny_model()(x).data
        t = Tracer(enabled=True)
        instrumented = instrument_model(tiny_model(), tracer=t)(x).data
        np.testing.assert_array_equal(plain, instrumented)

    def test_instrument_is_idempotent(self):
        t = Tracer(enabled=True)
        model = tiny_model()
        instrument_model(model, tracer=t, prefix="net")
        instrument_model(model, tracer=t, prefix="net")
        model(batch())
        names = [ev.name for ev in t.events if ev.name == "net.0.forward"]
        assert len(names) == 1


class TestBackwardSpans:
    def test_leaf_modules_record_backward(self):
        t = Tracer(enabled=True)
        model = instrument_model(tiny_model(), tracer=t, prefix="net")
        logits = model(batch())
        loss = F.cross_entropy(logits, np.array([0, 1]))
        loss.backward()
        names = {ev.name for ev in t.events}
        assert "net.0.backward" in names  # Conv2d
        assert "net.4.backward" in names  # Linear
        assert "net.forward.backward" not in names  # containers: forward only

    def test_gradients_unaffected(self):
        x = batch()
        labels = np.array([0, 1])
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        plain = tiny_model(rng_a)
        F.cross_entropy(plain(x), labels).backward()
        t = Tracer(enabled=True)
        traced = instrument_model(tiny_model(rng_b), tracer=t)
        F.cross_entropy(traced(x), labels).backward()
        for (_, pa), (_, pb) in zip(plain.named_parameters(), traced.named_parameters()):
            np.testing.assert_allclose(pa.grad, pb.grad)


class TestDisabledAndRemoval:
    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        model = instrument_model(tiny_model(), tracer=t)
        model(batch())
        assert t.events == []

    def test_deinstrument_restores_forward(self):
        t = Tracer(enabled=True)
        model = instrument_model(tiny_model(), tracer=t, prefix="net")
        deinstrument_model(model)
        t.clear()
        out = model(batch())
        assert t.events == []
        assert out.shape == (2, 4)
