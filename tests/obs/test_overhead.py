"""Overhead guard: every disabled instrument must cost (almost) nothing.

The promise observability rests on: models stay instrumented and hot
paths (the ``Trainer`` batch loop, the quantized kernels) stay wired to
the tracer and the numerics collector, and all of it is free while
switched off — so instrumentation never has to be ripped out.  Each
disabled path gets an absolute per-call bound (microseconds), not a
ratio of two noisy wall times; the disabled wrappers' share of a
forward pass is built from such a bound too.  The cost of the tracer
switched *on* over a whole fit is the required
``telemetry.overhead_pct`` benchmark (``benchmarks/test_telemetry.py``).
"""

import time

import numpy as np

from repro.nn import AvgPool2d, Conv2d, Flatten, Linear, Module, ReLU, Sequential
from repro.nn.tensor import Tensor, no_grad
from repro.obs import get_recorder
from repro.obs.instrument import instrument_model
from repro.obs.numerics import NumericsCollector, record_quant_event
from repro.obs.tracer import Tracer

#: "near-zero": microseconds per call, not tens of microseconds
PER_CALL_BOUND_S = 20e-6


def per_call_s(fn, n: int = 10_000) -> float:
    """Mean wall time of one ``fn()`` call over ``n`` calls."""
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n


class Passthrough(Module):
    """A leaf module whose forward does no work: only the wrapper costs."""

    def forward(self, x):
        return x


def small_model():
    """A Sequential whose forward calls each of its 9 modules once."""
    rng = np.random.default_rng(0)
    return Sequential(
        Conv2d(3, 16, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Conv2d(16, 16, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(16 * 8 * 8, 10, rng=rng),
    )


class TestDisabledOverhead:
    def test_disabled_span_per_call_cost_is_tiny(self):
        t = Tracer(enabled=False)

        def hot():
            with t.span("hot"):
                pass

        cost = per_call_s(hot)
        assert cost < PER_CALL_BOUND_S, f"disabled span costs {cost * 1e6:.2f} us/call"
        assert t.events == []

    def test_disabled_numerics_observe_per_call_cost_is_tiny(self):
        col = NumericsCollector()
        arr = np.zeros(64)
        cost = per_call_s(lambda: col.observe("layer", "forward", arr))
        assert cost < PER_CALL_BOUND_S, f"disabled observe costs {cost * 1e6:.2f} us/call"
        assert col.stats == {}

    def test_disabled_record_quant_event_per_call_cost_is_tiny(self):
        cost = per_call_s(lambda: record_quant_event("dorefa.act_clip", 1, 100))
        assert cost < PER_CALL_BOUND_S, f"inactive quant event costs {cost * 1e6:.2f} us/call"

    def test_disabled_counter_record_per_call_cost_is_tiny(self):
        """``F.conv2d`` and ``F.linear`` reach the recorder on every forward."""
        rec = get_recorder()
        assert not rec.enabled  # the suite never leaves a collection open
        cost = per_call_s(lambda: get_recorder().record(mults=1024))
        assert cost < PER_CALL_BOUND_S, f"inactive counter record costs {cost * 1e6:.2f} us/call"

    def test_disabled_instrument_model_wrapper_per_call_cost_is_tiny(self):
        tracer = Tracer(enabled=False)
        col = NumericsCollector()
        mod = instrument_model(Passthrough(), tracer=tracer, numerics=col)
        x = Tensor(np.zeros(4))
        cost = per_call_s(lambda: mod(x))
        assert cost < PER_CALL_BOUND_S, f"disabled wrapper costs {cost * 1e6:.2f} us/call"
        assert tracer.events == [] and col.stats == {}

    def test_instrumented_disabled_forward_within_a_few_percent(self):
        """A disabled instrumented forward pays one wrapper call per
        module: that count times the best per-call wrapper cost, over
        the plain forward's best wall time, is its overhead."""
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 32, 32)))
        plain = small_model()
        tracer = Tracer(enabled=False)
        col = NumericsCollector()
        instrumented = instrument_model(small_model(), tracer=tracer, numerics=col)
        with no_grad():
            np.testing.assert_array_equal(instrumented(x).data, plain(x).data)
            base = min(per_call_s(lambda: plain(x), n=1) for _ in range(7))
        probe = instrument_model(Passthrough(), tracer=tracer, numerics=col)
        wrapper = min(per_call_s(lambda: probe(x), n=1_000) for _ in range(5))
        overhead = len(list(instrumented.named_modules())) * wrapper / base
        # target is "a few percent"; the bound leaves headroom for CI noise
        assert overhead < 0.15, f"disabled-instrumentation overhead {overhead:.1%}"
        assert tracer.events == [] and col.stats == {} and col.quant == {}
