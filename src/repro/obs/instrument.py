"""Opt-in per-layer tracing for :class:`repro.nn.layers.Module` trees.

:func:`instrument_model` walks ``named_modules()`` and wraps every
module's ``forward`` with a tracer span — no layer code changes, works
on any zoo model.  Container modules (``Sequential`` etc.) get a
``<name>.forward`` span that *encloses* their children's spans, so the
exported trace shows the model's call tree as nested slices.

Leaf modules additionally get backward attribution: the autograd
closure (``Tensor._backward``) their forward produced is wrapped so the
reverse pass records ``<name>.backward`` spans.  (For the layers in
:mod:`repro.nn`, that closure performs essentially all of the layer's
backward arithmetic.)

Passing ``numerics=`` attaches a
:class:`~repro.obs.numerics.NumericsCollector` through the same
wrappers: each leaf's forward output and backward gradient pass its
NaN/inf watchdog, and the clip events of quantized paths executing
inside a layer's forward get attributed to it.

Passing ``counters=True`` arms the attribution join
(:mod:`repro.obs.attrib`): while the tracer is enabled, each *leaf*
forward runs under :func:`repro.nn.counters.collect_counters` and the
measured :class:`~repro.nn.counters.OpCounters` (non-zero fields only)
are attached to the span as a ``counters`` attr, alongside a
``bytes_io`` estimate (input + parameter + output array bytes — the
compulsory-traffic lower bound).  Every kernel records the
multiplications it performs, so every arithmetic leaf (``Conv2d``,
``Linear``, fused and quantized blocks) carries measured counters.
Kernel-lowered modules also report which lowered kernel executed
(``kernel`` attr), so a trace localizes regressions to kernel
selections.

The wrappers check ``tracer.enabled`` (and ``numerics.enabled``) first
and delegate straight to the original ``forward`` when both are off,
keeping an instrumented model usable on the hot path;
:func:`deinstrument_model` removes the wrappers entirely.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.counters import collect_counters
from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.obs.numerics import NumericsCollector
from repro.obs.tracer import Tracer, get_tracer

__all__ = ["instrument_model", "deinstrument_model"]

#: attribute stashing the original forward on instrumented modules
_ORIG_ATTR = "_obs_orig_forward"


def _tensor_nbytes(value) -> int:
    if isinstance(value, Tensor):
        return int(value.data.nbytes)
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    return 0


def _wrap_backward(
    out: Tensor, label: str, tracer: Tracer, numerics: Optional[NumericsCollector]
) -> None:
    orig_bw = out._backward

    def traced_backward(grad) -> None:
        watch = numerics is not None and numerics.enabled
        if watch:
            numerics.observe(label, "backward", grad)
        if not tracer.enabled:
            return orig_bw(grad)
        with tracer.span(label + ".backward", category="nn"):
            orig_bw(grad)

    out._backward = traced_backward


def _wrap_forward(
    mod: Module,
    label: str,
    tracer: Tracer,
    numerics: Optional[NumericsCollector],
    counters: bool,
) -> None:
    orig = mod.forward
    # Modules that inline their children's computation (e.g.
    # QuantizedConvBlock) set ``_numerics_leaf``: no child forward runs
    # inside them, so they are the observation point themselves.
    is_leaf = not mod._modules or getattr(mod, "_numerics_leaf", False)
    cls_name = type(mod).__name__
    param_bytes = sum(int(p.data.nbytes) for p in mod.parameters()) if is_leaf else 0

    def traced_forward(*args, **kwargs):
        watch = numerics is not None and numerics.enabled
        if not tracer.enabled and not watch:
            return orig(*args, **kwargs)
        if watch:
            numerics._push_layer(label)
        try:
            if tracer.enabled:
                with tracer.span(label + ".forward", category="nn", cls=cls_name) as sp:
                    if counters and is_leaf:
                        with collect_counters() as oc:
                            out = orig(*args, **kwargs)
                        nonzero = {
                            k: v
                            for k, v in oc.as_dict(include_derived=False).items()
                            if v
                        }
                        if nonzero:
                            sp.set(counters=nonzero)
                        in_bytes = sum(_tensor_nbytes(a) for a in args)
                        sp.set(
                            bytes_io=in_bytes + param_bytes + _tensor_nbytes(out)
                        )
                        kern = getattr(mod, "kernel", None)
                        if kern is not None:
                            sp.set(kernel=getattr(kern, "name", str(kern)))
                    else:
                        out = orig(*args, **kwargs)
            else:
                out = orig(*args, **kwargs)
        finally:
            if watch:
                numerics._pop_layer()
        if is_leaf and isinstance(out, Tensor):
            if watch:
                numerics.observe(label, "forward", out.data)
            if out._backward is not None:
                _wrap_backward(out, label, tracer, numerics)
        return out

    object.__setattr__(mod, _ORIG_ATTR, orig)
    object.__setattr__(mod, "forward", traced_forward)


def instrument_model(
    model: Module,
    tracer: Optional[Tracer] = None,
    prefix: str = "",
    numerics: Optional[NumericsCollector] = None,
    counters: bool = False,
) -> Module:
    """Attach forward/backward spans to every module of ``model``.

    Span names are the dotted module paths from ``named_modules()``
    (``features.0.forward`` …), optionally under ``prefix``.  The root
    module's span is ``prefix`` itself, or the lowercased class name
    when no prefix is given.  When ``numerics`` is given, leaf forward
    outputs and backward gradients additionally pass its NaN/inf
    watchdog, and quantized clip events are attributed to the running
    layer, whenever the collector is enabled.  When
    ``counters=True``, leaf spans carry measured
    :class:`~repro.nn.counters.OpCounters`, a ``bytes_io`` traffic
    estimate and the executing kernel name while the tracer is enabled
    — the inputs of the attribution join.  Idempotent:
    already-instrumented modules are left alone (so pass ``numerics``
    and ``counters`` at first instrumentation).  Returns ``model``.
    """
    tracer = tracer or get_tracer()
    for name, mod in model.named_modules():
        if getattr(mod, _ORIG_ATTR, None) is not None:
            continue
        label = ".".join(p for p in (prefix, name) if p) or type(mod).__name__.lower()
        _wrap_forward(mod, label, tracer, numerics, counters)
    return model


def deinstrument_model(model: Module) -> Module:
    """Remove the wrappers installed by :func:`instrument_model`."""
    for _, mod in model.named_modules():
        orig = getattr(mod, _ORIG_ATTR, None)
        if orig is not None:
            if "forward" in mod.__dict__:
                del mod.__dict__["forward"]
            del mod.__dict__[_ORIG_ATTR]
    return model
