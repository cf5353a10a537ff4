"""The lowering stage: cast the model to float32 and bind the fp32 NHWC
kernel to conv layers.

:class:`LowerFusedKernelPass` runs at the end of the MLCNN pipeline
when ``mlcnn_pipeline(lower_bits=32)`` asks for it.  It first casts
every parameter to float32 (:meth:`~repro.nn.layers.Module.to_dtype`),
so a lowered model is float32 from its weights to its logits, as the
accelerator's ``mlcnn-fp32`` configuration is.  The cast comes before
any fold exists: the pipeline's probe forward after the pass builds the
first folds, so each float64 array is freed before its fold is built.
A fold rounds each weight to float32 anyway, so it is bit-identical to
one built from the float64 weights.  The pass then binds a
:class:`~repro.core.kernels.nhwc.F32NHWCKernel` to every layer the
kernel computes: ``F32NHWCKernel(pool)`` to every
:class:`~repro.core.fusion.FusedConvPool` whose pool stride equals its
pool, and ``F32NHWCKernel(1)`` to every stride-1
:class:`~repro.nn.layers.Conv2d` with a square kernel and square
padding (a plain convolution is the fused operator with a 1x1 pool).
Gradient-free forwards of those modules then run the kernel, while
training forwards keep the autograd path.  Only layers whose own
forward runs are bound: a module that inlines its children's
computation (``_numerics_leaf``, e.g.
:class:`~repro.core.quantize.QuantizedConvBlock`) hides its subtree.
Every other layer (FC layers, overlapping pools, strided convs,
quantized blocks) runs the module's own forward in float32; every layer
of a pipeline without this pass runs it in float64.

The pass records which layers it lowered twice: in
``PassResult.details["kernels"]`` and as one ``compile.plan`` tracer
event (module path -> kernel name, ``fused-f32-nhwc`` or
``conv-f32-nhwc``), which run forensics diffs to flag kernel swaps
between runs.

The float32 model deviates from the float64 probe reference by
single-precision round-off, so the pass declares
``preserves_semantics = False``.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.compiler.context import CompileContext, PassResult
from repro.compiler.pass_base import Pass
from repro.core.fusion import FusedConvPool
from repro.core.kernels import F32NHWCKernel
from repro.nn.layers import Conv2d, Module
from repro.obs.tracer import event

__all__ = ["LowerFusedKernelPass", "lowered_kernels"]

#: module types the fp32 kernel can be bound to
_LOWERABLE = (FusedConvPool, Conv2d)


def lowered_kernels(model: Module) -> List[Tuple[str, object]]:
    """(path, bound kernel) for every lowered module in ``model``."""
    out = []
    for path, mod in model.named_modules():
        if isinstance(mod, _LOWERABLE) and mod.kernel is not None:
            out.append((path, mod.kernel))
    return out


def _lowerable(module: Module, prefix: str = "") -> Iterator[Tuple[str, Module]]:
    """(path, module) for every layer the kernel computes whose forward runs."""
    if isinstance(module, _LOWERABLE):
        if module.lowering_pool is not None:
            yield prefix, module
        return
    if getattr(module, "_numerics_leaf", False):
        return  # its forward inlines the children: theirs never runs
    for name, child in module._modules.items():
        yield from _lowerable(child, f"{prefix}.{name}" if prefix else name)


class LowerFusedKernelPass(Pass):
    """Cast the model to float32, then bind the fp32 NHWC kernel to
    non-overlapping fused layers and stride-1 convs."""

    name = "lower"
    preserves_params = True
    # the float32 model rounds differently from the f64 probe reference
    preserves_semantics = False

    def applies_to(self, model: Module) -> bool:
        return any(True for _ in _lowerable(model))

    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        # here, not after the compile: the post-pass probe builds the first folds
        model.to_dtype(np.float32)
        plan = {}
        for path, mod in _lowerable(model):
            kernel = F32NHWCKernel(mod.lowering_pool)
            mod.attach_kernel(kernel)
            plan[path] = kernel.name
        event("compile.plan", category="compiler", kernels=dict(plan))
        return PassResult(self.name, len(plan), {"kernels": plan})
