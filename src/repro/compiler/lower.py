"""The lowering stage: bind the fp32 NHWC kernel to conv layers.

:class:`LowerFusedKernelPass` runs at the end of the MLCNN pipeline
when ``mlcnn_pipeline(lower_bits=32)`` asks for it.  It binds a
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
Every other layer (overlapping pools, strided convs), and every layer
of a pipeline without this pass, runs the module's own float64 forward.

The pass records which layers it lowered twice: in
``PassResult.details["kernels"]`` and as one ``compile.plan`` tracer
event (module path -> kernel name, ``fused-f32-nhwc`` or
``conv-f32-nhwc``), which run forensics diffs to flag kernel swaps
between runs.

The fp32 kernel deviates from the float64 probe reference by
single-precision round-off, so the pass declares
``preserves_semantics = False``.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

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
    """Bind the fp32 NHWC kernel to non-overlapping fused layers and stride-1 convs."""

    name = "lower"
    preserves_params = True
    # fp32 kernels round differently from the f64 probe reference
    preserves_semantics = False

    def applies_to(self, model: Module) -> bool:
        return any(True for _ in _lowerable(model))

    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        plan = {}
        for path, mod in _lowerable(model):
            kernel = F32NHWCKernel(mod.lowering_pool)
            mod.attach_kernel(kernel)
            plan[path] = kernel.name
        event("compile.plan", category="compiler", kernels=dict(plan))
        return PassResult(self.name, len(plan), {"kernels": plan})
