"""The lowering stage: bind the fp32 NHWC kernel to fused modules.

:class:`LowerFusedKernelPass` runs at the end of the MLCNN pipeline
when ``mlcnn_pipeline(lower_bits=32)`` asks for it.  It binds a
:class:`~repro.core.kernels.nhwc.F32NHWCKernel` to every
:class:`~repro.core.fusion.FusedConvPool` whose pool stride equals its
pool; gradient-free forwards of those modules then run the kernel,
while training forwards keep the autograd path.  Every other fused
layer (overlapping pools), and every layer of a pipeline without this
pass, runs the module's own float64 forward.

The pass records which layers it lowered twice: in
``PassResult.details["kernels"]`` and as one ``compile.plan`` tracer
event (module path -> kernel name), which run forensics diffs to flag
kernel swaps between runs.

The fp32 kernel deviates from the float64 probe reference by
single-precision round-off, so the pass declares
``preserves_semantics = False``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.compiler.context import CompileContext, PassResult
from repro.compiler.pass_base import Pass, register_pass
from repro.core.fusion import FusedConvPool
from repro.core.kernels import F32NHWCKernel
from repro.nn.layers import Module
from repro.obs.tracer import event

__all__ = ["LowerFusedKernelPass", "lowered_kernels"]


def lowered_kernels(model: Module) -> List[Tuple[str, object]]:
    """(path, bound kernel) for every lowered fused module in ``model``."""
    out = []
    for path, mod in model.named_modules():
        if isinstance(mod, FusedConvPool) and mod.kernel is not None:
            out.append((path, mod.kernel))
    return out


@register_pass
class LowerFusedKernelPass(Pass):
    """Bind the fp32 NHWC kernel to non-overlapping fused layers."""

    name = "lower"
    preserves_params = True
    # fp32 kernels round differently from the f64 probe reference
    preserves_semantics = False

    def applies_to(self, model: Module) -> bool:
        return any(isinstance(m, FusedConvPool) for _, m in model.named_modules())

    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        plan = {}
        for path, mod in model.named_modules():
            if isinstance(mod, FusedConvPool) and mod.pool_stride == mod.pool:
                kernel = F32NHWCKernel(mod.pool)
                mod.attach_kernel(kernel)
                plan[path] = kernel.name
        event("compile.plan", category="compiler", kernels=dict(plan))
        return PassResult(self.name, len(plan), {"kernels": plan})
