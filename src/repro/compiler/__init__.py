"""repro.compiler — compiler-style pass pipeline over model graphs.

The paper's contribution is a *sequence* of cross-layer rewrites —
reorder activation/pooling, switch to average pooling, fuse conv+pool
(RME/LAR/GAR), then quantize.  This package turns each rewrite into a
registered :class:`Pass` and executes them with a :class:`Pipeline`
that validates (functional spot-check on a probe batch, parameter
invariance, MAC deltas) and instruments (per-pass wall time, rewrite
counts) every step, producing a structured :class:`CompileReport`.

Quickstart::

    from repro.compiler import CompileContext, mlcnn_pipeline
    model, report = mlcnn_pipeline(bits=8).run(model, CompileContext(seed=0))
    print(report.summary())

Custom orderings compose from registered pass names or instances::

    from repro.compiler import Pipeline
    pipe = Pipeline(["set-pooling", "reorder", "fuse", "prune"])
"""

from repro.compiler.context import CompileContext, PassResult, PassValidationError
from repro.compiler.pass_base import (
    Pass,
    PASS_REGISTRY,
    register_pass,
    get_pass,
    available_passes,
)
from repro.compiler.passes import (
    SetPoolingPass,
    ReorderActivationPoolingPass,
    RestoreOrderPass,
    AllConvPass,
    FuseConvPoolPass,
    QuantizePass,
    PrunePass,
    ReorderDivergenceProbePass,
)
from repro.compiler.lower import LowerFusedKernelPass, lowered_kernels
from repro.compiler.pipeline import (
    Pipeline,
    PassRecord,
    CompileReport,
    mlcnn_pipeline,
)
from repro.compiler.cache import (
    PLAN_CACHE,
    PlanCache,
    architecture_signature,
    clear_plan_cache,
)

__all__ = [
    "CompileContext",
    "PassResult",
    "PassValidationError",
    "Pass",
    "PASS_REGISTRY",
    "register_pass",
    "get_pass",
    "available_passes",
    "SetPoolingPass",
    "ReorderActivationPoolingPass",
    "RestoreOrderPass",
    "AllConvPass",
    "FuseConvPoolPass",
    "QuantizePass",
    "PrunePass",
    "ReorderDivergenceProbePass",
    "LowerFusedKernelPass",
    "lowered_kernels",
    "Pipeline",
    "PassRecord",
    "CompileReport",
    "mlcnn_pipeline",
    "PLAN_CACHE",
    "PlanCache",
    "architecture_signature",
    "clear_plan_cache",
]
