"""repro.compiler — compiler-style pass pipeline over model graphs.

The paper's contribution is a *sequence* of cross-layer rewrites —
switch to average pooling, reorder activation/pooling, fuse conv+pool
(RME/LAR/GAR), then quantize.  This package turns each rewrite into a
:class:`Pass` built with its own settings and executes a list of them
with a :class:`Pipeline` that validates (functional spot-check on a
probe batch, parameter invariance, MAC deltas) and instruments
(per-pass wall time, rewrite counts) every step, producing a
structured :class:`CompileReport`.

Quickstart::

    from repro.compiler import mlcnn_pipeline
    model, report = mlcnn_pipeline(bits=8).run(model)
    print(report.summary())

Custom orderings are lists of pass instances::

    from repro.compiler import (
        FuseConvPoolPass, Pipeline, PrunePass, ReorderActivationPoolingPass,
        SetPoolingPass,
    )
    pipe = Pipeline([SetPoolingPass(), ReorderActivationPoolingPass(),
                     FuseConvPoolPass(), PrunePass(0.5)])
"""

from repro.compiler.context import CompileContext, PassResult, PassValidationError
from repro.compiler.pass_base import Pass
from repro.compiler.passes import (
    SetPoolingPass,
    ReorderActivationPoolingPass,
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
    numerics_pipeline,
)
from repro.compiler.cache import (
    PLAN_CACHE,
    architecture_signature,
    clear_plan_cache,
)

__all__ = [
    "CompileContext",
    "PassResult",
    "PassValidationError",
    "Pass",
    "SetPoolingPass",
    "ReorderActivationPoolingPass",
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
    "numerics_pipeline",
    "PLAN_CACHE",
    "architecture_signature",
    "clear_plan_cache",
]
