"""MLCNN reproduction: cross-layer cooperative CNN optimization.

Reproduces Jiang et al., *MLCNN: Cross-Layer Cooperative Optimization
and Accelerator Architecture for Speeding Up Deep Learning
Applications* (IPDPS 2022):

* :mod:`repro.nn` — NumPy deep-learning substrate (autograd, layers,
  optimizers) standing in for PyTorch.
* :mod:`repro.data` — synthetic CIFAR-like datasets.
* :mod:`repro.train` — training/evaluation harness.
* :mod:`repro.models` — LeNet-5 / VGG / GoogLeNet / DenseNet /
  ResNet-18 zoo, layer reordering and all-conv transforms.
* :mod:`repro.core` — the paper's contribution: RME/LAR/GAR op-count
  models, the fused conv-pool kernel, network fusion, DoReFa
  quantization.
* :mod:`repro.compiler` — compiler-style pass pipeline over model
  graphs: registered passes, validation hooks, plan cache,
  :class:`CompileReport` instrumentation.
* :mod:`repro.accel` — accelerator cycle/energy/area model and the
  RTL-level AR-unit/MAC-slice micro-simulator.
* :mod:`repro.analysis` — FLOP audits and report formatting.
* :mod:`repro.obs` — observability: spans (the process-wide tracer,
  whose training spans also carry the per-epoch scalars), measured op
  counters, roofline attribution, run diffs and the regression gate.
  ``python -m repro.experiments ... --obs DIR`` (:class:`repro.obs.ObsRun`)
  turns it all on and writes one run directory.

Quickstart::

    from repro import build_model, mlcnn_pipeline
    model = build_model("lenet5")
    model, report = mlcnn_pipeline(bits=8).run(model)
    print(report.summary())            # per-pass time/rewrites/FLOP deltas
"""

__version__ = "1.0.0"

from repro.core import (
    fuse_network,
    prepare_mlcnn,
    fused_conv_pool,
    quantize_model,
    QuantConfig,
    rme_multiplication_reduction,
)
from repro.models import (
    build_model,
    reorder_activation_pooling,
    to_allconv,
    set_pooling,
)
from repro.accel import (
    get_config,
    simulate_network,
    compare_networks,
)
from repro.compiler import (
    CompileContext,
    CompileReport,
    Pipeline,
    mlcnn_pipeline,
)

__all__ = [
    "CompileContext",
    "CompileReport",
    "Pipeline",
    "mlcnn_pipeline",
    "__version__",
    "build_model",
    "reorder_activation_pooling",
    "to_allconv",
    "set_pooling",
    "fuse_network",
    "prepare_mlcnn",
    "fused_conv_pool",
    "quantize_model",
    "QuantConfig",
    "rme_multiplication_reduction",
    "get_config",
    "simulate_network",
    "compare_networks",
]
