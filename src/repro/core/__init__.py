"""repro.core — MLCNN's cross-layer cooperative optimization.

This package implements the paper's primary contribution:

* :mod:`repro.core.opcount` — analytical operation-count models: RME
  multiplication elimination, LAR/GAR addition-reuse rates (Eqs. 1-7,
  Tables II-VI), and whole-layer multiplication/addition budgets.
* :mod:`repro.core.fusion` — the fused convolution-pooling kernel
  (Algorithm 1): vectorized execution and an instrumented reference
  executor that counts every addition/multiplication under configurable
  reuse (RME / LAR / row- and column-GAR).
* :mod:`repro.core.kernels` — the fully vectorized fused-kernel
  implementations: prefix-sum box sum, float64 gather + GEMM, exact
  int64 path, and the fp32 NHWC kernel the compiler's ``lower`` pass
  binds.
* :mod:`repro.core.transform` — network-level fusion: rewrite a
  reordered model so fusable blocks execute the fused kernel.
* :mod:`repro.core.quantize` — DoReFa-style k-bit quantization
  (Eqs. 8-9) used by the quantized-MLCNN experiments.
"""

from repro.core.opcount import (
    rme_multiplication_reduction,
    lar_additions_without,
    lar_additions_with,
    lar_reduction_rate,
    gar_row_outputs,
    gar_additions_without,
    gar_additions_with,
    gar_reduction_rate,
    combined_reduction_limit,
    LayerOps,
    dcnn_layer_ops,
    mlcnn_layer_ops,
    network_ops,
)
from repro.core.fusion import (
    box_sum,
    fused_conv_pool,
    FusedConvPool,
    fused_conv_pool_counted,
    dense_conv_pool_counted,
)
from repro.core.transform import fuse_network, fused_blocks, prepare_mlcnn
from repro.core.quantize import (
    quantize_k,
    quantize_weights,
    quantize_activations,
    QuantConfig,
    quantize_model,
    QuantizedConvBlock,
)
from repro.core.prune import (
    magnitude_prune,
    capture_masks,
    restore_masks,
    sparse_layer_multiplications,
    combined_reduction,
    SparsityReport,
)
from repro.core.fixedpoint import (
    QuantizedTensor,
    quantize_tensor,
    fused_conv_pool_int,
    int_path_error_bound,
)
from repro.core import kernels

__all__ = [
    "rme_multiplication_reduction",
    "lar_additions_without",
    "lar_additions_with",
    "lar_reduction_rate",
    "gar_row_outputs",
    "gar_additions_without",
    "gar_additions_with",
    "gar_reduction_rate",
    "combined_reduction_limit",
    "LayerOps",
    "dcnn_layer_ops",
    "mlcnn_layer_ops",
    "network_ops",
    "box_sum",
    "fused_conv_pool",
    "FusedConvPool",
    "fused_conv_pool_counted",
    "dense_conv_pool_counted",
    "kernels",
    "fuse_network",
    "fused_blocks",
    "prepare_mlcnn",
    "quantize_k",
    "quantize_weights",
    "quantize_activations",
    "QuantConfig",
    "quantize_model",
    "QuantizedConvBlock",
    "QuantizedTensor",
    "quantize_tensor",
    "fused_conv_pool_int",
    "int_path_error_bound",
    "magnitude_prune",
    "capture_masks",
    "restore_masks",
    "sparse_layer_multiplications",
    "combined_reduction",
    "SparsityReport",
]
