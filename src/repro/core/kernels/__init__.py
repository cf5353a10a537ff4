"""Lowered, fully vectorized implementations of the fused kernel.

This package is the *lowering* target of the compiler: where
:mod:`repro.core.fusion` defines what the fused RME/LAR/GAR operator
computes (and keeps Algorithm 1's counted loop nest), the kernels
here define how it executes fast —

* :mod:`~repro.core.kernels.boxsum` — the ``I_Acc`` box sum as
  separable vertical-then-horizontal runs (production) and as
  materialized windows, the golden the box sum's own tests read.
* :mod:`~repro.core.kernels.fused` — float64 NCHW forward/backward for
  any pool stride: box sum, pooled-patch gather, one GEMM.  Every
  ``FusedConvPool`` runs it unless a kernel is bound.
* :mod:`~repro.core.kernels.nhwc` — the fp32 channels-last kernel with
  plan-time workspaces and gather views, a GEMM orientation picked per
  call, and a per-parameter-version weight-fold cache, the one kernel
  :class:`repro.compiler.lower.LowerFusedKernelPass` binds: to
  non-overlapping fused layers, and as its pool-1 case to stride-1
  convolutions.
* :mod:`~repro.core.kernels.intpath` — the exact int64 gather + GEMM
  of the fixed-point path, :func:`repro.core.fixedpoint.fused_conv_pool_int`.

Every kernel here is held to one golden, the unfused float64
``conv2d -> avg_pool2d -> activation`` composition, by the table-driven
oracle in ``tests/core/test_oracle.py``.
"""

from repro.core.kernels.boxsum import box_sum, box_sum_windows
from repro.core.kernels.fused import (
    FusedResiduals,
    fused_backward,
    fused_forward,
    record_rme_counters,
)
from repro.core.kernels.intpath import conv_over_boxsum_int
from repro.core.kernels.nhwc import F32NHWCKernel

__all__ = [
    "box_sum",
    "box_sum_windows",
    "FusedResiduals",
    "fused_forward",
    "fused_backward",
    "record_rme_counters",
    "F32NHWCKernel",
    "conv_over_boxsum_int",
]
