"""Integer (fixed-point) execution of the fused kernel (Section VI).

The MLCNN accelerator's INT8 configuration executes 8-bit fixed-point
multiplications with wide integer accumulation.  This module provides
the *numeric* counterpart of that datapath: symmetric linear
quantization to ``int8``/``int16``/``int32`` with per-tensor scales, an
integer fused conv-pool kernel whose box sum and multiply-accumulate
are exact int64 math (like the hardware's wide accumulators), and
dequantization back to floats.

This differs from :mod:`repro.core.quantize` (DoReFa) on purpose:
DoReFa is the paper's *training* scheme (Eqs. 8-9, STE); this module is
the *inference* arithmetic the accelerator actually performs.  Its user
is the INT8-vs-FP32 numerics bench behind Fig. 12
(``benchmarks/test_int8_numerics.py``), which holds the integer path to
the float fused kernel within :func:`int_path_error_bound`.

:func:`accumulator_bound` is the largest accumulator magnitude a call
can produce.  :func:`fused_conv_pool_int` refuses operands whose bound
exceeds the int64 range, where its accumulators could wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.kernels.boxsum import box_sum
from repro.core.kernels.intpath import conv_over_boxsum_int

#: integer accumulator dtype — the hardware's wide accumulator
ACC_DTYPE = np.int64
#: the largest accumulator magnitude :data:`ACC_DTYPE` holds
ACC_LIMIT = int(np.iinfo(ACC_DTYPE).max)


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor with its dequantization scale.

    ``values`` holds integers in ``[-2^(bits-1)+1, 2^(bits-1)-1]``;
    the represented real value is ``values * scale``.
    """

    values: np.ndarray
    scale: float
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 2 or self.bits > 32:
            raise ValueError(f"bits must be in [2, 32], got {self.bits}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        limit = 2 ** (self.bits - 1) - 1
        if np.abs(self.values).max(initial=0) > limit:
            raise ValueError(f"values exceed the {self.bits}-bit range")

    def dequantize(self) -> np.ndarray:
        return self.values.astype(np.float64) * self.scale

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1


def quantize_tensor(x: np.ndarray, bits: int = 8) -> QuantizedTensor:
    """Symmetric per-tensor linear quantization.

    The scale is calibrated from the tensor's own max magnitude, so
    nothing saturates and every element is within half a step
    (``scale / 2``) of its source value.
    """
    if not 2 <= bits <= 32:  # one bit leaves qmax = 0: no magnitude
        raise ValueError(f"bits must be in [2, 32], got {bits}")
    x = np.asarray(x, dtype=np.float64)
    qmax = 2 ** (bits - 1) - 1
    amax = float(np.abs(x).max())
    scale = (amax / qmax) if amax > 0 else 1.0
    values = np.clip(np.round(x / scale), -qmax, qmax).astype(
        np.int8 if bits <= 8 else (np.int16 if bits <= 16 else np.int32)
    )
    return QuantizedTensor(values, float(scale), bits)


def accumulator_bound(x: QuantizedTensor, w: QuantizedTensor, pool: int = 2) -> int:
    """Largest |accumulator| :func:`fused_conv_pool_int` can produce.

    A pooled output accumulates ``C * K^2`` products of a box-summed
    activation (≤ ``pool^2 * qmax_x``) with a weight (≤ ``qmax_w``).
    Operand tensors filled with ``qmax`` reach it exactly.
    """
    m, c, k, _ = w.values.shape
    return c * k * k * pool * pool * x.qmax * w.qmax


def fused_conv_pool_int(
    x: QuantizedTensor,
    w: QuantizedTensor,
    bias: Optional[np.ndarray] = None,
    pool: int = 2,
    apply_relu: bool = True,
) -> np.ndarray:
    """Integer fused conv-pool: int box-sum, int MACs, float epilogue.

    ``x``: quantized square (C, H, H) activations; ``w``: quantized
    square (M, C, K, K) weights.  The box sum and the multiply-accumulate
    (one gather and int64 GEMM,
    :func:`repro.core.kernels.intpath.conv_over_boxsum_int`) run
    entirely in int64 and are exact; only the final rescale by
    ``x.scale * w.scale / pool^2``, the bias addition and the ReLU
    happen in floating point — exactly the split the preprocessing
    stage of Fig. 9 implements (shift + bias + activation).

    Raises ``ValueError`` when :func:`accumulator_bound` exceeds the
    int64 range: such operands (32-bit ones, say) could wrap the
    accumulators and return a wrong answer.
    """
    xi = x.values.astype(ACC_DTYPE)
    wi = w.values.astype(ACC_DTYPE)
    if xi.ndim != 3 or wi.ndim != 4:
        raise ValueError(
            "expected (C, H, W) activations and (M, C, K, K) weights, "
            f"got {xi.shape} and {wi.shape}"
        )
    c, h, wdt = xi.shape
    m, cw, k, kw = wi.shape
    if c != cw:
        raise ValueError(f"channel mismatch: {c} vs {cw}")
    if h != wdt:
        raise ValueError(f"the int path needs a square input (H == W), got {h}x{wdt}")
    if k != kw:
        raise ValueError(f"the int path needs a square kernel (KH == KW), got {k}x{kw}")
    bound = accumulator_bound(x, w, pool)
    if bound > ACC_LIMIT:
        raise ValueError(
            f"accumulators can reach {bound}, above the int64 limit {ACC_LIMIT}: "
            "quantize to fewer bits"
        )

    out = conv_over_boxsum_int(box_sum(xi, pool), wi, pool)
    scale = x.scale * w.scale / float(pool * pool)
    result = out.astype(np.float64) * scale
    if bias is not None:
        result += np.asarray(bias, dtype=np.float64)[:, None, None]
    if apply_relu:
        np.maximum(result, 0.0, out=result)
    return result


def int_path_error_bound(
    x: QuantizedTensor, w: QuantizedTensor, pool: int = 2
) -> float:
    """A-priori bound on |int path - float path| per pooled output.

    Each product's error is bounded by
    ``|x| * dw + |w| * dx + dx * dw`` with ``dx = x.scale / 2``,
    ``dw = w.scale / 2``; a pooled output sums ``C * K^2 * pool^2``
    products (before the 1/pool^2 scaling).
    """
    m, c, k, _ = w.values.shape
    dx = 0.5 * x.scale
    dw = 0.5 * w.scale
    xmax = np.abs(x.dequantize()).max()
    wmax = np.abs(w.dequantize()).max()
    per_product = xmax * dw + wmax * dx + dx * dw
    return c * k * k * per_product  # pool^2 products / pool^2 scaling cancel
