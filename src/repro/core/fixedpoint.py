"""Integer (fixed-point) execution of the fused kernel (Section VI).

The MLCNN accelerator's INT8 configuration executes 8-bit fixed-point
multiplications (Wallace-tree multipliers) with wide integer
accumulation.  This module provides the *numeric* counterpart of that
datapath: symmetric linear quantization to ``int8``/``int16`` with
per-tensor scales, an integer fused conv-pool kernel whose arithmetic
is exact integer math (int64 accumulators, like the hardware's wide
accumulators), and dequantization back to floats.

This differs from :mod:`repro.core.quantize` (DoReFa) on purpose:
DoReFa is the paper's *training* scheme (Eqs. 8-9, STE); this module is
the *inference* arithmetic the accelerator actually performs.  Tests
verify the integer path tracks the float fused kernel within the
quantization-error bound.

Numerics accounting: quantization clipping is *surfaced*, not hidden.
:func:`quantize_tensor` accepts a calibrated range (``amax``) and
records how many values saturated at ``±qmax`` and by how much
(``clipped`` / ``clip_excess`` on the resulting
:class:`QuantizedTensor`), and :func:`quantization_error_bound` widens
by exactly that excess — so a measured clip counter and the analytic
bound can be cross-checked (``tests/core/test_fixedpoint.py``).
:func:`fused_conv_pool_int` optionally reports accumulator saturation
against a nominal hardware accumulator width and requantization
clipping via :class:`IntPathStats`; both feed any enabled
:class:`repro.obs.numerics.NumericsCollector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.fusion import box_sum
from repro.obs.numerics import _ACTIVE, record_quant_event

#: integer accumulator dtype — the hardware's wide accumulator
ACC_DTYPE = np.int64


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor with its dequantization scale.

    ``values`` holds integers in ``[-2^(bits-1)+1, 2^(bits-1)-1]``;
    the represented real value is ``values * scale``.  ``clipped`` and
    ``clip_excess`` carry the saturation accounting from
    :func:`quantize_tensor`: how many source values fell outside the
    calibrated range, and the largest real-valued amount by which one
    exceeded it (0 for a tensor quantized with its own max range).
    """

    values: np.ndarray
    scale: float
    bits: int
    clipped: int = 0
    clip_excess: float = 0.0

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


def quantize_tensor(
    x: np.ndarray, bits: int = 8, amax: Optional[float] = None
) -> QuantizedTensor:
    """Symmetric per-tensor linear quantization.

    With the default ``amax=None`` the scale is calibrated from the
    tensor's own max magnitude and nothing clips.  Passing a calibrated
    ``amax`` (e.g. from a profiling run) makes values beyond it saturate
    at ``±qmax``; the returned tensor's ``clipped``/``clip_excess``
    fields count that saturation, and
    :func:`quantization_error_bound` accounts for it.
    """
    x = np.asarray(x, dtype=np.float64)
    qmax = 2 ** (bits - 1) - 1
    if amax is None:
        amax = float(np.abs(x).max())
    elif amax <= 0:
        raise ValueError(f"amax must be positive, got {amax}")
    scale = (amax / qmax) if amax > 0 else 1.0
    raw = np.round(x / scale)
    over = np.abs(raw) > qmax
    clipped = int(np.count_nonzero(over))
    clip_excess = float(np.max(np.abs(x[over]) - amax)) if clipped else 0.0
    values = np.clip(raw, -qmax, qmax).astype(
        np.int8 if bits <= 8 else (np.int16 if bits <= 16 else np.int32)
    )
    if _ACTIVE:
        record_quant_event("fixedpoint.quantize", clipped, x.size)
    return QuantizedTensor(values, float(scale), bits, clipped, clip_excess)


def quantization_error_bound(qt: QuantizedTensor) -> float:
    """Worst-case absolute error of one quantized element.

    Half an LSB of rounding, plus — when range calibration made values
    saturate — the largest amount by which a clipped value exceeded the
    representable range.  With self-calibrated quantization
    (``clipped == 0``) this reduces to the classic ``scale / 2``.
    """
    return 0.5 * qt.scale + qt.clip_excess


@dataclass
class IntPathStats:
    """Saturation accounting for one :func:`fused_conv_pool_int` call."""

    acc_bits: int = 32
    acc_limit: int = 2 ** 31 - 1
    acc_max_abs: int = 0
    acc_overflows: int = 0
    acc_total: int = 0
    requant_clipped: int = 0
    requant_total: int = 0

    @property
    def overflow_rate(self) -> float:
        return self.acc_overflows / self.acc_total if self.acc_total else 0.0

    @property
    def requant_clip_rate(self) -> float:
        return self.requant_clipped / self.requant_total if self.requant_total else 0.0


def accumulator_bound(x: QuantizedTensor, w: QuantizedTensor, pool: int = 2) -> int:
    """Largest |accumulator| :func:`fused_conv_pool_int` can produce.

    A pooled output accumulates ``C * K^2`` products of a box-summed
    activation (≤ ``pool^2 * qmax_x``) with a weight (≤ ``qmax_w``) —
    the analytic cross-check for the measured ``acc_max_abs``, and the
    number to compare against ``2^(acc_bits-1)-1`` when sizing the
    hardware accumulator.
    """
    m, c, k, _ = w.values.shape
    return c * k * k * pool * pool * x.qmax * w.qmax


def fused_conv_pool_int(
    x: QuantizedTensor,
    w: QuantizedTensor,
    bias: Optional[np.ndarray] = None,
    pool: int = 2,
    apply_relu: bool = True,
    acc_bits: int = 32,
    out_bits: int = 0,
    out_amax: Optional[float] = None,
    stats: Optional[IntPathStats] = None,
    impl: str = "vectorized",
) -> np.ndarray:
    """Integer fused conv-pool: int box-sum, int MACs, float epilogue.

    ``x``: quantized square (C, H, H) activations; ``w``: quantized
    (M, C, K, K) weights.  The box sum and the multiply-accumulate run
    entirely in int64 (exact); only the final rescale by
    ``x.scale * w.scale / pool^2``, the bias addition and the ReLU
    happen in floating point — exactly the split the preprocessing
    stage of Fig. 9 implements (shift + bias + activation).

    ``acc_bits`` is the *nominal* hardware accumulator width: the math
    stays exact (int64 carriers), but accumulators whose magnitude
    exceeds ``2^(acc_bits-1)-1`` are counted as would-be overflows.
    ``out_bits > 0`` requantizes the epilogue output to that width
    (range ``out_amax``, or the output's own max), modelling the
    write-back, and counts requantization clipping.  Pass ``stats`` to
    receive the counts; enabled numerics collectors get them either
    way.

    ``impl`` selects the accumulation schedule: ``"vectorized"``
    (default) runs the single gather + int64 GEMM of
    :func:`repro.core.kernels.intpath.conv_over_boxsum_int`;
    ``"reference"`` keeps the per-tap loop.  Integer addition is
    associative, so the two are **bit-identical** — accumulator values,
    overflow counts, and requant clipping included.
    """
    if impl not in ("vectorized", "reference"):
        raise ValueError(f"impl must be 'vectorized' or 'reference', got {impl!r}")
    xi = x.values.astype(ACC_DTYPE)
    wi = w.values.astype(ACC_DTYPE)
    if xi.ndim != 3 or wi.ndim != 4:
        raise ValueError("expected (C,H,W) activations and (M,C,K,K) weights")
    c, h, wdt = xi.shape
    m, cw, k, _ = wi.shape
    if c != cw:
        raise ValueError(f"channel mismatch: {c} vs {cw}")
    if h != wdt:
        raise ValueError(f"the int path needs a square input (H == W), got {h}x{wdt}")

    acc = box_sum(xi, pool)  # exact int box sum (the I_Acc plane)
    co = h - k + 1
    po = (co - pool) // pool + 1
    if po < 1:
        raise ValueError("input too small for one pooled output")

    if impl == "vectorized":
        from repro.core.kernels.intpath import conv_over_boxsum_int

        out = conv_over_boxsum_int(acc, wi, pool)
    else:
        out = np.zeros((m, po, po), dtype=ACC_DTYPE)
        # stride-p integer convolution over the box-summed plane
        for ki in range(k):
            for kj in range(k):
                window = acc[:, ki : ki + pool * po : pool, kj : kj + pool * po : pool]
                out += np.einsum("mc,cij->mij", wi[:, :, ki, kj], window)

    watch = stats is not None or bool(_ACTIVE)
    if watch:
        acc_limit = 2 ** (acc_bits - 1) - 1
        abs_out = np.abs(out)
        acc_max_abs = int(abs_out.max(initial=0))
        overflows = int(np.count_nonzero(abs_out > acc_limit))
        if stats is not None:
            stats.acc_bits = acc_bits
            stats.acc_limit = acc_limit
            stats.acc_max_abs = max(stats.acc_max_abs, acc_max_abs)
            stats.acc_overflows += overflows
            stats.acc_total += out.size
        if _ACTIVE:
            record_quant_event("fixedpoint.acc_overflow", overflows, out.size)

    scale = x.scale * w.scale / float(pool * pool)
    result = out.astype(np.float64) * scale
    if bias is not None:
        result += np.asarray(bias, dtype=np.float64)[:, None, None]
    if apply_relu:
        np.maximum(result, 0.0, out=result)

    if out_bits:
        out_qmax = 2 ** (out_bits - 1) - 1
        ramax = float(np.abs(result).max()) if out_amax is None else float(out_amax)
        rscale = (ramax / out_qmax) if ramax > 0 else 1.0
        raw = np.round(result / rscale)
        requant_clipped = int(np.count_nonzero(np.abs(raw) > out_qmax))
        if stats is not None:
            stats.requant_clipped += requant_clipped
            stats.requant_total += result.size
        if _ACTIVE:
            record_quant_event("fixedpoint.requant_clip", requant_clipped, result.size)
        result = np.clip(raw, -out_qmax, out_qmax) * rscale
    return result


def fused_conv_pool_fp16(
    x: np.ndarray,
    w: np.ndarray,
    bias: Optional[np.ndarray] = None,
    pool: int = 2,
    apply_relu: bool = True,
) -> np.ndarray:
    """Half-precision fused kernel (the FP16 accelerator configuration).

    Operands are cast to ``float16``; products and the box sum are
    accumulated in ``float32`` (the hardware accumulates wider than it
    multiplies), then the epilogue runs in float32.  Returns float64
    for comparison convenience.  ``x`` must be a square ``(C, H, H)``
    plane: the output is sized from H alone.
    """
    x16 = np.asarray(x, dtype=np.float16).astype(np.float32)
    w16 = np.asarray(w, dtype=np.float16).astype(np.float32)
    if x16.ndim != 3 or w16.ndim != 4:
        raise ValueError("expected (C,H,W) activations and (M,C,K,K) weights")
    c, h, wdt = x16.shape
    m, cw, k, _ = w16.shape
    if c != cw:
        raise ValueError(f"channel mismatch: {c} vs {cw}")
    if h != wdt:
        raise ValueError(f"the fp16 path needs a square input (H == W), got {h}x{wdt}")
    acc = box_sum(x16, pool)
    co = h - k + 1
    po = (co - pool) // pool + 1
    if po < 1:
        raise ValueError("input too small for one pooled output")
    out = np.zeros((m, po, po), dtype=np.float32)
    for ki in range(k):
        for kj in range(k):
            window = acc[:, ki : ki + pool * po : pool, kj : kj + pool * po : pool]
            out += np.einsum("mc,cij->mij", w16[:, :, ki, kj], window)
    result = out.astype(np.float64) / float(pool * pool)
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
