"""Vectorized fused conv-pool forward/backward (the float64 path).

The loop nest of Algorithm 1 lowers to three dense stages:

1. **box sum** — :func:`~repro.core.kernels.boxsum.box_sum` builds the
   ``I_Acc`` plane with Algorithm 1's own schedule, vertical runs of
   ``p`` pixels reused by horizontal runs (LAR/GAR in closed form:
   every partial sum is computed once and reused everywhere).
2. **pooled-patch gather** — ``sliding_window_view`` over ``I_Acc``
   subsampled at stride ``p`` collects exactly one K x K patch per
   *pooled* output (RME: each weight meets each patch once), channel-
   major: row ``(c, ki, kj)`` of the ``(C*K*K, N*Po*Qo)`` patch matrix
   holds that tap for every pooled output.
3. **GEMM** — one ``(M, C*K*K) @ (C*K*K, N*Po*Qo)`` matrix product,
   followed by the ``1/p^2`` scaling, bias and activation epilogue in
   place.  The output is an ``(N, M, Po, Qo)`` view of the
   ``(M, N, Po, Qo)`` result.

:func:`fused_forward` returns the output plus a :class:`FusedResiduals`
bundle; :func:`fused_backward` consumes it and reproduces the gradient
of the unfused composition (box-sum scatter + stride-p convolution
backward) without materializing the intermediate graph nodes.  It
computes the input gradient only on request: the first layer of a
network has an input that needs none, and skipping it skips the
input-gradient GEMM, the K x K scatter and the box-sum adjoint.

:func:`record_rme_counters` is the one measured-counter formula
(``mults``, ``mults_eliminated``) for every float fused path: this one,
the fp32 kernel (including its pool-1 case, a plain convolution that
eliminates nothing) and the reference composition in
:mod:`repro.core.fusion`, so the oracle's check of measured counters
against :mod:`repro.core.opcount` covers all three.  Each records when
it runs; the reference composition records only the elimination,
because its inner :func:`repro.nn.functional.conv2d` records the
multiplications it performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.kernels.boxsum import box_sum
from repro.nn.counters import get_recorder

__all__ = [
    "FusedResiduals",
    "fused_forward",
    "fused_backward",
    "record_rme_counters",
]


def record_rme_counters(
    n: int,
    m: int,
    c: int,
    k: int,
    pool: int,
    po: int,
    qo: int,
    hp: int,
    wp: int,
    *,
    eliminated_only: bool = False,
) -> None:
    """Record the RME multiplication tally of one fused execution.

    Measured from the actual geometry of the padded ``hp x wp`` input:
    the fused conv touches each weight once per *pooled* output
    (``mults``); a dense run would touch it once per conv output and pay
    one scaling mult per pooled output (a free shift in the fused
    kernel), and ``mults_eliminated`` is the difference.  The
    pooled-output count ``po * qo`` already reflects the pool stride, so
    the same formula holds for overlapping (``stride != pool``)
    executions.  At ``pool == 1`` the kernel is a plain convolution with
    no pooled output to rescale: it eliminates nothing.

    ``eliminated_only`` records just ``mults_eliminated``, for a caller
    whose inner convolution already recorded the multiplications.
    """
    recorder = get_recorder()
    if not recorder.enabled:
        return
    pooled = po * qo
    rescales = pooled if pool > 1 else 0
    eliminated = n * m * (c * k * k * ((hp - k + 1) * (wp - k + 1) - pooled) + rescales)
    if eliminated_only:
        recorder.record(mults_eliminated=eliminated)
    else:
        recorder.record(mults=n * m * pooled * c * k * k, mults_eliminated=eliminated)


@dataclass
class FusedResiduals:
    """Everything :func:`fused_backward` needs from the forward pass."""

    cols: np.ndarray  # (C*K*K, N*Po*Qo) gathered I_Acc patches, channel-major
    wmat: np.ndarray  # (M, C*K*K) flattened weights
    out: np.ndarray  # (N, M, Po, Qo) post-activation output
    activation: str
    pool: int
    padding: int
    x_shape: Tuple[int, int, int, int]  # (N, C, H, W) unpadded
    acc_shape: Tuple[int, int, int, int]  # (N, C, Ha, Wa) box-sum plane
    k: int
    stride: int = 0  # pool stride (0 means == pool, the non-overlapping case)

    @property
    def pool_stride(self) -> int:
        return self.stride or self.pool


def fused_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    pool: int = 2,
    padding: int = 0,
    activation: str = "relu",
    stride: Optional[int] = None,
) -> Tuple[np.ndarray, FusedResiduals]:
    """Vectorized ``activation(AvgPool_p(Conv_K(x)))`` on raw arrays.

    ``x``: (N, C, H, W); ``weight``: square (M, C, K, K).  ``stride`` is the
    pool stride and defaults to ``pool`` (the non-overlapping case);
    ``stride != pool`` gathers the same box-sum patches at the strided
    positions, which is exactly the overlapping-pool identity — each
    pooled output is still one K x K ``I_Acc`` patch dotted with the
    weights.  Returns the NCHW output, a view of the ``(M, N, Po, Qo)``
    GEMM result, and the residuals for :func:`fused_backward`.
    """
    stride = pool if stride is None else stride
    if stride < 1:
        raise ValueError(f"pool stride must be >= 1, got {stride}")
    n, c, h, w = x.shape
    m, cw, k, kw = weight.shape
    if c != cw:
        raise ValueError(f"channel mismatch: input {c}, weight {cw}")
    if k != kw:
        raise ValueError(f"the fused kernel needs a square kernel (KH == KW), got {k}x{kw}")
    if activation not in ("relu", "sigmoid", "tanh", "none"):
        raise ValueError(f"unknown activation {activation!r}")
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    acc = box_sum(xp, pool)
    ha, wa = acc.shape[-2:]
    po = (ha - k) // stride + 1
    qo = (wa - k) // stride + 1
    if po < 1 or qo < 1:
        raise ValueError("input too small for one pooled output")
    # One K x K patch of I_Acc per pooled output (RME in closed form),
    # gathered as one (N, Po, Qo) slab per tap (c, ki, kj).
    win = sliding_window_view(acc, (k, k), axis=(-2, -1))[:, :, ::stride, ::stride]
    win = win[:, :, :po, :qo]
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(
        c * k * k, n * po * qo
    )
    wmat = weight.reshape(m, c * k * k)
    out = wmat @ cols
    out *= 1.0 / (pool * pool)
    if bias is not None:
        out += bias[:, None]
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "sigmoid":
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
    elif activation == "tanh":
        np.tanh(out, out=out)
    out = out.reshape(m, n, po, qo).transpose(1, 0, 2, 3)
    record_rme_counters(n, m, c, k, pool, po, qo, *xp.shape[-2:])
    res = FusedResiduals(
        cols=cols,
        wmat=wmat,
        out=out,
        activation=activation,
        pool=pool,
        padding=padding,
        x_shape=(n, c, h, w),
        acc_shape=acc.shape,
        k=k,
        stride=stride,
    )
    return out, res


def fused_backward(
    g: np.ndarray, res: FusedResiduals, *, input_grad: bool = True
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Gradients ``(gx, gweight, gbias)`` of :func:`fused_forward`.

    Mirrors the unfused composition's chain rule: activation local
    derivative, GEMM backward, stride-p patch scatter back onto the
    ``I_Acc`` plane, and the box-sum backward (every I_Acc cell
    distributes its gradient to the p x p input pixels that fed it).

    ``input_grad`` is the output mask of the input gradient: with
    ``False`` (an input that needs no gradient) ``gx`` is ``None`` and
    none of its work runs.  Every parameter needs its gradient, so
    ``gweight`` and ``gbias`` are always computed.
    """
    n, c, h, w = res.x_shape
    _, _, ha, wa = res.acc_shape
    pool, k, padding = res.pool, res.k, res.padding
    stride = res.pool_stride
    out = res.out
    if res.activation == "relu":
        g = g * (out > 0)
    elif res.activation == "sigmoid":
        g = g * out * (1.0 - out)
    elif res.activation == "tanh":
        g = g * (1.0 - out * out)
    # else "none": identity
    m = g.shape[1]
    po, qo = g.shape[-2:]
    gm = g.transpose(1, 0, 2, 3).reshape(m, n * po * qo)
    gbias = gm.sum(axis=1)
    gms = gm * (1.0 / (pool * pool))  # bias enters after the scaling
    gweight = (gms @ res.cols.T).reshape(m, c, k, k)
    if not input_grad:
        return None, gweight, gbias
    # Batch-innermost columns (Po, Qo, N), so that each tap's slab adds
    # runs of N contiguous elements.
    gms =gms.reshape(m, n, po, qo).transpose(0, 2, 3, 1).reshape(m, po * qo * n)
    gcols = (res.wmat.T @ gms).reshape(c, k, k, po, qo, n)
    # Scatter each tap's (Po, Qo, N) slab onto a (C, Ha, Wa, N) I_Acc
    # plane inside a zero border of p - 1: the box sum of the bordered
    # plane is the box-sum adjoint, the gradient of the padded input.
    # It runs on the (C, N, H, W) view, so N stays innermost in memory.
    b = pool - 1
    gacc = np.zeros((c, ha + 2 * b, wa + 2 * b, n), dtype=gcols.dtype)
    for ki in range(k):
        rows = slice(b + ki, b + ki + stride * po, stride)
        for kj in range(k):
            gacc[:, rows, b + kj : b + kj + stride * qo : stride] += gcols[:, ki, kj]
    plane = gacc.transpose(0, 3, 1, 2)
    gx = box_sum(plane[:, :, padding : padding + h + b, padding : padding + w + b], pool)
    return gx.transpose(1, 0, 2, 3), gweight, gbias
