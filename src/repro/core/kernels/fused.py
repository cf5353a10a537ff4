"""Vectorized fused conv-pool forward/backward (the float64 path).

The loop nest of Algorithm 1 lowers to three dense stages:

1. **box sum** — :func:`~repro.core.kernels.boxsum.box_sum_cumsum`
   builds the ``I_Acc`` plane in O(H*W) additions (LAR/GAR in closed
   form: every partial sum is computed once and reused everywhere).
2. **pooled-patch gather** — ``sliding_window_view`` over ``I_Acc``
   subsampled at stride ``p`` collects exactly one K x K patch per
   *pooled* output (RME: each weight meets each patch once).
3. **GEMM** — one ``(N*Po*Qo, C*K*K) @ (C*K*K, M)`` matrix product,
   followed by the ``1/p^2`` scaling, bias and activation epilogue.

:func:`fused_forward` returns the output plus a :class:`FusedResiduals`
bundle; :func:`fused_backward` consumes it and reproduces the gradient
of the unfused composition (box-sum scatter + stride-p convolution
backward) without materializing the intermediate graph nodes.

:func:`record_rme_counters` is the one measured-counter formula
(`mults`, `mults_eliminated`) for every float fused path: this one, the
fp32 kernel and the reference composition in :mod:`repro.core.fusion`,
so the within-1%-of-analytic cross-checks in ``tests/obs`` cover all
three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.kernels.boxsum import box_sum_cumsum
from repro.obs.metrics import get_recorder

__all__ = [
    "FusedResiduals",
    "fused_forward",
    "fused_backward",
    "record_rme_counters",
]


def record_rme_counters(
    n: int, m: int, c: int, k: int, po: int, qo: int, hp: int, wp: int
) -> None:
    """Report the RME multiplication tally of one fused execution.

    Measured from the actual geometry: the fused conv touches each
    weight once per *pooled* output; a dense run would touch it once
    per conv output and pay one scaling mult per pooled output (a free
    shift in the fused kernel).  The pooled-output count
    ``po * qo`` already reflects the pool stride, so the same formula
    holds for overlapping (``stride != pool``) executions.
    """
    recorder = get_recorder()
    if not recorder.enabled:
        return
    conv_outs = (hp - k + 1) * (wp - k + 1)
    recorder.record(
        mults=n * m * po * qo * c * k * k,
        mults_eliminated=n * m * (c * k * k * (conv_outs - po * qo) + po * qo),
    )


@dataclass
class FusedResiduals:
    """Everything :func:`fused_backward` needs from the forward pass."""

    cols: np.ndarray  # (N*Po*Qo, C*K*K) gathered I_Acc patches
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
    record: bool = True,
    stride: Optional[int] = None,
) -> Tuple[np.ndarray, FusedResiduals]:
    """Vectorized ``activation(AvgPool_p(Conv_K(x)))`` on raw arrays.

    ``x``: (N, C, H, W); ``weight``: (M, C, K, K).  ``stride`` is the
    pool stride and defaults to ``pool`` (the non-overlapping case);
    ``stride != pool`` gathers the same box-sum patches at the strided
    positions, which is exactly the overlapping-pool identity — each
    pooled output is still one K x K ``I_Acc`` patch dotted with the
    weights.  Returns the NCHW output and the residuals for
    :func:`fused_backward`.
    """
    stride = pool if stride is None else stride
    if stride < 1:
        raise ValueError(f"pool stride must be >= 1, got {stride}")
    n, c, h, w = x.shape
    m, cw, k, _ = weight.shape
    if c != cw:
        raise ValueError(f"channel mismatch: input {c}, weight {cw}")
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    acc = box_sum_cumsum(xp, pool)
    ha, wa = acc.shape[-2:]
    po = (ha - k) // stride + 1
    qo = (wa - k) // stride + 1
    if po < 1 or qo < 1:
        raise ValueError("input too small for one pooled output")
    # One K x K patch of I_Acc per pooled output (RME in closed form).
    win = sliding_window_view(acc, (k, k), axis=(-2, -1))[:, :, ::stride, ::stride]
    win = win[:, :, :po, :qo]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * po * qo, c * k * k
    )
    wmat = weight.reshape(m, c * k * k)
    lin = cols @ wmat.T
    lin *= 1.0 / (pool * pool)
    if bias is not None:
        lin += bias
    pre = lin.reshape(n, po, qo, m).transpose(0, 3, 1, 2)
    if activation == "relu":
        out = np.maximum(pre, 0.0)
    elif activation == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-pre))
    elif activation == "tanh":
        out = np.tanh(pre)
    elif activation == "none":
        out = np.ascontiguousarray(pre)
    else:
        raise ValueError(f"unknown activation {activation!r}")
    if record:
        record_rme_counters(n, m, c, k, po, qo, xp.shape[-2], xp.shape[-1])
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
    g: np.ndarray, res: FusedResiduals
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients ``(gx, gweight, gbias)`` of :func:`fused_forward`.

    Mirrors the unfused composition's chain rule: activation local
    derivative, GEMM backward, stride-p patch scatter back onto the
    ``I_Acc`` plane, and the box-sum backward (every I_Acc cell
    distributes its gradient to the p x p input pixels that fed it).
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
    gm = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * po * qo, m)
    gbias = gm.sum(axis=0)
    gms = gm * (1.0 / (pool * pool))  # bias enters after the scaling
    gweight = (gms.T @ res.cols).reshape(m, c, k, k)
    gcols = (gms @ res.wmat).reshape(n, po, qo, c, k, k)
    gc = gcols.transpose(0, 3, 1, 2, 4, 5)  # (N, C, Po, Qo, K, K)
    gacc = np.zeros((n, c, ha, wa), dtype=g.dtype)
    for ki in range(k):
        for kj in range(k):
            gacc[:, :, ki : ki + stride * po : stride, kj : kj + stride * qo : stride] += gc[
                ..., ki, kj
            ]
    hp, wp = ha + pool - 1, wa + pool - 1
    gpad = np.zeros((n, c, hp, wp), dtype=g.dtype)
    for i in range(pool):
        for j in range(pool):
            gpad[:, :, i : i + ha, j : j + wa] += gacc
    gx = gpad[:, :, padding : padding + h, padding : padding + w] if padding else gpad
    return gx, gweight, gbias

