"""Exact integer accumulation for the fixed-point fused kernel.

:func:`conv_over_boxsum_int` is the multiply-accumulate of
:func:`repro.core.fixedpoint.fused_conv_pool_int`: one gather of the
pooled-stride ``K x K`` patches of the box-summed plane and one int64
matrix product.  Integer arithmetic is exact, so the result does not
depend on the accumulation order as long as no accumulator exceeds the
int64 range; ``fused_conv_pool_int`` checks that bound before calling.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["conv_over_boxsum_int"]


def conv_over_boxsum_int(acc: np.ndarray, wi: np.ndarray, pool: int) -> np.ndarray:
    """Stride-``pool`` integer convolution over the box-summed plane.

    ``acc``: (C, Ha, Wa) int64 ``I_Acc``; ``wi``: (M, C, K, K) int64
    weights.  Returns the (M, Po, Qo) int64 accumulator plane.
    """
    c, ha, wa = acc.shape
    m, cw, k, _ = wi.shape
    if c != cw:
        raise ValueError(f"channel mismatch: {c} vs {cw}")
    po = (ha - k) // pool + 1
    qo = (wa - k) // pool + 1
    if po < 1 or qo < 1:
        raise ValueError("input too small for one pooled output")
    win = sliding_window_view(acc, (k, k), axis=(-2, -1))[:, ::pool, ::pool]
    win = win[:, :po, :qo]  # (C, Po, Qo, K, K)
    cols = np.ascontiguousarray(win.transpose(1, 2, 0, 3, 4)).reshape(po * qo, c * k * k)
    out = wi.reshape(m, c * k * k) @ cols.T  # exact int64 GEMM
    return out.reshape(m, po, qo)
