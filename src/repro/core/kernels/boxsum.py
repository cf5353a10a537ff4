"""Box-sum (``I_Acc``) kernels: separable and windowed formulations.

The fused conv-pool kernel reduces the p x p average pool to a *box
sum* of the input plane (the paper's ``I_Acc``).  Two implementations:

* :func:`box_sum` — the production kernel, Algorithm 1's LAR schedule
  as whole-plane additions: vertical runs of ``p`` pixels (the half
  additions), then horizontal runs of ``p`` half additions (the full
  additions).  ``2 (p - 1)`` shifted array additions and no
  subtraction, so nothing cancels: a float32 plane keeps the accuracy
  of its p x p sums however large the plane, and integer inputs are
  *exact* (the fixed-point path relies on this).
* :func:`box_sum_windows` — the golden reference: materializes every
  overlapping p x p window via ``sliding_window_view`` and sums it.
  O(H*W*p^2) work; kept only for property-testing :func:`box_sum`
  (non-square inputs, p not dividing the spatial size, ...).

Both operate over the trailing two axes, broadcast over any leading
(batch/channel) axes and return the dtype ``np.sum`` would (float
dtypes are kept, narrower integers widen to 64 bits); output spatial
dims are ``H-p+1`` x ``W-p+1``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["box_sum", "box_sum_windows"]


def _check(x: np.ndarray, p: int) -> None:
    if p < 1:
        raise ValueError(f"box size must be >= 1, got {p}")
    if p > 1 and (x.shape[-1] < p or x.shape[-2] < p):
        raise ValueError(f"input spatial dims {x.shape[-2:]} smaller than box {p}")


def box_sum(x: np.ndarray, p: int) -> np.ndarray:
    """p x p box sum over the trailing two axes (the paper's ``I_Acc``).

    Separable: ``half[..., i, j] = x[..., i:i+p, j].sum()`` (vertical
    runs), then ``out[..., i, j] = half[..., i, j:j+p].sum()``
    (horizontal runs of half additions).  ``p == 1`` returns ``x``
    itself.
    """
    _check(x, p)
    if p == 1:
        return x
    if x.dtype.kind in "biu" and x.dtype.itemsize < 8:
        # widen narrow integers as np.sum does, so the sums cannot wrap
        x = x.astype(np.uint64 if x.dtype.kind == "u" else np.int64)
    rows = x.shape[-2] - p + 1
    cols = x.shape[-1] - p + 1
    half = x[..., :rows, :] + x[..., 1 : rows + 1, :]
    for d in range(2, p):
        half += x[..., d : d + rows, :]
    out = half[..., :cols] + half[..., 1 : cols + 1]
    for d in range(2, p):
        out += half[..., d : d + cols]
    return out


def box_sum_windows(x: np.ndarray, p: int) -> np.ndarray:
    """Reference p x p box sum summing materialized overlapping windows."""
    _check(x, p)
    if p == 1:
        return x
    windows = sliding_window_view(x, (p, p), axis=(-2, -1))
    return windows.sum(axis=(-2, -1))
