"""Analytical operation-count models (Sections IV-V of the paper).

Two levels of modelling live here:

1. **Per-output / per-row formulas** that reproduce the paper's
   analysis tables exactly:

   * Tables II-III (LAR): additions to compute one pooled output
     feature, single input channel, 2x2 average pooling after a
     stride-``S`` KxK convolution:

     - without LAR: ``4K^2 - 1`` (four conv windows of ``K^2 - 1``
       accumulation additions each, plus 3 pooling additions);
     - with LAR: ``K(2K + S) + K^2 - 1``;
     - reduction rate ``K(K - S) / (4K^2 - 1)`` (Eq. 1; Eq. 4 at S=1).

   * Tables IV-VI (GAR): additions to compute one *row* of pooled
     outputs; ``N = floor((D - K) / 2S) + 1`` outputs per row:

     - without GAR: ``N (4K^2 - 1)``;
     - with GAR: ``3K(D - S) + N(K^2 - 1)`` — only ``K(D - S)`` small
       accumulations (3 additions each) remain, plus the per-output
       major accumulations (Eq. 2; Eq. 5 expresses the same count for
       K = 13).

2. **Whole-layer budgets** (:func:`dcnn_layer_ops`,
   :func:`mlcnn_layer_ops`) used by the accelerator model for
   Figs. 13-15.  These count all channels and include bias additions;
   the average-pool division is a multiplication in the DCNN baseline
   but a free shift in the MLCNN datapath (Fig. 9 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.models.specs import LayerSpec


# ---------------------------------------------------------------------------
# RME — redundant multiplication elimination
# ---------------------------------------------------------------------------

def rme_multiplication_reduction(pool_size: int) -> float:
    """Fraction of multiplications eliminated by RME for a pxp pool.

    Weight factorization performs one multiplication per weight per
    *pooled* output instead of one per conv output: ``1 - 1/p^2``.
    (The paper states this as ``(K-1)/K`` with K the pooling window
    *area*: 75% for 2x2 pooling, ~98% for 8x8 — GoogLeNet's best case.)
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    return 1.0 - 1.0 / float(pool_size * pool_size)


# ---------------------------------------------------------------------------
# LAR — local addition reuse (Tables II & III)
# ---------------------------------------------------------------------------

def _check_lar(k: int, s: int) -> None:
    if k < 1:
        raise ValueError(f"filter size must be >= 1, got {k}")
    if s < 1:
        raise ValueError(f"step size must be >= 1, got {s}")


def lar_additions_without(k: int) -> int:
    """Additions per pooled output without LAR: ``4K^2 - 1``."""
    _check_lar(k, 1)
    return 4 * k * k - 1


def lar_additions_with(k: int, s: int = 1) -> int:
    """Additions per pooled output with LAR: ``K(2K + S) + K^2 - 1``.

    When the step exceeds the filter size no windows overlap and no
    addition can be reused, so the count saturates at ``4K^2 - 1``.
    """
    _check_lar(k, s)
    return min(k * (2 * k + s) + k * k - 1, lar_additions_without(k))


def lar_reduction_rate(k: int, s: int = 1) -> float:
    """Eq. (1)/(4): ``K(K - S) / (4K^2 - 1)``, clamped at 0 for S >= K."""
    _check_lar(k, s)
    return max(0, k * (k - s)) / float(4 * k * k - 1)


# ---------------------------------------------------------------------------
# GAR — global addition reuse (Tables IV, V & VI)
# ---------------------------------------------------------------------------

def _check_gar(d: int, k: int, s: int) -> None:
    _check_lar(k, s)
    if d < k:
        raise ValueError(f"input dimension {d} smaller than filter {k}")


def gar_row_outputs(d: int, k: int, s: int = 1) -> int:
    """Pooled outputs per row: convolution output ``(D-K)/S + 1`` rows,
    2x2 pooled -> ``floor((D - K) / 2S) + 1``."""
    _check_gar(d, k, s)
    return (d - k) // (2 * s) + 1


def gar_additions_without(d: int, k: int, s: int = 1) -> int:
    """Additions per pooled-output row without GAR: ``N (4K^2 - 1)``."""
    return gar_row_outputs(d, k, s) * (4 * k * k - 1)


def gar_additions_with(d: int, k: int, s: int = 1) -> int:
    """Additions per pooled-output row with GAR.

    Only ``K (D - S)`` small accumulations (3 additions each) remain
    after reuse, plus ``K^2 - 1`` major-accumulation additions per
    output: ``3K(D - S) + N(K^2 - 1)``.
    """
    n = gar_row_outputs(d, k, s)
    return min(3 * k * (d - s) + n * (k * k - 1), gar_additions_without(d, k, s))


def gar_reduction_rate(d: int, k: int, s: int = 1) -> float:
    """Eq. (2): ``(3NK^2 - 3K(D - S)) / (N (4K^2 - 1))``."""
    without = gar_additions_without(d, k, s)
    return (without - gar_additions_with(d, k, s)) / float(without)


def gar_limit_large_input(k: int) -> float:
    """Limit of the GAR reduction rate as D -> inf (Eq. 6 at K=13: 63.6%).

    As D grows, each pooled output costs ``6K`` small-accumulation plus
    ``K^2 - 1`` major-accumulation additions against a ``4K^2 - 1``
    baseline, so the reduction tends to ``3K(K - 2) / (4K^2 - 1)``
    (0.636 at K = 13, the paper's Eq. 6).
    """
    _check_lar(k, 1)
    return 3 * k * (k - 2) / float(4 * k * k - 1)


def combined_reduction_limit() -> float:
    """Eq. (7): LAR+GAR drop ``4K^2-1`` to ``K^2-1`` additions; the saved
    fraction ``3K^2 / (4K^2 - 1)`` approaches 75% as K grows."""
    return 0.75


def combined_additions_with(k: int) -> int:
    """Per-output additions with LAR+GAR at large D: the major
    accumulation only, ``K^2 - 1`` (small accumulations fully reused)."""
    _check_lar(k, 1)
    return k * k - 1


def combined_reduction_rate(k: int) -> float:
    """Saved fraction with LAR+GAR: ``3K^2 / (4K^2 - 1)`` (Eq. 7)."""
    _check_lar(k, 1)
    return 3 * k * k / float(4 * k * k - 1)


# ---------------------------------------------------------------------------
# Whole-layer budgets (Figs. 13-15)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerOps:
    """Arithmetic-operation budget of one layer execution."""

    multiplications: int
    additions: int
    #: additions spent building the box-summed input (MLCNN only)
    preprocessing_additions: int = 0

    @property
    def total(self) -> int:
        return self.multiplications + self.additions + self.preprocessing_additions

    def __add__(self, other: "LayerOps") -> "LayerOps":
        return LayerOps(
            self.multiplications + other.multiplications,
            self.additions + other.additions,
            self.preprocessing_additions + other.preprocessing_additions,
        )


def dcnn_layer_ops(spec: LayerSpec) -> LayerOps:
    """Operation budget of the dense (unfused) execution of ``spec``.

    Convolution: ``N K^2`` multiplications and ``N K^2 - 1``
    accumulation additions plus one bias addition per conv output.
    Average pooling (if present): ``p^2 - 1`` additions and one scaling
    multiplication per pooled output.
    """
    oc = spec.conv_output_size
    n_out = oc * oc * spec.out_channels
    macs_per_out = spec.in_channels * spec.kernel ** 2
    mults = n_out * macs_per_out
    adds = n_out * (macs_per_out - 1) + n_out  # accumulate + bias
    if spec.pool:
        p = spec.pool
        pooled = spec.output_size ** 2 * spec.out_channels
        adds += pooled * (p * p - 1)
        mults += pooled  # the divide-by-p^2 scaling
    return LayerOps(mults, adds)


def mlcnn_layer_ops(spec: LayerSpec, use_lar: bool = True, use_gar: bool = True) -> LayerOps:
    """Operation budget of the MLCNN fused execution of ``spec``.

    Non-fusable layers run dense.  For fused layers:

    * RME: one multiplication per weight per *pooled* output.
    * Preprocessing (LAR/GAR): the box-summed input ``I_Acc`` is built
      once per input channel from half/full additions and reused by
      every filter and every overlapping window.  Without LAR/GAR each
      window recomputes its ``p^2 - 1``-addition small accumulations.
    * Major accumulation: ``N K^2 - 1`` additions plus bias per pooled
      output; the pooling division is a shift (free).
    """
    if not spec.is_fusable:
        return dcnn_layer_ops(spec)
    p = spec.pool
    k = spec.kernel
    out = spec.output_size
    pooled = out * out * spec.out_channels
    macs_per_out = spec.in_channels * spec.kernel ** 2
    mults = pooled * macs_per_out
    adds = pooled * (macs_per_out - 1) + pooled  # major accumulation + bias

    # I_Acc positions actually touched, per spatial dimension: outputs
    # x = 0..out-1 at pool stride s read positions {s*x + i : i < K},
    # `out` runs of K spaced s.  Contiguous when K >= s; otherwise
    # `out` separate groups of K (e.g. 1x1 convs touch only the pooled
    # grid, which is why they admit no reuse).  Half additions run over
    # every touched column and the next p - 1: runs of K + p - 1 spaced
    # s, each shared column computed once.
    s = spec.pool_stride
    n_fa = (out - 1) * min(s, k) + k
    n_ha = (out - 1) * min(s, k + p - 1) + k + p - 1

    if use_lar and use_gar:
        # I_Acc built once per input channel: half additions (vertical
        # runs of p, p-1 additions each) at every touched (row, column)
        # and full additions (horizontal runs of p half additions).
        ha = n_fa * n_ha * (p - 1)
        fa = n_fa * n_fa * (p - 1)
        pre = spec.in_channels * (ha + fa)
    elif use_lar:
        # LAR only: half additions shared inside one output's window,
        # but windows recompute across outputs.  Per pooled output the
        # KxK window needs K^2 small accumulations; column sharing
        # leaves K(K + p - 1) half additions and K^2 full additions.
        per_out = k * (k + p - 1) * (p - 1) + k * k * (p - 1)
        pre = out * out * spec.in_channels * per_out
    elif use_gar:
        # GAR only: small accumulations shared across outputs, each
        # costing p^2 - 1 additions (no half-addition sharing).
        pre = spec.in_channels * n_fa * n_fa * (p * p - 1)
    else:
        # RME only: every window of every output recomputes its small
        # accumulations (p^2 - 1 additions each).
        pre = out * out * spec.in_channels * k * k * (p * p - 1)
    return LayerOps(mults, adds, preprocessing_additions=pre)


def network_ops(
    specs: Iterable[LayerSpec], fused: bool = True, use_lar: bool = True, use_gar: bool = True
) -> LayerOps:
    """Sum of layer budgets over a network spec list."""
    total = LayerOps(0, 0, 0)
    for spec in specs:
        total = total + (
            mlcnn_layer_ops(spec, use_lar, use_gar) if fused else dcnn_layer_ops(spec)
        )
    return total


def layer_multiplication_reduction(spec: LayerSpec) -> float:
    """Per-layer fraction of multiplications removed by MLCNN (Fig. 14)."""
    base = dcnn_layer_ops(spec).multiplications
    fused = mlcnn_layer_ops(spec).multiplications
    return (base - fused) / float(base)


def layer_addition_reduction(spec: LayerSpec) -> float:
    """Per-layer fraction of additions removed by MLCNN (Fig. 14)."""
    base = dcnn_layer_ops(spec).additions
    ml = mlcnn_layer_ops(spec)
    fused = ml.additions + ml.preprocessing_additions
    return (base - fused) / float(base)
