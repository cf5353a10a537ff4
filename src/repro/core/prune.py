"""Magnitude pruning (the paper's orthogonality claim, Section VIII).

MLCNN "is complementary to the preceding techniques" — pruning among
them.  This module provides global magnitude pruning over a model's
convolution weights plus sparsity-aware operation counting, so the
combined MLCNN+pruning saving can be quantified: RME removes the p²−1
redundant multiplications per weight, pruning removes the weights
themselves, and the savings compose multiplicatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.models.blocks import ConvBlock
from repro.models.specs import LayerSpec
from repro.nn.layers import Conv2d, Module


@dataclass(frozen=True)
class SparsityReport:
    """Per-model pruning outcome."""

    total_weights: int
    pruned_weights: int
    per_layer: Dict[str, float]

    @property
    def sparsity(self) -> float:
        return self.pruned_weights / self.total_weights if self.total_weights else 0.0


def magnitude_prune(model: Module, sparsity: float) -> SparsityReport:
    """Zero the globally smallest-magnitude fraction of conv weights.

    Operates in place; biases and non-conv parameters are untouched.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    convs: List[Tuple[str, Conv2d]] = [
        (name, mod) for name, mod in model.named_modules() if isinstance(mod, Conv2d)
    ]
    if not convs:
        raise ValueError("model has no convolution layers to prune")
    all_mags = np.concatenate([np.abs(c.weight.data).ravel() for _, c in convs])
    if sparsity == 0.0:
        return SparsityReport(all_mags.size, 0, {n: 0.0 for n, _ in convs})
    threshold = np.quantile(all_mags, sparsity)
    pruned = 0
    per_layer: Dict[str, float] = {}
    for name, conv in convs:
        mask = np.abs(conv.weight.data) <= threshold
        conv.weight.data[mask] = 0.0
        conv.weight.bump_version()
        pruned += int(mask.sum())
        per_layer[name] = float(mask.mean())
    return SparsityReport(int(all_mags.size), pruned, per_layer)


def capture_masks(model: Module) -> Dict[str, np.ndarray]:
    """Snapshot the zero-pattern of every conv weight tensor."""
    return {
        name: (mod.weight.data == 0.0)
        for name, mod in model.named_modules()
        if isinstance(mod, Conv2d)
    }


def restore_masks(model: Module, masks: Dict[str, np.ndarray]) -> int:
    """Zero the masked weights again (after an optimizer step)."""
    reset = 0
    for name, mod in model.named_modules():
        if isinstance(mod, Conv2d) and name in masks:
            mask = masks[name]
            reset += int((mod.weight.data[mask] != 0).sum())
            mod.weight.data[mask] = 0.0
            mod.weight.bump_version()
    return reset


def sparse_layer_multiplications(
    spec: LayerSpec, weight_sparsity: float, fused: bool
) -> float:
    """Expected multiplications with zero weights skipped.

    A zero weight skips its multiplication in every position (weight
    repetition hardware, cf. UCNN [33]); the saving multiplies with
    RME's p² factor when ``fused``.
    """
    if not 0.0 <= weight_sparsity <= 1.0:
        raise ValueError("weight_sparsity must be in [0, 1]")
    from repro.core.opcount import dcnn_layer_ops, mlcnn_layer_ops

    ops = mlcnn_layer_ops(spec) if (fused and spec.is_fusable) else dcnn_layer_ops(spec)
    return ops.multiplications * (1.0 - weight_sparsity)


def combined_reduction(spec: LayerSpec, weight_sparsity: float) -> float:
    """Fraction of baseline multiplications removed by MLCNN+pruning."""
    from repro.core.opcount import dcnn_layer_ops

    base = dcnn_layer_ops(spec).multiplications
    combined = sparse_layer_multiplications(spec, weight_sparsity, fused=True)
    return 1.0 - combined / base
