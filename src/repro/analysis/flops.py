"""FLOP auditing for spec lists and live models.

Bridges the two model representations: the full-size
:class:`~repro.models.specs.LayerSpec` lists used by the accelerator
experiments (closed-form :mod:`repro.core.opcount` counts) and the live
(possibly fused, quantized or lowered) NumPy models, whose forward
passes are counted by the measured op counters.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.opcount import (
    dcnn_layer_ops,
    layer_addition_reduction,
    layer_multiplication_reduction,
    mlcnn_layer_ops,
)
from repro.models.specs import LayerSpec
from repro.nn.counters import collect_counters
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, no_grad


def model_flops(specs: Sequence[LayerSpec], fused: bool = False) -> int:
    """Total multiply+add count of a spec list (conv layers only)."""
    total = 0
    for spec in specs:
        ops = mlcnn_layer_ops(spec) if fused else dcnn_layer_ops(spec)
        total += ops.total
    return total


def probe_forward(model: Module, x: np.ndarray) -> Tuple[np.ndarray, int]:
    """One gradient-free forward pass returning ``(output, macs)``.

    ``macs`` is the multiplications the forward recorded into the
    measured op counters (:mod:`repro.nn.counters`): every kernel records
    what it performs, so a :class:`~repro.core.fusion.FusedConvPool` is
    counted at its RME-reduced cost, a
    :class:`~repro.core.quantize.QuantizedConvBlock` at its inner
    convolution's, and a layer with a lowered kernel bound at that
    kernel's, which lowering leaves unchanged.  The compiler pipeline
    uses this for its per-pass FLOP-delta instrumentation.
    """
    with no_grad(), collect_counters() as oc:
        out = model(Tensor(np.asarray(x)))
    return out.data, oc.mults


def count_model_macs(model: Module, input_shape: tuple) -> int:
    """MAC count of a live model: :func:`probe_forward` on a zero input."""
    return probe_forward(model, np.zeros(input_shape))[1]


def layer_table(specs: Sequence[LayerSpec]) -> List[Dict[str, object]]:
    """Per-layer audit rows for Fig. 14-style reporting."""
    rows: List[Dict[str, object]] = []
    for spec in specs:
        base = dcnn_layer_ops(spec)
        fused = mlcnn_layer_ops(spec)
        rows.append(
            {
                "layer": spec.name,
                "fusable": spec.is_fusable,
                "kernel": spec.kernel,
                "pool": spec.pool,
                "dcnn_mults": base.multiplications,
                "dcnn_adds": base.additions,
                "mlcnn_mults": fused.multiplications,
                "mlcnn_adds": fused.additions + fused.preprocessing_additions,
                "mult_reduction": layer_multiplication_reduction(spec) if spec.is_fusable else 0.0,
                "add_reduction": layer_addition_reduction(spec) if spec.is_fusable else 0.0,
            }
        )
    return rows
