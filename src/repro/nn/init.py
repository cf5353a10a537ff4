"""Weight initializers.

Deterministic given an explicit ``numpy.random.Generator`` so training
experiments are reproducible across runs and platforms.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _fan(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """(fan_in, fan_out) for linear (out,in) or conv (M,C,kh,kw) weights."""
    if len(shape) == 2:
        out_f, in_f = shape
        return in_f, out_f
    if len(shape) == 4:
        m, c, kh, kw = shape
        rf = kh * kw
        return c * rf, m * rf
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_normal(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He initialization (suited to ReLU networks)."""
    fan_in, _ = _fan(shape)
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape)
