"""DoReFa-style k-bit quantization (Section VII.A, Eqs. 8-9).

The paper combines MLCNN with input/weight quantization adapted from
DoReFa-Net using a straight-through estimator (STE):

.. math::

    \\mathrm{quantize}_k(r_i) = \\frac{1}{2^k - 1}
        \\operatorname{round}\\big((2^k - 1)\\, r_i\\big)

Weights are squashed with ``tanh`` to [-1, 1] before quantization
(Eq. 9); activations in [0, 1] use Eq. 8 directly.  The STE passes
gradients through the rounding unchanged, so quantized models remain
trainable with the same optimizer.

When a :class:`repro.obs.numerics.NumericsCollector` is enabled, the
quantizers report health events: the activation clip rate (fraction of
values outside [0, 1] before Eq. 8), the activation full-scale
saturation rate (fraction rounding to exactly 1.0) and the weight
saturation rate (fraction landing on ±1).  Saturation rates rise as
``k`` shrinks and are the per-layer early-warning signal for the
quantization accuracy cliff (see EXPERIMENTS.md).  Disabled, the cost
is one truthiness check per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.models.blocks import ConvBlock
from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, make_node, send_grad
from repro.obs.numerics import collecting, record_quant_event


def quantize_k(r: np.ndarray, k: int) -> np.ndarray:
    """Eq. (8): quantize values in [0, 1] to ``k`` bits (NumPy arrays)."""
    if k < 1:
        raise ValueError(f"bit width must be >= 1, got {k}")
    if k >= 32:
        return np.asarray(r, dtype=np.float64)
    levels = float(2 ** k - 1)
    return np.round(np.asarray(r) * levels) / levels


def quantize_weights(w: np.ndarray, k: int) -> np.ndarray:
    """Eq. (9): tanh-rescaled weight quantization to [-1, 1]."""
    if k >= 32:
        return np.asarray(w, dtype=np.float64)
    t = np.tanh(np.asarray(w))
    denom = 2.0 * np.abs(t).max() + 1e-12
    q = 2.0 * quantize_k(t / denom + 0.5, k) - 1.0
    if collecting():
        record_quant_event(
            "dorefa.weight_sat", int(np.count_nonzero(np.abs(q) >= 1.0)), q.size
        )
    return q


def quantize_activations(x: np.ndarray, k: int) -> np.ndarray:
    """Eq. (8) on post-ReLU activations, clipped to [0, 1] first."""
    if k >= 32:
        return np.asarray(x, dtype=np.float64)
    x = np.asarray(x)
    q = quantize_k(np.clip(x, 0.0, 1.0), k)
    if collecting():
        low = int(np.count_nonzero(x < 0.0))
        high = int(np.count_nonzero(x > 1.0))
        record_quant_event("dorefa.act_clip", low + high, x.size, low=low, high=high)
        record_quant_event("dorefa.act_sat", int(np.count_nonzero(q >= 1.0)), q.size)
    return q


def _ste(x: Tensor, quantized: np.ndarray) -> Tensor:
    """Return ``quantized`` as a graph node whose gradient is identity."""
    node = make_node(quantized, (x,))
    if node.requires_grad:
        node._backward = lambda g: send_grad(x, g)
    return node


def ste_quantize_weights(w: Tensor, k: int) -> Tensor:
    """Weight quantization with straight-through gradients."""
    return _ste(w, quantize_weights(w.data, k))


def ste_quantize_activations(x: Tensor, k: int) -> Tensor:
    """Activation quantization with straight-through gradients.

    Matches the paper: Eq. (8) after ReLU (inputs already in [0, inf),
    clipped to [0, 1]); gradients pass through unchanged inside the
    clip range.
    """
    data = quantize_activations(x.data, k)
    node = make_node(data, (x,))
    if node.requires_grad:
        mask = (x.data >= 0.0) & (x.data <= 1.0)
        node._backward = lambda g: send_grad(x, g * mask)
    return node


@dataclass(frozen=True)
class QuantConfig:
    """Bit widths for the quantized MLCNN variants (Table VII)."""

    weight_bits: int = 8
    activation_bits: int = 8

    def __post_init__(self) -> None:
        if self.weight_bits < 1 or self.activation_bits < 1:
            raise ValueError("bit widths must be >= 1")

    @property
    def label(self) -> str:
        if self.weight_bits >= 32:
            return "FP32"
        if self.weight_bits == 16:
            return "FP16"
        return f"INT{self.weight_bits}"


class QuantizedConvBlock(Module):
    """A :class:`ConvBlock` whose weights/inputs are k-bit quantized.

    Wraps (and shares parameters with) an existing block; the forward
    quantizes the weight tensor (Eq. 9) and the incoming activations
    (Eq. 8) before the convolution, then runs the block's
    :meth:`~repro.models.blocks.ConvBlock.epilogue` (its pool and
    activation in its configured order).
    """

    #: this forward inlines the wrapped block's computation (no child
    #: module forward runs), so numerics instrumentation observes here
    _numerics_leaf = True

    def __init__(self, block: ConvBlock, config: QuantConfig, quantize_input: bool = True) -> None:
        super().__init__()
        self.block = block
        self.config = config
        self.quantize_input = quantize_input

    def forward(self, x: Tensor) -> Tensor:
        blk = self.block
        if self.quantize_input:
            x = ste_quantize_activations(x, self.config.activation_bits)
        w = ste_quantize_weights(blk.conv.weight, self.config.weight_bits)
        y = F.conv2d(x, w, blk.conv.bias, blk.conv.stride, blk.conv.padding)
        return blk.epilogue(y)


def quantize_model(model: Module, config: QuantConfig) -> Module:
    """Wrap every :class:`ConvBlock` in ``model`` for k-bit execution.

    The first convolution's *input* is left unquantized (images are
    standardized, not in [0, 1]), matching common DoReFa practice of
    keeping the first layer higher precision.
    """
    first = True

    def _walk(mod: Module) -> None:
        nonlocal first
        for name, child in list(mod._modules.items()):
            if isinstance(child, ConvBlock):
                q = QuantizedConvBlock(child, config, quantize_input=not first)
                first = False
                mod._modules[name] = q
                object.__setattr__(mod, name, q)
            else:
                _walk(child)

    _walk(model)
    return model
