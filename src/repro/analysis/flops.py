"""FLOP auditing for spec lists and live models.

Bridges the two model representations: the full-size
:class:`~repro.models.specs.LayerSpec` lists used by the accelerator
experiments and the live (possibly width-reduced) NumPy models used by
the accuracy experiments.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.opcount import (
    dcnn_layer_ops,
    layer_addition_reduction,
    layer_multiplication_reduction,
    mlcnn_layer_ops,
)
from repro.models.blocks import ConvBlock
from repro.models.specs import LayerSpec
from repro.nn.layers import Conv2d, Linear, Module


def model_flops(specs: Sequence[LayerSpec], fused: bool = False) -> int:
    """Total multiply+add count of a spec list (conv layers only)."""
    total = 0
    for spec in specs:
        ops = mlcnn_layer_ops(spec) if fused else dcnn_layer_ops(spec)
        total += ops.total
    return total


def count_model_macs(model: Module, input_shape: tuple) -> int:
    """MAC count of a live model by shape propagation on a dummy input.

    Runs a single forward pass while hooking every Conv2d/Linear to
    record its output shape; useful for width-reduced training models.
    """
    from repro.nn.tensor import Tensor, no_grad

    macs = {"total": 0}
    original_conv = Conv2d.forward
    original_linear = Linear.forward

    def conv_fwd(self, x):
        out = original_conv(self, x)
        n, m, ho, wo = out.shape
        macs["total"] += (
            n * m * ho * wo * self.in_channels * self.kernel_size[0] * self.kernel_size[1]
        )
        return out

    def linear_fwd(self, x):
        out = original_linear(self, x)
        macs["total"] += self.in_features * self.out_features * x.shape[0]
        return out

    Conv2d.forward = conv_fwd
    Linear.forward = linear_fwd
    try:
        with no_grad():
            model(Tensor(np.zeros(input_shape)))
    finally:
        Conv2d.forward = original_conv
        Linear.forward = original_linear
    return macs["total"]


def probe_forward(model: Module, x: np.ndarray):
    """One gradient-free forward pass returning ``(output, macs)``.

    Unlike :func:`count_model_macs` (which hooks the ``Conv2d`` /
    ``Linear`` *modules*), this hooks the functional ``conv2d`` /
    ``linear`` entry points, so transformed models are counted
    faithfully: a :class:`~repro.core.fusion.FusedConvPool` convolves
    the box-summed input at *pooled* resolution and is therefore
    counted at the RME-reduced cost, and a
    :class:`~repro.core.quantize.QuantizedConvBlock` (which bypasses
    ``Conv2d.forward``) is counted at all.  A ``Conv2d`` with a lowered
    kernel bound runs the kernel instead of ``conv2d`` and is counted
    there, so lowering leaves the count unchanged.  The compiler pipeline
    uses this for its per-pass FLOP-delta instrumentation.
    """
    from repro.nn import functional as F
    from repro.nn.tensor import Tensor, no_grad

    macs = {"total": 0}
    original_conv = F.conv2d
    original_linear = F.linear

    def count_conv(out_shape, weight_shape):
        n, m, ho, wo = out_shape
        _, cin, kh, kw = weight_shape
        macs["total"] += n * m * ho * wo * cin * kh * kw

    def conv2d(x, weight, bias=None, stride=1, padding=0, save_memory=None):
        out = original_conv(x, weight, bias, stride, padding, save_memory)
        count_conv(out.shape, weight.shape)
        return out

    def counted_kernel(run):
        def run_nchw(x, weight, *args, **kwargs):
            out = run(x, weight, *args, **kwargs)
            count_conv(out.shape, weight.shape)
            return out

        return run_nchw

    def linear(x, weight, bias=None):
        out = original_linear(x, weight, bias)
        fan_out, fan_in = weight.shape
        macs["total"] += x.shape[0] * fan_in * fan_out
        return out

    kernels = {
        id(mod.kernel): mod.kernel
        for _, mod in model.named_modules()
        if isinstance(mod, Conv2d) and mod.kernel is not None
    }
    F.conv2d = conv2d
    F.linear = linear
    for kernel in kernels.values():
        kernel.run_nchw = counted_kernel(kernel.run_nchw)
    try:
        with no_grad():
            out = model(Tensor(np.asarray(x)))
    finally:
        F.conv2d = original_conv
        F.linear = original_linear
        for kernel in kernels.values():
            del kernel.run_nchw
    return out.data, macs["total"]


def count_transformed_macs(model: Module, input_shape: tuple) -> int:
    """MAC count of a (possibly fused/quantized) model; see :func:`probe_forward`."""
    _, macs = probe_forward(model, np.zeros(input_shape))
    return macs


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
