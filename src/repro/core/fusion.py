"""The fused convolution-pooling kernel (Section IV, Algorithm 1).

After reordering (``Conv -> AvgPool -> ReLU``) the two linear layers
fuse: a p x p average pool (stride p) over a stride-1 K x K convolution
equals a stride-p K x K convolution over the p x p *box sum* of the
input (``I_Acc`` in the paper), divided by ``p^2``:

.. math::

    P_{x,y} = \\mathrm{ReLU}\\Big(\\frac{1}{p^2} \\sum_{i,j,c}
        W_{c,i,j} \\cdot I\\_Acc_{c,\\,p x + i,\\,p y + j} + B\\Big)

The box sum itself is :func:`repro.core.kernels.boxsum.box_sum`,
re-exported here as :func:`box_sum`.  Two implementations live here:

* :func:`fused_conv_pool` — a fully vectorized NumPy execution used for
  inference and for the functional-equivalence property tests.
* :func:`fused_conv_pool_counted` — an instrumented reference executor
  (explicit loops, small inputs only) that performs the half-addition /
  full-addition / major-accumulation schedule of Algorithm 1 with
  configurable reuse caches, counting every scalar operation into the
  :class:`~repro.nn.counters.OpCounters` it returns and records.  This
  is the ground truth for the analytical models in
  :mod:`repro.core.opcount` and for the RTL micro-simulator.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.kernels import fused as _kernels
from repro.core.kernels.boxsum import box_sum
from repro.nn import functional as F
from repro.nn.counters import OpCounters, get_recorder
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, is_grad_enabled, make_node, needs_grad, send_grad


def fused_conv_pool(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    pool: int = 2,
    pool_stride: Optional[int] = None,
    padding: int = 0,
    activation: str = "relu",
    impl: str = "vectorized",
) -> Tensor:
    """Execute ``ReLU(AvgPool_p(Conv_K(x)))`` as one fused kernel.

    RME in vectorized form: the convolution runs on the box-summed
    input with stride ``p``, touching each weight once per *pooled*
    output.  Supports autograd (gradients flow through the box sum), so
    a fused network remains trainable; the input gradient is computed
    only when ``x`` needs one (:func:`repro.nn.tensor.needs_grad`), so
    a network's first layer skips it.

    ``impl="vectorized"`` (default) lowers the whole operator to one
    :func:`repro.core.kernels.fused.fused_forward` call (gather + GEMM)
    with a closed-form backward; ``impl="reference"`` keeps the
    original composition (box sum node + ``F.conv2d`` + epilogue ops),
    which the ``accel-sweep`` benchmark's RTL oracle reads.  Either way
    the multiplications performed and eliminated are recorded once into
    the measured counters.  ``weight`` must be a square (M, C, K, K)
    kernel.

    ``pool_stride`` defaults to ``pool`` (non-overlapping pooling);
    ``pool_stride != pool`` executes the overlapping-pool identity —
    the convolution over the box-summed input runs at the pool stride
    instead.  The conv stride must be 1 (enforced by callers via
    :meth:`repro.models.blocks.ConvBlock.is_fusable`).
    """
    pool_stride = pool if pool_stride is None else pool_stride
    if pool_stride < 1:
        raise ValueError(f"pool stride must be >= 1, got {pool_stride}")
    if impl not in ("vectorized", "reference"):
        raise ValueError(f"impl must be 'vectorized' or 'reference', got {impl!r}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    weight = weight if isinstance(weight, Tensor) else Tensor(weight)

    if impl == "vectorized":
        bias_t = bias if (bias is None or isinstance(bias, Tensor)) else Tensor(bias)
        out_data, res = _kernels.fused_forward(
            x.data,
            weight.data,
            None if bias_t is None else bias_t.data,
            pool=pool,
            padding=padding,
            activation=activation,
            stride=pool_stride,
        )
        parents = (x, weight) + (() if bias_t is None else (bias_t,))
        node = make_node(out_data, parents)
        if node.requires_grad:

            def _bw(g: np.ndarray) -> None:
                gx, gw, gb = _kernels.fused_backward(g, res, input_grad=needs_grad(x))
                if gx is not None:
                    send_grad(x, gx)
                send_grad(weight, gw)
                if bias_t is not None:
                    send_grad(bias_t, gb)

            node._backward = _bw
        return node

    n, c, h, w = x.shape
    m, _, k, kw = weight.shape
    if k != kw:
        raise ValueError(f"the fused kernel needs a square kernel (KH == KW), got {k}x{kw}")

    if padding:
        pad = padding
        xd = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    else:
        xd = x.data
    acc = box_sum(xd, pool)
    acc_t = make_node(acc, (x,))
    if acc_t.requires_grad:

        def _bw(g: np.ndarray) -> None:
            # Scatter the box-sum gradient back to every contributing pixel.
            hp, wp = xd.shape[-2:]
            gx = np.zeros((n, c, hp, wp), dtype=g.dtype)
            ho, wo = g.shape[-2:]
            for i in range(pool):
                for j in range(pool):
                    gx[:, :, i : i + ho, j : j + wo] += g
            if padding:
                gx = gx[:, :, padding : padding + h, padding : padding + w]
            send_grad(x, gx)

        acc_t._backward = _bw

    out = F.conv2d(acc_t, weight, bias=None, stride=pool_stride)
    _kernels.record_rme_counters(
        n, m, c, k, pool, *out.shape[-2:], *xd.shape[-2:], eliminated_only=True
    )
    out = out * (1.0 / (pool * pool))
    if bias is not None:
        out = out + bias.reshape(1, m, 1, 1)
    if activation == "relu":
        return F.relu(out)
    if activation == "sigmoid":
        return F.sigmoid(out)
    if activation == "tanh":
        return F.tanh(out)
    if activation == "none":
        return out
    raise ValueError(f"unknown activation {activation!r}")


class FusedConvPool(Module):
    """Module wrapper executing a fusable ConvBlock as the fused kernel.

    Shares the parameters of the original block (no copy), so a fused
    network stays in sync with the original weights.

    Forwards run the vectorized :func:`fused_conv_pool` in the
    parameters' dtype.  The lowering pass casts the parameters to
    float32 and may :meth:`attach_kernel` the fp32
    :class:`~repro.core.kernels.nhwc.F32NHWCKernel`; it then serves
    gradient-free (inference) forwards, while training forwards keep
    the autograd path on the shared parameters.

    The bound kernel gets its weight operand from its own
    :meth:`~repro.core.kernels.nhwc.F32NHWCKernel.folded` cache, keyed
    on the identity and ``_version`` of the weight and bias data: it is
    re-folded only after a rebind of ``.data`` or an in-place write that
    called :meth:`~repro.nn.tensor.Tensor.bump_version`.
    """

    def __init__(self, conv_block) -> None:
        super().__init__()
        if not conv_block.is_fusable():
            raise ValueError(
                "block is not fusable (needs average pooling, pool_act order, "
                "unit conv stride, a square kernel and square padding)"
            )
        # Keep a handle to the original block WITHOUT registering it as
        # a child module: it must not be re-discovered (and re-fused) by
        # module-tree walks, and its parameters are shared below anyway.
        object.__setattr__(self, "source", conv_block)
        self.padding = conv_block.conv.padding[0]
        self.pool = conv_block.pool.kernel
        self.pool_stride = conv_block.pool.stride
        self.activation = conv_block.activation
        self._kernel = None  # lowered kernel bound by the compiler
        # Share (not copy) parameters for counting and training.
        self.register_parameter("weight", conv_block.conv.weight)
        if conv_block.conv.bias is not None:
            self.register_parameter("bias", conv_block.conv.bias)
        else:
            self.bias = None

    @property
    def lowering_pool(self) -> Optional[int]:
        """Pool of the lowered kernel that computes this layer, or ``None``.

        The lowered kernel gathers one patch per pool-size step, so it
        computes only non-overlapping pools (pool stride == pool).
        """
        return self.pool if self.pool_stride == self.pool else None

    def attach_kernel(self, kernel) -> None:
        """Bind (or with ``None``, unbind) a lowered inference kernel."""
        if kernel is not None and kernel.pool != self.lowering_pool:
            raise ValueError(
                "a lowered kernel computes only a non-overlapping pool of its own "
                f"size (kernel pool == pool == pool stride); got kernel pool "
                f"{kernel.pool}, pool {self.pool}, pool stride {self.pool_stride}"
            )
        self._kernel = kernel

    @property
    def kernel(self):
        """The bound lowered kernel, or ``None`` before lowering."""
        return self._kernel

    def forward(self, x: Tensor) -> Tensor:
        if self._kernel is not None and not is_grad_enabled():
            out = self._kernel.run_nchw(
                x.data,
                self.weight.data,
                padding=self.padding,
                activation=self.activation,
                wmat=self._kernel.folded(self.weight, self.bias),
            )
            return Tensor(out)
        return fused_conv_pool(
            x,
            self.weight,
            self.bias,
            pool=self.pool,
            pool_stride=self.pool_stride,
            padding=self.padding,
            activation=self.activation,
        )

    def extra_repr(self) -> str:
        extra = f"pool={self.pool}, padding={self.padding}, act={self.activation}"
        if self.pool_stride != self.pool:
            extra += f", stride={self.pool_stride}"  # overlapping-pool signature
        return extra


# ---------------------------------------------------------------------------
# Instrumented reference executor
# ---------------------------------------------------------------------------

def _check_image(x: np.ndarray, weight: np.ndarray) -> None:
    """The counted loop nests run one square image through a square
    kernel: they size every plane from H and K alone."""
    if x.ndim != 3:
        raise ValueError(f"counted executors take one (C, H, W) image, got shape {x.shape}")
    c, h, w = x.shape
    m, cw, kh, kw = weight.shape
    if c != cw:
        raise ValueError(f"channel mismatch: input {c}, weight {cw}")
    if h != w:
        raise ValueError(f"counted executors need a square input (H == W), got {h}x{w}")
    if kh != kw:
        raise ValueError(f"counted executors need a square kernel (KH == KW), got {kh}x{kw}")


def dense_conv_pool_counted(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None, pool: int = 2
) -> Tuple[np.ndarray, OpCounters]:
    """Reference dense execution (conv then average pool), fully counted.

    Single square image ``(C, H, H)`` and square weights ``(M, C, K, K)``;
    the conv is stride 1, valid padding, followed by a p x p stride-p
    average pool and ReLU.  This is the baseline the paper's 16-mult
    example uses.  Returns the output and the operation tally, which it
    also records (a dense run eliminates nothing).  The ``1/p^2``
    scaling costs one multiplication per pooled output, none at
    ``p = 1``, where there is no pooling.
    """
    _check_image(x, weight)
    c, h, _ = x.shape
    m, _, k, _ = weight.shape
    counter = OpCounters()
    co = h - k + 1
    conv = np.zeros((m, co, co))
    for to in range(m):
        for i in range(co):
            for j in range(co):
                acc = 0.0
                for ti in range(c):
                    for ki in range(k):
                        for kj in range(k):
                            acc += x[ti, i + ki, j + kj] * weight[to, ti, ki, kj]
                counter.mults += c * k * k
                counter.major_additions += c * k * k - 1
                if bias is not None:
                    acc += bias[to]
                    counter.bias_additions += 1
                conv[to, i, j] = acc
    po = (co - pool) // pool + 1
    out = np.zeros((m, po, po))
    for to in range(m):
        for i in range(po):
            for j in range(po):
                s = conv[to, i * pool : i * pool + pool, j * pool : j * pool + pool].sum()
                counter.major_additions += pool * pool - 1
                if pool > 1:
                    counter.mults += 1  # scaling by 1/p^2
                out[to, i, j] = max(s / (pool * pool), 0.0)
    get_recorder().record(**counter.as_dict(include_derived=False))
    return out, counter


def fused_conv_pool_counted(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    pool: int = 2,
    use_lar: bool = True,
    use_gar_row: bool = True,
    use_gar_col: bool = True,
) -> Tuple[np.ndarray, OpCounters]:
    """Algorithm 1 with explicit reuse caches and exact op counting.

    Single square image ``(C, H, H)`` and square weights; stride-1 valid
    conv + p x p stride-p average pool + ReLU, executed as half
    additions (vertical runs of ``p``), full additions (horizontal runs
    of ``p`` half-additions), and per-output major accumulations.

    Reuse scopes:

    * ``use_lar`` — half additions are cached while computing one
      pooled output (shared between the overlapping full additions of
      adjacent columns).
    * ``use_gar_row`` — full/half additions persist across pooled
      outputs in the same output row.
    * ``use_gar_col`` — they persist across output rows too (and across
      output channels, since ``I_Acc`` is input-only).

    Returns the output feature map and the operation tally, which it
    also records; ``mults_eliminated`` is measured against a dense run
    of the same geometry.  The output is bit-identical in value to
    :func:`fused_conv_pool` up to fp association order.
    """
    _check_image(x, weight)
    c, h, _ = x.shape
    m, _, k, _ = weight.shape
    counter = OpCounters()
    co = h - k + 1
    po = (co - pool) // pool + 1

    # Cache scopes:
    #   LAR  — half additions are shared between the overlapping full
    #          additions computed for ONE pooled output (within-output).
    #   GAR  — full (and half) additions persist across pooled outputs:
    #          row scope keeps them for one output row, column scope for
    #          the whole plane (and across output channels, since I_Acc
    #          depends only on the input).
    ha_cache: Dict[Tuple[int, int, int], float] = {}
    fa_cache: Dict[Tuple[int, int, int], float] = {}

    def half_add(ti: int, i: int, j: int) -> float:
        """Vertical run I[i..i+p-1, j] (p-1 additions, LAR-cached)."""
        key = (ti, i, j)
        if use_lar and key in ha_cache:
            counter.lar_reuse_hits += pool - 1
            return ha_cache[key]
        val = float(x[ti, i, j])
        for d in range(1, pool):
            val += float(x[ti, i + d, j])
        counter.half_additions += pool - 1
        if use_lar:
            ha_cache[key] = val
        return val

    def small_acc(ti: int, i: int, j: int) -> float:
        """I_Acc value at (i, j): the p x p box sum of the input.

        With LAR it is a horizontal run of p cached half additions;
        without, it costs the full ``p^2 - 1`` additions.
        """
        key = (ti, i, j)
        if (use_gar_row or use_gar_col) and key in fa_cache:
            # A cached I_Acc avoids the full p^2-1 additions a no-reuse
            # execution would spend (its constituent HA hits are not
            # separately counted), keeping additions+reuse_hits invariant.
            counter.gar_reuse_hits += pool * pool - 1
            return fa_cache[key]
        if use_lar:
            val = half_add(ti, i, j)
            for d in range(1, pool):
                val = val + half_add(ti, i, j + d)
            counter.full_additions += pool - 1
        else:
            val = float(x[ti, i : i + pool, j : j + pool].sum())
            counter.full_additions += pool * pool - 1
        if use_gar_row or use_gar_col:
            fa_cache[key] = val
        return val

    out = np.zeros((m, po, po))
    scale = 1.0 / (pool * pool)
    for to in range(m):
        if not use_gar_col:
            ha_cache.clear()
            fa_cache.clear()
        for r in range(po):
            if not use_gar_col:
                ha_cache.clear()
                fa_cache.clear()
            for q in range(po):
                if not use_gar_row and not use_gar_col:
                    fa_cache.clear()
                if not use_lar:
                    pass  # half additions are never cached without LAR
                elif not (use_gar_row or use_gar_col):
                    ha_cache.clear()  # LAR scope: one pooled output
                acc = 0.0
                first = True
                for ti in range(c):
                    for ki in range(k):
                        for kj in range(k):
                            v = weight[to, ti, ki, kj] * small_acc(
                                ti, r * pool + ki, q * pool + kj
                            )
                            counter.mults += 1
                            if first:
                                acc = v
                                first = False
                            else:
                                acc += v
                                counter.major_additions += 1
                val = acc * scale  # shift in hardware: not counted
                if bias is not None:
                    val += bias[to]
                    counter.bias_additions += 1
                out[to, r, q] = max(val, 0.0)
    # RME elimination measured against a dense run of the same geometry:
    # c*k*k mults per conv output plus one scaling mult per pooled output
    # (none without pooling).
    dense_mults = m * (co * co * c * k * k + (po * po if pool > 1 else 0))
    counter.mults_eliminated = dense_mults - counter.mults
    get_recorder().record(**counter.as_dict(include_derived=False))
    return out, counter
