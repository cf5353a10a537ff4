"""Building blocks for the model zoo.

:class:`ConvBlock` is the unit of the paper's cross-layer optimization:
it owns a convolution, an activation, and an optional pooling layer,
together with the *relative order* of the activation and the pooling.
The MLCNN reordering transform flips that order (``act_pool`` ->
``pool_act``); the all-conv transform folds the pooling into the
convolution stride.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Conv2d, Module
from repro.nn.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]

#: valid activation names for ConvBlock
ACTIVATIONS = ("relu", "sigmoid", "tanh", "none")
#: valid activation/pool orders
ORDERS = ("act_pool", "pool_act")


@dataclass
class PoolSpec:
    """Pooling attached to a :class:`ConvBlock`."""

    kind: str  # "avg" | "max"
    kernel: int
    stride: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("avg", "max"):
            raise ValueError(f"pool kind must be 'avg' or 'max', got {self.kind!r}")
        if self.kernel < 1:
            raise ValueError("pool kernel must be >= 1")
        if self.stride is None:
            self.stride = self.kernel

    def apply(self, x: Tensor) -> Tensor:
        if self.kind == "avg":
            return F.avg_pool2d(x, self.kernel, self.stride)
        return F.max_pool2d(x, self.kernel, self.stride)


class ConvBlock(Module):
    """``conv -> activation <-> pooling`` with a mutable order.

    Parameters
    ----------
    order:
        ``"act_pool"`` is the conventional ``Conv -> ReLU -> Pool``;
        ``"pool_act"`` is the MLCNN-reordered ``Conv -> Pool -> ReLU``.
        Ignored when ``pool is None``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        activation: str = "relu",
        pool: Optional[PoolSpec] = None,
        order: str = "act_pool",
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; valid: {ACTIVATIONS}")
        if order not in ORDERS:
            raise ValueError(f"unknown order {order!r}; valid: {ORDERS}")
        self.conv = Conv2d(
            in_channels, out_channels, kernel_size, stride, padding, bias=bias, rng=rng
        )
        self.activation = activation
        self.pool = pool
        self.order = order

    # -- MLCNN hooks ---------------------------------------------------------
    def is_fusable(self) -> bool:
        """True when this block matches the MLCNN fused conv-pool pattern.

        The one fusability predicate:
        :func:`repro.core.transform.fuse_network` fuses exactly the
        blocks it accepts, and :class:`repro.core.fusion.FusedConvPool`
        rejects the others.
        Requires average pooling in the reordered layout (pool before
        activation), a unit conv stride (the fused kernel computes a
        strided convolution over the box-summed input), and a square
        kernel and square padding.
        Any pool stride is accepted: an overlapping pool
        (``stride != kernel``) gathers the same box-sum patches at the
        pool-stride positions.
        """
        conv = self.conv
        return (
            self.pool is not None
            and self.pool.kind == "avg"
            and self.order == "pool_act"
            and conv.stride == (1, 1)
            and conv.kernel_size[0] == conv.kernel_size[1]
            and conv.padding[0] == conv.padding[1]
        )

    def _act(self, x: Tensor) -> Tensor:
        if self.activation == "relu":
            return F.relu(x)
        if self.activation == "sigmoid":
            return F.sigmoid(x)
        if self.activation == "tanh":
            return F.tanh(x)
        return x

    def epilogue(self, x: Tensor) -> Tensor:
        """Everything after the convolution: activation and pool in order."""
        if self.pool is None:
            return self._act(x)
        if self.order == "act_pool":
            return self.pool.apply(self._act(x))
        return self._act(self.pool.apply(x))

    def forward(self, x: Tensor) -> Tensor:
        return self.epilogue(self.conv(x))

    def extra_repr(self) -> str:
        pool = f"{self.pool.kind}{self.pool.kernel}" if self.pool else "none"
        if self.pool is not None and self.pool.stride != self.pool.kernel:
            pool += f"s{self.pool.stride}"  # overlapping pools alter the signature
        return f"act={self.activation}, pool={pool}, order={self.order}"


class Inception(Module):
    """GoogLeNet inception module (1x1 / 3x3 / 5x5 / pool-proj branches).

    The four *output* convolutions are built pre-activation; the module
    applies one ReLU to the channel concat (elementwise, so equivalent
    to per-branch ReLU).  :meth:`forward_preact` exposes the
    pre-activation concat, which :class:`PooledInception` needs to
    realize the MLCNN reordering for inception stages followed by
    pooling (the paper's "12 layers in GoogLeNet").
    """

    def __init__(
        self,
        in_channels: int,
        c1: int,
        c3_reduce: int,
        c3: int,
        c5_reduce: int,
        c5: int,
        pool_proj: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.b1 = ConvBlock(in_channels, c1, 1, activation="none", rng=rng)
        self.b2_reduce = ConvBlock(in_channels, c3_reduce, 1, rng=rng)
        self.b2 = ConvBlock(c3_reduce, c3, 3, padding=1, activation="none", rng=rng)
        self.b3_reduce = ConvBlock(in_channels, c5_reduce, 1, rng=rng)
        self.b3 = ConvBlock(c5_reduce, c5, 5, padding=2, activation="none", rng=rng)
        self.b4_proj = ConvBlock(in_channels, pool_proj, 1, activation="none", rng=rng)
        self.out_channels = c1 + c3 + c5 + pool_proj

    def output_blocks(self):
        """The four convolutions whose outputs feed a following pool."""
        return (self.b1, self.b2, self.b3, self.b4_proj)

    def forward_preact(self, x: Tensor) -> Tensor:
        y1 = self.b1(x)
        y2 = self.b2(self.b2_reduce(x))
        y3 = self.b3(self.b3_reduce(x))
        y4 = self.b4_proj(F.max_pool2d(x, 3, 1, padding=1))
        return F.concat([y1, y2, y3, y4], axis=1)

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(self.forward_preact(x))


class PooledInception(Module):
    """An inception stage followed by pooling, with a mutable order.

    ``act_pool``: ``inception -> ReLU -> pool`` (conventional GoogLeNet).
    ``pool_act``: ``inception -> pool -> ReLU`` (MLCNN reordering; makes
    the four branch output convolutions fusable with the pool).

    For the all-conv transform, ``pool`` may be replaced by a stride-2
    convolution set in ``downsample``.
    """

    def __init__(
        self,
        inception: Inception,
        pool: PoolSpec,
        order: str = "act_pool",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if order not in ORDERS:
            raise ValueError(f"unknown order {order!r}; valid: {ORDERS}")
        self.inception = inception
        self.pool: Optional[PoolSpec] = pool
        self.order = order
        self.downsample: Optional[ConvBlock] = None
        self.out_channels = inception.out_channels

    def forward(self, x: Tensor) -> Tensor:
        y = self.inception.forward_preact(x)
        if self.downsample is not None:  # all-conv mode
            return self.downsample(F.relu(y))
        if self.pool is None:
            return F.relu(y)
        if self.order == "act_pool":
            return self.pool.apply(F.relu(y))
        return F.relu(self.pool.apply(y))


class DenseBlock(Module):
    """DenseNet block: each layer sees the concat of all previous outputs."""

    def __init__(
        self,
        in_channels: int,
        growth_rate: int,
        num_layers: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        from repro.nn.layers import ModuleList

        self.layers = ModuleList()
        ch = in_channels
        for _ in range(num_layers):
            self.layers.append(ConvBlock(ch, growth_rate, 3, padding=1, rng=rng))
            ch += growth_rate
        self.out_channels = ch

    def forward(self, x: Tensor) -> Tensor:
        feats = [x]
        for layer in self.layers:
            out = layer(F.concat(feats, axis=1) if len(feats) > 1 else feats[0])
            feats.append(out)
        return F.concat(feats, axis=1)


class TransitionBlock(Module):
    """DenseNet transition: 1x1 conv + 2x2 average pool.

    In DenseNet the pooling already *precedes* the next nonlinearity
    (the paper cites this as evidence for the reordering); the order
    attribute is exposed the same way as :class:`ConvBlock`.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        order: str = "pool_act",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.block = ConvBlock(
            in_channels,
            out_channels,
            1,
            activation="relu",
            pool=PoolSpec("avg", 2),
            order=order,
            rng=rng,
        )
        self.out_channels = out_channels

    def forward(self, x: Tensor) -> Tensor:
        return self.block(x)


class BasicResBlock(Module):
    """ResNet-18 basic block (3x3 + 3x3 with identity/projection skip)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.conv1 = ConvBlock(in_channels, out_channels, 3, stride=stride, padding=1, rng=rng)
        self.conv2 = ConvBlock(
            out_channels, out_channels, 3, padding=1, activation="none", rng=rng
        )
        if stride != 1 or in_channels != out_channels:
            self.proj: Optional[Conv2d] = Conv2d(in_channels, out_channels, 1, stride=stride, rng=rng)
        else:
            self.proj = None

    def forward(self, x: Tensor) -> Tensor:
        y = self.conv2(self.conv1(x))
        skip = self.proj(x) if self.proj is not None else x
        return F.relu(y + skip)
