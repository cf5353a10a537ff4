"""Layer-reordering and all-conv graph transforms (Section III).

The transforms mutate the model in place and return it, so they compose
with the training harness:

* :func:`reorder_activation_pooling` — switch every ``Conv -> ReLU ->
  Pool`` block to ``Conv -> Pool -> ReLU`` (the MLCNN-equivalent
  network; exact for max pooling, retrained for average pooling).
* :func:`to_allconv` — remove pooling layers, folding the spatial
  reduction into convolution strides (the All-Conv baseline [7]).
* :func:`set_pooling` — swap average/max pooling everywhere (Fig. 4).
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.models.blocks import ConvBlock, PooledInception, PoolSpec
from repro.nn.layers import Module

Pooled = Union[ConvBlock, PooledInception]


def conv_pool_blocks(model: Module) -> List[Pooled]:
    """All blocks in ``model`` that own a pooling layer (fusion candidates)."""
    out: List[Pooled] = []
    for _, mod in model.named_modules():
        if isinstance(mod, (ConvBlock, PooledInception)) and mod.pool is not None:
            out.append(mod)
    return out


def reorder_activation_pooling(model: Module) -> Module:
    """Move every pooling layer ahead of its activation (AP+ReLU order)."""
    for block in conv_pool_blocks(model):
        block.order = "pool_act"
    return model


def restore_original_order(model: Module) -> Module:
    """Undo :func:`reorder_activation_pooling` (back to ReLU+AP)."""
    for block in conv_pool_blocks(model):
        block.order = "act_pool"
    return model


def set_pooling(model: Module, kind: str) -> Module:
    """Switch every pooling layer to ``kind`` ('avg' or 'max')."""
    if kind not in ("avg", "max"):
        raise ValueError(f"pooling kind must be 'avg' or 'max', got {kind!r}")
    for block in conv_pool_blocks(model):
        block.pool.kind = kind
    return model


def to_allconv(model: Module, rng=None, seed: Optional[int] = None) -> Module:
    """Replace pooling with strided convolution (All-Conv transform [7]).

    For a :class:`ConvBlock`, the pool of stride ``p`` is dropped and
    the convolution stride is multiplied by ``p`` (no new parameters).
    For a :class:`PooledInception` — whose pool follows a concat, not a
    single conv — a new stride-``p`` 3x3 convolution is appended, as in
    Springenberg et al.'s "replace pooling by a conv with stride".

    Determinism: the new downsample conv weights are drawn from ``rng``
    if given, else from ``np.random.default_rng(seed)`` (``seed``
    defaults to 0).  Two calls with the same ``rng`` state or the same
    ``seed`` therefore produce bit-identical models.
    """
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    for block in conv_pool_blocks(model):
        if isinstance(block, ConvBlock):
            p = block.pool.stride
            sh, sw = block.conv.stride
            block.conv.stride = (sh * p, sw * p)
            block.pool = None
        else:  # PooledInception
            p = block.pool.stride
            ch = block.inception.out_channels
            if p == 1:
                block.pool = None
                continue
            block.downsample = ConvBlock(ch, ch, 3, stride=p, padding=1, rng=rng)
            block.pool = None
    return model
