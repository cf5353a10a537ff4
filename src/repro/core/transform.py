"""Network-level fusion: rewrite reordered models to the fused kernel.

:func:`fuse_network` walks the module tree and replaces every
:class:`~repro.models.blocks.ConvBlock` that
:meth:`~repro.models.blocks.ConvBlock.is_fusable` accepts with a
:class:`~repro.core.fusion.FusedConvPool` that *shares* its parameters.
The rewrite is semantics-preserving (same outputs up to fp association)
— the property tests in ``tests/core/test_transform.py`` assert it.

Blocks that are not fusable (max pooling, original ReLU+AP order,
strided convs, non-square kernels or padding) are left untouched;
run :func:`repro.models.reorder.reorder_activation_pooling` and
``set_pooling(model, "avg")`` first to maximize coverage, as the paper
does — or compile with :func:`repro.compiler.mlcnn_pipeline`, which
runs all three.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.fusion import FusedConvPool
from repro.models.blocks import ConvBlock
from repro.nn.layers import Module


def _replace_children(
    module: Module, replaced: List[Tuple[str, FusedConvPool]], prefix: str
) -> None:
    for name, child in list(module._modules.items()):
        path = f"{prefix}{name}"
        if isinstance(child, ConvBlock) and child.is_fusable():
            fused = FusedConvPool(child)
            module._modules[name] = fused
            object.__setattr__(module, name, fused)
            replaced.append((path, fused))
        else:
            _replace_children(child, replaced, path + ".")


def fuse_network(
    model: Module, strict: bool = True
) -> Tuple[Module, List[Tuple[str, FusedConvPool]]]:
    """Fuse every fusable conv-pool block in ``model`` (in place).

    Returns ``(model, replaced)`` where ``replaced`` lists the module
    paths that now execute the fused kernel.  With ``strict=True`` (the
    default) raises if nothing was fusable, which usually means the
    model still has the original ReLU+AP order or max pooling; with
    ``strict=False`` an empty ``replaced`` list is returned instead, so
    pipelines compose over models with no fusable stages (e.g.
    DenseNet-style 1x1-output stages) without try/except glue.
    Overlapping average pools (``stride != kernel``) fuse too; they run
    the float64 fused path at the pool stride.
    """
    replaced: List[Tuple[str, FusedConvPool]] = []
    _replace_children(model, replaced, "")
    if not replaced and strict:
        raise ValueError(
            "no fusable conv-pool blocks found; reorder the model "
            "(reorder_activation_pooling) and use average pooling first "
            "(or pass strict=False to tolerate fully-unfusable models)"
        )
    return model, replaced


def fused_blocks(model: Module) -> List[FusedConvPool]:
    """All fused blocks currently in ``model``."""
    return [m for _, m in model.named_modules() if isinstance(m, FusedConvPool)]
