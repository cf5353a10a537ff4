"""Network-level fusion: rewrite reordered models to the fused kernel.

:func:`fuse_network` walks the module tree and replaces every fusable
:class:`~repro.models.blocks.ConvBlock` with a
:class:`~repro.core.fusion.FusedConvPool` that *shares* its parameters.
The rewrite is semantics-preserving (same outputs up to fp association)
— the property tests in ``tests/core/test_transform.py`` assert it.

Blocks that are not fusable (max pooling, original ReLU+AP order,
strided convs, batch-norm between conv and pool) are left untouched;
run :func:`repro.models.reorder.reorder_activation_pooling` and
``set_pooling(model, "avg")`` first to maximize coverage, as the paper
does.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.fusion import FusedConvPool
from repro.models.blocks import ConvBlock
from repro.nn.layers import Module


def _replace_children(
    module: Module,
    replaced: List[Tuple[str, FusedConvPool]],
    prefix: str,
    overlap: bool = False,
) -> None:
    for name, child in list(module._modules.items()):
        path = f"{prefix}{name}"
        if (
            isinstance(child, ConvBlock)
            and child.pool is not None
            and child.is_fusable(allow_overlap=overlap)
            and child.bn is None
            and child.conv.padding[0] == child.conv.padding[1]
        ):
            fused = FusedConvPool(child)
            module._modules[name] = fused
            object.__setattr__(module, name, fused)
            replaced.append((path, fused))
        else:
            _replace_children(child, replaced, path + ".", overlap)


def fuse_network(
    model: Module, strict: bool = True, overlap: bool = False
) -> Tuple[Module, List[Tuple[str, FusedConvPool]]]:
    """Fuse every eligible conv-pool block in ``model`` (in place).

    Returns ``(model, replaced)`` where ``replaced`` lists the module
    paths that now execute the fused kernel.  With ``strict=True`` (the
    default) raises if nothing was fusable, which usually means the
    model still has the original ReLU+AP order or max pooling; with
    ``strict=False`` an empty ``replaced`` list is returned instead, so
    pipelines compose over models with no fusable stages (e.g.
    DenseNet-style 1x1-output stages) without try/except glue.
    ``overlap=True`` additionally fuses overlapping average pools
    (``stride != kernel``) — those layers run the float64 fused path
    (:func:`repro.core.kernels.fused.fused_forward` at the pool stride).
    """
    replaced: List[Tuple[str, FusedConvPool]] = []
    _replace_children(model, replaced, "", overlap)
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


def prepare_mlcnn(model: Module, quantize_bits: int = 0) -> Module:
    """Apply the full MLCNN preparation pipeline in one call.

    1. switch every pooling layer to average pooling (Section III.B);
    2. reorder activation and pooling (``Conv -> AvgPool -> ReLU``);
    3. fuse every eligible conv-pool block (RME + LAR + GAR);
    4. optionally wrap remaining convolution blocks for k-bit DoReFa
       execution (``quantize_bits``; 0 disables).

    Note the changed-function caveat: for average pooling the reorder
    changes outputs slightly (Jensen), so a *trained* original model
    should be fine-tuned after preparation; a model *trained in the
    reordered form* is unchanged by fusion.

    This is a thin shim over the canonical
    :func:`repro.compiler.mlcnn_pipeline` (validation and plan caching
    disabled, matching the historical behaviour exactly); build the
    pipeline directly to get per-pass validation and a
    :class:`~repro.compiler.CompileReport`.
    """
    from repro.compiler import CompileContext, mlcnn_pipeline

    ctx = CompileContext(quant_bits=quantize_bits, validate=False, use_cache=False)
    model, _report = mlcnn_pipeline(bits=quantize_bits).run(model, ctx)
    return model
