"""Built-in passes: the graph mutators of the MLCNN sequence as passes.

Each pass wraps one in-place mutator from :mod:`repro.models.reorder`,
:mod:`repro.core.transform`, :mod:`repro.core.quantize` or
:mod:`repro.core.prune`, takes its settings in its constructor, adds an
``applies_to`` pre-check and an honest rewrite count, and declares
which invariants the pipeline should enforce afterwards:

=================  ====================  =================
pass               preserves semantics   preserves params
=================  ====================  =================
``set-pooling``    no (avg ≠ max)        yes
``reorder``        no (Jensen, for avg)  yes
``fuse``           **yes** (exact)       yes (shared)
``quantize``       no (k-bit rounding)   yes (shared)
``prune``          no (zeroed weights)   yes (count only)
``reorder-probe``  **yes** (read-only)   yes
=================  ====================  =================

``reorder-probe`` is the validation counterpart of ``reorder``: it
mutates nothing, but *measures* the per-layer and end-to-end divergence
between the two activation orders on the context's probe batch
(:func:`repro.obs.numerics.reorder_divergence`) and stores the result
in ``ctx.state["reorder_divergence"]`` — the quantified version of the
paper's "negligible accuracy impact" claim, recorded at compile time.
"""

from __future__ import annotations

from repro.compiler.context import CompileContext, PassResult
from repro.compiler.pass_base import Pass
from repro.models.blocks import ConvBlock
from repro.models.reorder import (
    conv_pool_blocks,
    reorder_activation_pooling,
    set_pooling,
)
from repro.nn.layers import Module


class SetPoolingPass(Pass):
    """Switch every pooling layer to average pooling (Section III.B)."""

    name = "set-pooling"
    preserves_semantics = False  # avg and max pooling differ
    preserves_params = True

    def applies_to(self, model: Module) -> bool:
        return bool(conv_pool_blocks(model))

    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        rewrites = sum(1 for b in conv_pool_blocks(model) if b.pool.kind != "avg")
        set_pooling(model, "avg")
        return PassResult(self.name, rewrites)

    def signature(self) -> str:
        return f"{self.name}(avg)"


class ReorderActivationPoolingPass(Pass):
    """Conv -> ReLU -> Pool  ⇒  Conv -> Pool -> ReLU (Section III)."""

    name = "reorder"
    preserves_semantics = False  # exact for max pooling, not for avg
    preserves_params = True

    def applies_to(self, model: Module) -> bool:
        return any(b.order != "pool_act" for b in conv_pool_blocks(model))

    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        rewrites = sum(1 for b in conv_pool_blocks(model) if b.order != "pool_act")
        reorder_activation_pooling(model)
        return PassResult(self.name, rewrites)


class FuseConvPoolPass(Pass):
    """Replace fusable blocks with the RME/LAR/GAR fused kernel.

    The only rewriting pass that preserves semantics (outputs equal up
    to fp association); parameters are shared, not copied.
    ``strict=True`` fails loudly when nothing is fusable;
    ``strict=False`` lets pipelines compose over unfusable models.
    """

    name = "fuse"
    preserves_semantics = True
    preserves_params = True

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict

    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        from repro.core.transform import fuse_network

        _, replaced = fuse_network(model, strict=self.strict)
        return PassResult(self.name, len(replaced), {"paths": [p for p, _ in replaced]})

    def signature(self) -> str:
        return f"{self.name}(strict={self.strict})"


class QuantizePass(Pass):
    """Wrap conv blocks for ``bits``-bit DoReFa execution (Eqs. 8-9)."""

    name = "quantize"
    preserves_semantics = False  # k-bit rounding changes outputs
    preserves_params = True  # wrapped blocks share parameters

    def __init__(self, bits: int) -> None:
        self.bits = bits

    def applies_to(self, model: Module) -> bool:
        from repro.core.quantize import QuantizedConvBlock

        mods = [m for _, m in model.named_modules()]
        if any(isinstance(m, QuantizedConvBlock) for m in mods):
            return False  # already quantized; re-wrapping would double-quantize
        return any(isinstance(m, ConvBlock) for m in mods)

    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        from repro.core.quantize import QuantConfig, QuantizedConvBlock, quantize_model

        quantize_model(model, QuantConfig(self.bits, self.bits))
        wrapped = sum(
            1 for _, m in model.named_modules() if isinstance(m, QuantizedConvBlock)
        )
        return PassResult(self.name, wrapped, {"bits": self.bits})

    def signature(self) -> str:
        return f"{self.name}({self.bits})"


class PrunePass(Pass):
    """Global magnitude pruning of conv weights (Section VIII)."""

    name = "prune"
    preserves_semantics = False
    preserves_params = True  # weights are zeroed, not removed

    def __init__(self, sparsity: float) -> None:
        self.sparsity = sparsity

    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        from repro.core.prune import magnitude_prune

        report = magnitude_prune(model, self.sparsity)
        return PassResult(
            self.name, report.pruned_weights, {"sparsity": report.sparsity}
        )

    def signature(self) -> str:
        return f"{self.name}({self.sparsity})"


class ReorderDivergenceProbePass(Pass):
    """Measure act/pool reorder divergence on the probe batch (read-only).

    Runs the model in both activation orders on ``ctx.probe_batch()``
    and records per-layer max-abs deviation, end-to-end max-abs
    deviation and the top-1 flip rate into
    ``ctx.state["reorder_divergence"]``, any enabled numerics
    collectors, and a tracer event.  The model is left exactly as it
    was (orders and train/eval mode restored), so the pass is
    semantics- and parameter-preserving by construction.
    """

    name = "reorder-probe"
    preserves_semantics = True
    preserves_params = True

    def applies_to(self, model: Module) -> bool:
        return bool(conv_pool_blocks(model))

    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        from repro.obs.numerics import active_collectors, reorder_divergence
        from repro.obs.tracer import event

        result = reorder_divergence(model, ctx.probe_batch())
        ctx.state["reorder_divergence"] = result
        for collector in active_collectors():
            collector.divergence = result
        event(
            "compile.reorder_divergence",
            category="compiler",
            end_to_end_max_abs=result["end_to_end_max_abs"],
            top1_flip_rate=result["top1_flip_rate"],
            layers=result["layers"],
        )
        return PassResult(
            self.name,
            0,
            {
                "end_to_end_max_abs": result["end_to_end_max_abs"],
                "top1_flip_rate": result["top1_flip_rate"],
                "layers": result["layers"],
            },
        )
