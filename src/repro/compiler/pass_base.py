"""The ``Pass`` protocol.

A pass is a named, reorderable graph rewrite, built with its own
settings, with two declared invariants the pipeline enforces after each
run:

* ``preserves_semantics`` — the model computes the same function on the
  probe batch (to ``PROBE_ATOL``); violated ⇒ :class:`PassValidationError`.
* ``preserves_params`` — ``model.num_parameters()`` is unchanged.

A pipeline is a list of pass instances, e.g.
``Pipeline([SetPoolingPass(), ReorderActivationPoolingPass(),
FuseConvPoolPass()])``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.compiler.context import CompileContext, PassResult
from repro.nn.layers import Module


class Pass(ABC):
    """One composable graph rewrite (mutates the model in place)."""

    #: stable name, shown in reports and tracer spans (set by subclasses)
    name: str = "pass"
    #: model outputs on the probe batch are unchanged (to fp tolerance)
    preserves_semantics: bool = False
    #: ``num_parameters()`` is unchanged
    preserves_params: bool = True

    def applies_to(self, model: Module) -> bool:
        """Whether running this pass on ``model`` could do anything.

        A pass returning ``False`` is recorded as skipped, not run.
        Strict passes (e.g. ``fuse`` with ``strict=True``) return
        ``True`` unconditionally so their failure stays loud.
        """
        return True

    @abstractmethod
    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        """Apply the rewrite; report how many sites were rewritten.

        A pass reporting 0 rewrites must leave the model as it was: the
        pipeline carries the previous probe forward instead of probing.
        """

    def signature(self) -> str:
        """Stable spec string (name + settings) used in plan-cache keys."""
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.signature()}>"
