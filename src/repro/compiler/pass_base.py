"""The ``Pass`` protocol and the pass registry.

A pass is a named, reorderable graph rewrite with two declared
invariants the pipeline enforces after each run:

* ``preserves_semantics`` — the model computes the same function on the
  probe batch (to ``PROBE_ATOL``); violated ⇒ :class:`PassValidationError`.
* ``preserves_params`` — ``model.num_parameters()`` is unchanged.

Passes register under a stable name (``@register_pass``) so pipelines
can be specified as plain strings (``["set-pooling", "reorder",
"fuse"]``) — the spelling the plan cache and the CLI use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Type

from repro.compiler.context import CompileContext, PassResult
from repro.nn.layers import Module


class Pass(ABC):
    """One composable graph rewrite (mutates the model in place)."""

    #: stable registry name (set by subclasses)
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
        """Apply the rewrite; report how many sites were rewritten."""

    def signature(self) -> str:
        """Stable spec string (name + config) used in plan-cache keys."""
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.signature()}>"


PASS_REGISTRY: Dict[str, Type[Pass]] = {}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    """Class decorator: register ``cls`` under ``cls.name``."""
    if not cls.name or cls.name == "pass":
        raise ValueError(f"{cls.__name__} must set a unique `name`")
    if cls.name in PASS_REGISTRY:
        raise ValueError(f"duplicate pass name {cls.name!r}")
    PASS_REGISTRY[cls.name] = cls
    return cls


def get_pass(name: str, **kwargs) -> Pass:
    """Instantiate a registered pass by name."""
    if name not in PASS_REGISTRY:
        raise KeyError(f"unknown pass {name!r}; available: {available_passes()}")
    return PASS_REGISTRY[name](**kwargs)


def available_passes() -> List[str]:
    return sorted(PASS_REGISTRY)
