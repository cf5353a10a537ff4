"""Shared state for a compilation run.

A :class:`CompileContext` carries what a pass may depend on beyond its
own settings: the seed of the probe batch used for the
functional-equivalence spot checks, and a ``state`` dict in which
read-only passes leave their measurements.  Every setting of a rewrite
belongs to the pass that performs it, so two runs of equal pipelines
with equal contexts over equal models produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

#: offset mixed into the context seed for the probe batch
_PROBE_SEED_OFFSET = 0x9E3779B9

#: shape of the standard normal probe batch the validation hooks run
PROBE_SHAPE = (2, 3, 32, 32)

#: absolute tolerance of the functional-equivalence check for passes
#: that declare ``preserves_semantics``
PROBE_ATOL = 1e-8


class PassValidationError(RuntimeError):
    """A pass violated an invariant it declared (semantics or params),
    or broke the forward of a model that ran the probe batch before it."""


@dataclass
class CompileContext:
    """Per-compilation state shared by every pass in a pipeline.

    Parameters
    ----------
    seed:
        Seeds the generated probe batch; part of the plan-cache key.
    state:
        Results that passes record for the caller, e.g. the
        ``reorder-probe`` pass's ``state["reorder_divergence"]``.
    """

    seed: int = 0
    state: Dict[str, Any] = field(default_factory=dict)

    def probe_batch(self) -> np.ndarray:
        """The validation input batch: standard normal of
        :data:`PROBE_SHAPE`, deterministic in ``seed``."""
        cached = self.state.get("_probe_batch")
        if cached is None:
            gen = np.random.default_rng(self.seed + _PROBE_SEED_OFFSET)
            cached = gen.normal(size=PROBE_SHAPE)
            self.state["_probe_batch"] = cached
        return cached


@dataclass
class PassResult:
    """What a single pass reports back to the pipeline."""

    name: str
    rewrites: int = 0
    details: Dict[str, Any] = field(default_factory=dict)
