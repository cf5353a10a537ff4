"""Shared state for a compilation run.

A :class:`CompileContext` carries everything a pass may legitimately
depend on — the seeded RNG, target bit widths, pruning budget, the
probe batch used for functional-equivalence spot checks — so passes
themselves stay stateless and reorderable.  Two runs with equal
contexts over equal models produce bit-identical results (the
determinism guarantee the tests in ``tests/compiler`` assert).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: offset mixed into the context seed for the probe batch, so that a
#: pass consuming ``ctx.rng`` never perturbs the validation data.
_PROBE_SEED_OFFSET = 0x9E3779B9

#: shape of the standard normal probe batch the validation hooks run
PROBE_SHAPE = (2, 3, 32, 32)

#: absolute tolerance of the functional-equivalence check for passes
#: that declare ``preserves_semantics``
PROBE_ATOL = 1e-8


class PassValidationError(RuntimeError):
    """A pass violated an invariant it declared (semantics or params)."""


@dataclass
class CompileContext:
    """Mutable per-compilation state shared by every pass in a pipeline.

    Parameters
    ----------
    seed:
        Seeds both ``rng`` (used by passes that create parameters, e.g.
        the all-conv downsample convs) and the generated probe batch.
    quant_bits / sparsity / pooling:
        Defaults for passes constructed without an explicit setting.
    validate:
        Master switch for the per-pass validation hooks (functional
        spot-check on the probe batch, parameter invariance, MAC deltas).
    """

    seed: int = 0
    quant_bits: int = 0
    sparsity: float = 0.0
    pooling: str = "avg"
    validate: bool = True
    use_cache: bool = True
    rng: Optional[np.random.Generator] = None
    state: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)

    def probe_batch(self) -> np.ndarray:
        """The validation input batch: standard normal of
        :data:`PROBE_SHAPE`, deterministic in ``seed``."""
        cached = self.state.get("_probe_batch")
        if cached is None:
            gen = np.random.default_rng(self.seed + _PROBE_SEED_OFFSET)
            cached = gen.normal(size=PROBE_SHAPE)
            self.state["_probe_batch"] = cached
        return cached

    def cache_key(self) -> Tuple[int, int, float, str]:
        """The context fields a cached plan is allowed to depend on."""
        return (self.seed, self.quant_bits, self.sparsity, self.pooling)


@dataclass
class PassResult:
    """What a single pass reports back to the pipeline."""

    name: str
    rewrites: int = 0
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        return self.rewrites > 0
