"""Plan cache: skip re-validation of already-compiled architectures.

The hot path in :mod:`repro.experiments` sweeps compiles the *same* zoo
architecture through the *same* pipeline many times (fresh weights each
run).  Validation — probe forwards and MAC counting after every pass —
dominates that cost, and its outcome depends only on the architecture,
the pipeline spec, and the context knobs, not on the weight values.
So a successful validated compilation records the key
``(architecture signature, pipeline spec, ctx.cache_key())``; later
compilations with the same key run the passes but skip validation.

:func:`architecture_signature` hashes the module tree (class names,
``extra_repr`` configuration, parameter shapes) — weights do not enter
the hash, two same-architecture models collide on purpose.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from repro.nn.layers import Module

CacheKey = Tuple[str, str, tuple]


def architecture_signature(model: Module) -> str:
    """Stable hex digest of a model's architecture (not its weights)."""
    h = hashlib.sha256()
    for name, mod in model.named_modules():
        h.update(f"{name}:{type(mod).__name__}:{mod.extra_repr()}".encode())
    for name, param in model.named_parameters():
        h.update(f"{name}:{param.data.shape}:{param.data.dtype}".encode())
    return h.hexdigest()


class PlanCache:
    """Set of compilation keys whose validation already succeeded."""

    def __init__(self) -> None:
        self._plans: Dict[CacheKey, int] = {}
        self.hits = 0
        self.misses = 0

    def contains(self, key: CacheKey) -> bool:
        if key in self._plans:
            self.hits += 1
            self._plans[key] += 1
            return True
        self.misses += 1
        return False

    def add(self, key: CacheKey) -> None:
        self._plans.setdefault(key, 0)

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        self._plans.clear()
        self.hits = 0
        self.misses = 0


#: process-wide cache consulted by :meth:`repro.compiler.Pipeline.run`
PLAN_CACHE = PlanCache()


def clear_plan_cache() -> None:
    """Drop all cached plans (tests; or after changing validation knobs)."""
    PLAN_CACHE.clear()
