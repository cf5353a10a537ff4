"""Plan cache: skip re-validation of already-compiled architectures.

Some callers compile the *same* architecture through the *same*
pipeline again with fresh weights: the e2e benchmark's
``compiler.compile_warm_ms`` measurement times exactly that, and step 3
of ``examples/pipeline_compile.py`` shows it.  Validation — probe
forwards and MAC counting after every pass — dominates such a compile,
and its outcome depends only on the architecture, the pipeline spec
and the probe seed, not on the weight values.  So a successful
validated compilation adds the key ``(architecture signature, pipeline
spec, ctx.seed)`` to :data:`PLAN_CACHE`; later compilations with the
same key run the passes but skip validation (``report.cached``).

:func:`architecture_signature` hashes the module tree (class names,
``extra_repr`` configuration, parameter shapes) — weights do not enter
the hash, two same-architecture models collide on purpose.
"""

from __future__ import annotations

import hashlib
from typing import Set, Tuple

from repro.nn.layers import Module

CacheKey = Tuple[str, str, int]


def architecture_signature(model: Module) -> str:
    """Stable hex digest of a model's architecture (not its weights)."""
    h = hashlib.sha256()
    for name, mod in model.named_modules():
        h.update(f"{name}:{type(mod).__name__}:{mod.extra_repr()}".encode())
    for name, param in model.named_parameters():
        h.update(f"{name}:{param.data.shape}:{param.data.dtype}".encode())
    return h.hexdigest()


#: process-wide set of validated compilation keys, consulted by
#: :meth:`repro.compiler.Pipeline.run`
PLAN_CACHE: Set[CacheKey] = set()


def clear_plan_cache() -> None:
    """Forget every validated key, so the next compiles validate again."""
    PLAN_CACHE.clear()
