"""Measured counters: reuse accounting, field coverage, determinism.

Every kernel's measured ``mults``, ``mults_eliminated`` and LAR/GAR
additions are checked against the closed-form :mod:`repro.core.opcount`
predictions, exactly, on every case of the shared grid that a
``LayerSpec`` describes, by ``tests/core/test_oracle.py``.  The checks
here cover what the oracle's rows do not record: reuse hits and the
recorder itself.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.fusion import fused_conv_pool_counted
from repro.models.specs import LayerSpec
from repro.obs import OpCounters, collect_counters


def _workload(spec: LayerSpec, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(spec.in_channels, spec.input_size, spec.input_size))
    w = rng.normal(size=(spec.out_channels, spec.in_channels, spec.kernel, spec.kernel))
    b = rng.normal(size=spec.out_channels)
    return x, w, b


CASES = [
    LayerSpec("k3p2", in_channels=3, out_channels=4, input_size=12, kernel=3, pool=2),
    LayerSpec("k5p2", in_channels=2, out_channels=3, input_size=15, kernel=5, pool=2),
    LayerSpec("k2p3", in_channels=1, out_channels=2, input_size=14, kernel=2, pool=3),
]


@pytest.mark.parametrize("spec", CASES, ids=lambda s: s.name)
def test_reuse_hits_account_for_avoided_additions(spec):
    """additions + reuse hits is invariant: a full-reuse run spends
    what a no-reuse run spends minus exactly its recorded hits."""
    x, w, b = _workload(spec)
    with collect_counters() as with_reuse:
        fused_conv_pool_counted(x, w, b, pool=spec.pool)
    with collect_counters() as no_reuse:
        fused_conv_pool_counted(
            x, w, b, pool=spec.pool,
            use_lar=False, use_gar_row=False, use_gar_col=False,
        )
    small_with = (
        with_reuse.half_additions + with_reuse.full_additions + with_reuse.reuse_hits
    )
    small_without = no_reuse.half_additions + no_reuse.full_additions
    assert small_with == small_without
    assert with_reuse.lar_reuse_hits + with_reuse.gar_reuse_hits == with_reuse.reuse_hits
    assert with_reuse.gar_reuse_hits > 0


def test_every_counter_field_is_recorded():
    """Each field has a recorder on a path users run: one collection over
    a fused layer whose kernel exceeds its pool (so LAR and GAR both hit)
    leaves no field at zero."""
    spec = CASES[0]
    assert spec.kernel > spec.pool
    x, w, b = _workload(spec)
    with collect_counters() as oc:
        fused_conv_pool_counted(x, w, b, pool=spec.pool)
    never_recorded = [f.name for f in fields(OpCounters) if getattr(oc, f.name) == 0]
    assert not never_recorded, never_recorded


def test_counters_identical_across_collections():
    """Same workload, two separate collections: identical measurements
    (the counters are deterministic, so they can gate regressions)."""
    spec = CASES[0]
    x, w, b = _workload(spec)
    snapshots = []
    for _ in range(2):
        with collect_counters() as oc:
            fused_conv_pool_counted(x, w, b, pool=spec.pool)
        snapshots.append(oc.as_dict())
    assert snapshots[0] == snapshots[1]
