"""Measured counters vs analytic predictions (the audit loop).

The acceptance bar for the measured-counter layer: counters collected
from a *real* instrumented fused-kernel execution and a simulator run
must agree with the closed-form :mod:`repro.core.opcount` predictions
within 1%.  (They actually agree exactly — the tolerance is slack for
future model refinements.)
"""

import numpy as np
import pytest

from repro.accel import get_config
from repro.accel.simulator import simulate_network
from repro.core.fusion import (
    dense_conv_pool_counted,
    fused_conv_pool,
    fused_conv_pool_counted,
)
from repro.core.opcount import dcnn_layer_ops, mlcnn_layer_ops
from repro.models.specs import LayerSpec
from repro.nn.tensor import Tensor, no_grad
from repro.obs import collect_counters

RTOL = 0.01  # the 1% acceptance bar


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
class TestFusedKernelVsAnalytic:
    def test_rme_lar_gar_counters_within_1pct(self, spec):
        """The headline cross-check: mults, RME elimination, LAR/GAR
        preprocessing additions and major accumulations, all measured
        from an instrumented execution, match the analytic layer model."""
        x, w, b = _workload(spec)
        with collect_counters() as oc:
            fused_conv_pool_counted(x, w, b, pool=spec.pool)
        ml = mlcnn_layer_ops(spec)
        dc = dcnn_layer_ops(spec)

        # RME: multiplications performed and eliminated
        assert oc.mults == pytest.approx(ml.multiplications, rel=RTOL)
        assert oc.mults_eliminated == pytest.approx(
            dc.multiplications - ml.multiplications, rel=RTOL
        )
        # LAR+GAR: preprocessing additions actually spent building I_Acc
        assert oc.half_additions + oc.full_additions == pytest.approx(
            ml.preprocessing_additions, rel=RTOL
        )
        # major accumulation + bias additions
        assert oc.major_additions + oc.bias_additions == pytest.approx(
            ml.additions, rel=RTOL
        )
        # grand total of measured additions
        assert oc.additions == pytest.approx(
            ml.additions + ml.preprocessing_additions, rel=RTOL
        )

    def test_reuse_hits_account_for_avoided_additions(self, spec):
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

    def test_dense_execution_eliminates_nothing(self, spec):
        x, w, b = _workload(spec)
        with collect_counters() as oc:
            dense_conv_pool_counted(x, w, b, pool=spec.pool)
        dc = dcnn_layer_ops(spec)
        assert oc.mults_eliminated == 0
        assert oc.mults == pytest.approx(dc.multiplications, rel=RTOL)
        assert oc.additions == pytest.approx(dc.additions, rel=RTOL)


def test_vectorized_kernel_records_rme():
    """The production (vectorized) fused kernel and the reference
    composition report the same RME multiplication counts as the
    analytic model, scaled by batch."""
    spec = LayerSpec("v", in_channels=3, out_channels=4, input_size=12, kernel=3, pool=2)
    batch = 2
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(batch, 3, 12, 12)))
    w = Tensor(rng.normal(size=(4, 3, 3, 3)))
    ml, dc = mlcnn_layer_ops(spec), dcnn_layer_ops(spec)
    for impl in ("vectorized", "reference"):
        with no_grad(), collect_counters() as oc:
            fused_conv_pool(x, w, pool=2, impl=impl)
        assert oc.mults == batch * ml.multiplications, impl
        assert oc.mults_eliminated == batch * (dc.multiplications - ml.multiplications), impl


def test_simulator_memory_counters_match_results():
    """Simulator-side counters: DRAM bytes and buffer accesses recorded
    during a run equal the per-layer attribution it returns."""
    from repro.models import specs as model_specs

    layer_specs = model_specs.get_specs("lenet5")
    with collect_counters() as oc:
        res = simulate_network(layer_specs, get_config("mlcnn-fp32"))
    assert oc.dram_bytes == pytest.approx(sum(l.dram_bytes for l in res.layers), rel=1e-12)
    assert oc.buffer_accesses == pytest.approx(
        sum(l.buffer_accesses for l in res.layers), rel=1e-12
    )


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
