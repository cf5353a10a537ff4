"""Op-count models: exact reproduction of Tables II-VI and Eqs. 1-7."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import opcount as oc
from repro.models.specs import LayerSpec

# Paper reference data (IPDPS'22 Tables II-VI).
TABLE2 = {11: (483, 373), 9: (323, 251), 7: (195, 153), 5: (99, 79), 3: (35, 29), 2: (15, 13)}
TABLE3 = {1: 373, 2: 384, 3: 395, 4: 406, 5: 417, 6: 428, 11: 483}
TABLE4 = {3: (455, 347), 5: (1188, 693), 13: (5400, 2397), 15: (6293, 2783), 17: (6930, 3105)}
TABLE5 = {1: (5400, 2397), 3: (2025, 1479), 5: (1350, 1233)}
TABLE6 = {28: (5400, 2397), 32: (6750, 2889), 224: (71550, 26505)}


class TestTableII:
    @pytest.mark.parametrize("k,expected", sorted(TABLE2.items()))
    def test_exact_counts(self, k, expected):
        assert oc.lar_additions_without(k) == expected[0]
        assert oc.lar_additions_with(k) == expected[1]

    @pytest.mark.parametrize("k,rate", [(11, 22.8), (9, 22.3), (7, 21.5), (5, 20.2), (3, 17.1), (2, 13.3)])
    def test_reduction_rates(self, k, rate):
        assert round(100 * oc.lar_reduction_rate(k), 1) == rate


class TestTableIII:
    @pytest.mark.parametrize("s,expected", sorted(TABLE3.items()))
    def test_exact_counts(self, s, expected):
        assert oc.lar_additions_with(11, s) == expected

    def test_reduction_zero_at_stride_equal_filter(self):
        assert oc.lar_reduction_rate(11, 11) == 0.0

    def test_monotone_decreasing_in_stride(self):
        rates = [oc.lar_reduction_rate(11, s) for s in range(1, 12)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestTableIV:
    @pytest.mark.parametrize("k,expected", sorted(TABLE4.items()))
    def test_exact_counts(self, k, expected):
        assert oc.gar_additions_without(28, k) == expected[0]
        assert oc.gar_additions_with(28, k) == expected[1]

    def test_apex_near_k15(self):
        """Paper: the reduction rate peaks around a 15x15 filter."""
        rates = {k: oc.gar_reduction_rate(28, k) for k in (3, 5, 13, 15, 17)}
        assert rates[15] == max(rates.values())


class TestTableV:
    @pytest.mark.parametrize("s,expected", sorted(TABLE5.items()))
    def test_exact_counts(self, s, expected):
        assert oc.gar_additions_without(28, 13, s) == expected[0]
        assert oc.gar_additions_with(28, 13, s) == expected[1]

    def test_rate_drops_with_stride(self):
        assert oc.gar_reduction_rate(28, 13, 1) > oc.gar_reduction_rate(28, 13, 3) > oc.gar_reduction_rate(28, 13, 5)


class TestTableVI:
    @pytest.mark.parametrize("d,expected", sorted(TABLE6.items()))
    def test_exact_counts(self, d, expected):
        assert oc.gar_additions_without(d, 13) == expected[0]
        assert oc.gar_additions_with(d, 13) == expected[1]

    def test_rate_grows_with_input_dim(self):
        assert (
            oc.gar_reduction_rate(28, 13)
            < oc.gar_reduction_rate(32, 13)
            < oc.gar_reduction_rate(224, 13)
        )

    def test_limit_is_63_6_percent(self):
        assert round(100 * oc.gar_limit_large_input(13), 1) == 63.6
        # and large finite D approaches it from below
        assert oc.gar_reduction_rate(10_000, 13) == pytest.approx(
            oc.gar_limit_large_input(13), abs=1e-3
        )


class TestEquationLimits:
    def test_lar_limit_25_percent(self):
        assert oc.lar_reduction_rate(100_000) == pytest.approx(0.25, abs=1e-4)

    def test_combined_limit_75_percent(self):
        assert oc.combined_reduction_rate(100_000) == pytest.approx(0.75, abs=1e-4)
        assert oc.combined_reduction_limit() == 0.75

    def test_rme_percentages(self):
        assert oc.rme_multiplication_reduction(2) == 0.75
        assert oc.rme_multiplication_reduction(8) == pytest.approx(0.984, abs=1e-3)
        assert oc.rme_multiplication_reduction(1) == 0.0


class TestValidation:
    def test_lar_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            oc.lar_additions_without(0)
        with pytest.raises(ValueError):
            oc.lar_additions_with(3, 0)

    def test_gar_rejects_filter_larger_than_input(self):
        with pytest.raises(ValueError):
            oc.gar_additions_with(5, 7)

    def test_rme_rejects_bad_pool(self):
        with pytest.raises(ValueError):
            oc.rme_multiplication_reduction(0)


class TestPropertyBased:
    @given(k=st.integers(1, 40), s=st.integers(1, 40))
    def test_lar_with_never_exceeds_without(self, k, s):
        assert oc.lar_additions_with(k, s) <= oc.lar_additions_without(k)

    @given(k=st.integers(1, 30), s=st.integers(1, 10), d=st.integers(1, 300))
    def test_gar_with_never_exceeds_without(self, k, s, d):
        if d < k:
            return
        assert oc.gar_additions_with(d, k, s) <= oc.gar_additions_without(d, k, s)

    @given(k=st.integers(2, 40))
    def test_lar_rate_below_limit(self, k):
        assert 0 <= oc.lar_reduction_rate(k) < 0.25

    @given(p=st.integers(1, 64))
    def test_rme_reduction_in_unit_interval(self, p):
        assert 0.0 <= oc.rme_multiplication_reduction(p) < 1.0


class TestLayerOps:
    def _spec(self, **kw):
        defaults = dict(name="c", in_channels=4, out_channels=8, input_size=16, kernel=3, pool=2)
        defaults.update(kw)
        return LayerSpec(**defaults)

    def test_rme_mult_reduction_75_for_2x2(self):
        spec = self._spec()
        assert oc.layer_multiplication_reduction(spec) == pytest.approx(0.75, abs=0.02)

    def test_rme_mult_reduction_98_for_8x8(self):
        spec = self._spec(input_size=15, kernel=8, pool=8)
        assert oc.layer_multiplication_reduction(spec) > 0.97

    def test_non_fusable_layer_identical(self):
        spec = self._spec(pool=0)
        assert oc.mlcnn_layer_ops(spec) == oc.dcnn_layer_ops(spec)

    def test_fused_reduces_both_op_kinds(self):
        spec = self._spec()
        base = oc.dcnn_layer_ops(spec)
        fused = oc.mlcnn_layer_ops(spec)
        assert fused.multiplications < base.multiplications
        assert fused.additions + fused.preprocessing_additions < base.additions

    def test_reuse_options_monotone(self):
        """RME-only >= +LAR >= ... >= +LAR+GAR in total additions."""
        spec = self._spec(input_size=32, kernel=5)
        totals = {
            (lar, gar): (lambda o: o.additions + o.preprocessing_additions)(
                oc.mlcnn_layer_ops(spec, use_lar=lar, use_gar=gar)
            )
            for lar in (False, True)
            for gar in (False, True)
        }
        assert totals[(True, True)] <= totals[(True, False)] <= totals[(False, False)]
        assert totals[(True, True)] <= totals[(False, True)] <= totals[(False, False)]

    def test_1x1_layer_has_no_reuse_benefit(self):
        """Paper: a 1x1 filter disables addition reuse (DenseNet)."""
        spec = self._spec(kernel=1)
        no_reuse = oc.mlcnn_layer_ops(spec, use_lar=False, use_gar=False)
        full = oc.mlcnn_layer_ops(spec, use_lar=True, use_gar=True)
        assert full.preprocessing_additions == no_reuse.preprocessing_additions

    def test_preprocessing_counts_the_touched_positions(self):
        """LAR/GAR preprocessing builds I_Acc at exactly the positions the
        pooled outputs read, at any pool stride: output ``x`` reads rows
        ``{s*x + i : i < K}``, and half additions run over each touched
        column and the next ``p - 1``.  Brute-force count over H 6-19,
        K in {1, 2, 3, 5}, p in {2, 3, 4} and s in 1..p+2."""
        cases = 0
        for h in range(6, 20):
            for k in (1, 2, 3, 5):
                for p in (2, 3, 4):
                    for s in range(1, p + 3):
                        if h - k + 1 < p:
                            continue
                        spec = LayerSpec("c", 2, 3, h, k, pool=p, pool_stride=s)
                        out = spec.output_size
                        rows = {s * x + i for x in range(out) for i in range(k)}
                        half = {c + j for c in rows for j in range(p)}
                        fused = oc.mlcnn_layer_ops(spec).preprocessing_additions
                        gar = oc.mlcnn_layer_ops(spec, use_lar=False).preprocessing_additions
                        assert fused == 2 * (p - 1) * (len(rows) * len(half) + len(rows) ** 2), spec
                        assert gar == 2 * (p * p - 1) * len(rows) ** 2, spec
                        cases += 1
        assert cases == 823
        # 11 rows x 13 half-addition columns x 2 + 11 x 11 x 2
        overlapping = LayerSpec("x", 1, 1, 13, 3, pool=3, pool_stride=2)
        assert oc.mlcnn_layer_ops(overlapping).preprocessing_additions == 528

    def test_network_ops_sum(self):
        specs = [self._spec(), self._spec(name="c2", pool=0)]
        total = oc.network_ops(specs, fused=True)
        parts = oc.mlcnn_layer_ops(specs[0]) + oc.mlcnn_layer_ops(specs[1])
        assert total == parts

    def test_layer_ops_add(self):
        a = oc.LayerOps(1, 2, 3)
        b = oc.LayerOps(10, 20, 30)
        assert (a + b) == oc.LayerOps(11, 22, 33)
        assert (a + b).total == 66
