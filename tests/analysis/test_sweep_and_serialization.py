"""Sweep series."""

import numpy as np

from repro.analysis.sweep import (
    addition_reduction_vs_kernel,
    gar_rate_vs_filter,
    gar_rate_vs_input,
    lar_rate_vs_filter,
    speedup_vs_pool_size,
)


class TestSweeps:
    def test_lar_rate_monotone_and_bounded(self):
        ks, rates = lar_rate_vs_filter(range(2, 41))
        assert (np.diff(rates) >= -1e-12).all()
        assert rates[-1] < 0.25

    def test_gar_rate_vs_filter_has_apex(self):
        ks, rates = gar_rate_vs_filter(d=28)
        apex = ks[np.argmax(rates)]
        assert 11 <= apex <= 19  # paper: apex near 15x15

    def test_gar_rate_vs_input_approaches_limit(self):
        from repro.core.opcount import gar_limit_large_input

        ds, rates = gar_rate_vs_input(k=13)
        assert rates[-1] < gar_limit_large_input(13)
        assert rates[-1] > 0.95 * gar_limit_large_input(13)

    def test_speedup_grows_with_pool_size(self):
        ps, speedups = speedup_vs_pool_size((2, 4, 8))
        assert (np.diff(speedups) > 0).all()
        assert speedups[0] > 1.5

    def test_addition_reduction_zero_at_1x1(self):
        ks, red = addition_reduction_vs_kernel((1, 3, 5))
        # 1x1: only the 4x MAC-accumulation saving, no extra reuse;
        # larger kernels amortize preprocessing better
        assert red[0] <= red[-1] + 0.05
        assert (red > 0).all()


class TestOperatingPointSweeps:
    def test_speedup_rises_with_bandwidth(self):
        from repro.analysis.sweep import speedup_vs_bandwidth

        bws, sp = speedup_vs_bandwidth((1, 4, 16, 64))
        assert (np.diff(sp) >= -1e-9).all()
        # starved: both memory-bound and nearly equal; ample: RME shows
        assert sp[0] < 1.2
        assert sp[-1] > 1.3

    def test_speedup_rises_with_batch(self):
        from repro.analysis.sweep import speedup_vs_batch

        bs, sp = speedup_vs_batch((1, 4, 16))
        assert (np.diff(sp) >= -1e-9).all()
