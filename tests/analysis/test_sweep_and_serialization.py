"""Sweep series and model checkpointing."""

import numpy as np
import pytest

from repro.analysis.sweep import (
    addition_reduction_vs_kernel,
    gar_rate_vs_filter,
    gar_rate_vs_input,
    lar_rate_vs_filter,
    speedup_vs_pool_size,
)
from repro.models import build_model
from repro.nn import load_checkpoint, save_checkpoint
from repro.nn.tensor import Tensor, no_grad


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


class TestCheckpointing:
    def test_roundtrip(self, tmp_path):
        src = build_model("lenet5", seed=1)
        dst = build_model("lenet5", seed=2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(src, path)
        load_checkpoint(dst, path)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 32, 32)))
        with no_grad():
            np.testing.assert_array_equal(src(x).data, dst(x).data)

    def test_includes_buffers(self, tmp_path):
        from repro.nn import BatchNorm2d, Sequential

        src = Sequential(BatchNorm2d(4))
        src[0].running_mean[:] = 7.0
        path = tmp_path / "bn.npz"
        save_checkpoint(src, path)
        dst = Sequential(BatchNorm2d(4))
        load_checkpoint(dst, path)
        assert (dst[0].running_mean == 7.0).all()

    def test_shape_mismatch_raises(self, tmp_path):
        src = build_model("lenet5", width_mult=1.0)
        dst = build_model("lenet5", width_mult=0.5)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(src, path)
        with pytest.raises((ValueError, KeyError)):
            load_checkpoint(dst, path)

    def test_version_guard(self, tmp_path):
        import numpy as np

        from repro.nn.serialization import FORMAT_KEY

        src = build_model("lenet5")
        path = tmp_path / "future.npz"
        state = src.state_dict()
        np.savez(path, **state, **{FORMAT_KEY: np.array(99)})
        with pytest.raises(ValueError):
            load_checkpoint(build_model("lenet5"), path)


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
