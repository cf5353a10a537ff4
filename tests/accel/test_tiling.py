"""Loop tiling and DRAM traffic model."""

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.accel.tiling import TilingPlan, dram_traffic, plan_tiling
from repro.models.specs import MODEL_SPECS, LayerSpec, alexnet_specs, get_specs


@pytest.fixture
def spec():
    return LayerSpec("c", in_channels=16, out_channels=32, input_size=32, kernel=3, padding=1, pool=2)


class TestTilingPlan:
    def test_trips(self, spec):
        plan = TilingPlan(16, 8, 16, 16)
        assert plan.trips(spec) == (2, 2, 2, 2)

    def test_trips_ceil(self, spec):
        plan = TilingPlan(20, 16, 32, 32)
        assert plan.trips(spec) == (2, 1, 1, 1)

    def test_buffer_elements_counts_halo(self, spec):
        plan = TilingPlan(1, 1, 4, 4)
        # input tile includes the K-1 halo: (4+2)^2
        assert plan.buffer_elements(spec) == 36 + 9 + 16


class TestPlanTiling:
    def test_plan_fits_buffer(self, spec):
        for kb in (8, 32, 134):
            plan = plan_tiling(spec, kb * 1024, 4.0)
            assert plan.buffer_elements(spec) * 4.0 <= kb * 1024

    def test_bigger_buffer_never_more_traffic(self, spec):
        t_small = dram_traffic(spec, plan_tiling(spec, 8 * 1024, 4.0), 4.0)
        t_large = dram_traffic(spec, plan_tiling(spec, 134 * 1024, 4.0), 4.0)
        assert t_large <= t_small

    def test_whole_layer_traffic_when_buffer_huge(self, spec):
        """With an unbounded buffer the chosen plan achieves compulsory
        traffic: each input/weight/output byte moves once.  (Tile sizes
        may differ — reloading a 1-channel tile N times costs the same
        as loading N channels once.)"""
        plan = plan_tiling(spec, 100 * 1024 * 1024, 4.0)
        whole = TilingPlan(spec.out_channels, spec.in_channels, 32, 32)
        assert dram_traffic(spec, plan, 4.0) == pytest.approx(dram_traffic(spec, whole, 4.0))

    def test_absurdly_small_buffer_raises(self, spec):
        """4 elements cannot hold a unit tile.  The error names the
        caller's layer, also when a same-shape layer failed before."""
        for name in ("first", "second", "first", "second"):
            with pytest.raises(ValueError, match=rf"unit tile of {name}$"):
                plan_tiling(replace(spec, name=name), 16, 4.0)

    def test_same_shape_shares_one_plan(self, spec):
        """The plan depends on the shape, not on the layer's name."""
        plan = plan_tiling(spec, 32 * 1024, 4.0)
        assert plan_tiling(replace(spec, name="other"), 32 * 1024, 4.0) is plan
        # the pool changes the output bytes, so it is part of the problem
        assert plan_tiling(replace(spec, pool=0, pool_stride=0), 32 * 1024, 4.0) is not plan


# Golden reference for the array search: the tiling model written as
# scalar Python (ceil by float division, one candidate per iteration),
# sharing no code with repro.accel.tiling.


def _reference_trips(spec, plan):
    out = spec.conv_output_size
    return (
        math.ceil(spec.out_channels / plan.tm),
        math.ceil(spec.in_channels / plan.tn),
        math.ceil(out / plan.tr),
        math.ceil(out / plan.tc),
    )


def _reference_buffer_elements(spec, plan):
    k, s = spec.kernel, spec.stride
    in_tile = plan.tn * (plan.tr * s + k - 1) * (plan.tc * s + k - 1)
    return in_tile + plan.tm * plan.tn * k * k + plan.tm * plan.tr * plan.tc


def _reference_traffic(spec, plan, bytes_per_element, input_preprocessed=False, output_preprocessed=False):
    k, s = spec.kernel, spec.stride
    tm_trips, tn_trips, tr_trips, tc_trips = _reference_trips(spec, plan)
    in_tile = plan.tn * (plan.tr * s + k - 1) * (plan.tc * s + k - 1)
    w_tile = plan.tm * plan.tn * k * k
    input_bytes = tm_trips * tn_trips * tr_trips * tc_trips * in_tile * bytes_per_element
    weight_bytes = tm_trips * tn_trips * tr_trips * tc_trips * w_tile * bytes_per_element
    output_bytes = spec.output_size ** 2 * spec.out_channels * bytes_per_element
    if input_preprocessed:
        input_bytes *= 0.5
    if output_preprocessed:
        output_bytes *= 0.5
    return input_bytes + weight_bytes + output_bytes


def _reference_plan(spec, buffer_bytes, bytes_per_element):
    """Brute force: every candidate in (Tm, Tn, Tr) order; the first
    strict minimum of the traffic among those that fit wins."""
    capacity = int(buffer_bytes / bytes_per_element)
    out = spec.conv_output_size
    best = None
    best_traffic = float("inf")

    def _candidates(n):
        vals = {1, 2, 4, 8, 16, 32, 64, n, max(1, n // 2), max(1, n // 4)}
        return sorted(v for v in vals if 1 <= v <= n)

    for tm in _candidates(spec.out_channels):
        for tn in _candidates(spec.in_channels):
            for tr in _candidates(out):
                plan = TilingPlan(tm, tn, tr, tr)
                if _reference_buffer_elements(spec, plan) > capacity:
                    continue
                traffic = _reference_traffic(spec, plan, bytes_per_element)
                if traffic < best_traffic:
                    best_traffic = traffic
                    best = plan
    return best


def _golden_problems():
    """A seeded sample of distinct (shape, buffer, width) problems, plus
    every problem with an 11x11 kernel or an overlapping pool."""
    specs = [s for model in MODEL_SPECS for size in (32, 64) for s in get_specs(model, size)]
    specs += alexnet_specs(224)
    specs.append(LayerSpec("overlap", 16, 32, 27, 3, padding=1, pool=3, pool_stride=2))
    problems = list(dict.fromkeys(
        (replace(s, name=""), kb * 1024, width)
        for s in specs
        for kb in (8, 32, 134, 102400)  # 102,400 kB: nearly every candidate ties
        for width in (4.0, 2.0, 1.0)
    ))
    special = [p for p in problems if p[0].kernel == 11 or p[0].pool_stride != p[0].pool]
    rest = [p for p in problems if p not in special]
    return special + random.Random(0).sample(rest, 216)


class TestPlanTilingGolden:
    def test_matches_brute_force_search(self):
        problems = _golden_problems()
        assert len(problems) == 240
        for spec, buffer_bytes, width in problems:
            want = _reference_plan(spec, buffer_bytes, width)
            got = plan_tiling(spec, buffer_bytes, width)
            assert got == want, (spec, buffer_bytes, width)
            assert all(type(v) is int for v in (got.tm, got.tn, got.tr, got.tc))
            assert got.trips(spec) == _reference_trips(spec, want)
            assert got.buffer_elements(spec) == _reference_buffer_elements(spec, want)
            for flags in itertools.product((False, True), repeat=2):
                assert dram_traffic(spec, got, width, *flags) == _reference_traffic(spec, want, width, *flags)


class TestDramTraffic:
    def test_minimum_is_compulsory_traffic(self, spec):
        """With whole-layer tiles, traffic = input + weights + output."""
        plan = TilingPlan(spec.out_channels, spec.in_channels, 32, 32)
        got = dram_traffic(spec, plan, 4.0)
        inp = spec.in_channels * 34 * 34  # padded halo counted once
        w = spec.out_channels * spec.in_channels * 9
        out = spec.out_channels * spec.output_size ** 2
        assert got == pytest.approx((inp + w + out) * 4.0)

    def test_bytes_per_element_scales(self, spec):
        plan = TilingPlan(8, 8, 8, 8)
        assert dram_traffic(spec, plan, 1.0) == pytest.approx(dram_traffic(spec, plan, 4.0) / 4)

    def test_preprocessed_input_halves_input_bytes(self, spec):
        plan = TilingPlan(8, 8, 8, 8)
        full = dram_traffic(spec, plan, 4.0)
        pre = dram_traffic(spec, plan, 4.0, input_preprocessed=True)
        assert pre < full
        out_bytes = spec.output_size ** 2 * spec.out_channels * 4.0
        # exactly the input share is halved
        tm, tn, tr, tc = plan.trips(spec)
        in_tile = 8 * (8 + 2) * (8 + 2)
        in_bytes = tm * tn * tr * tc * in_tile * 4.0
        assert full - pre == pytest.approx(in_bytes / 2)

    def test_preprocessed_output_halves_output_bytes(self, spec):
        plan = TilingPlan(8, 8, 8, 8)
        full = dram_traffic(spec, plan, 4.0)
        pre = dram_traffic(spec, plan, 4.0, output_preprocessed=True)
        out_bytes = spec.output_size ** 2 * spec.out_channels * 4.0
        assert full - pre == pytest.approx(out_bytes / 2)

    def test_smaller_tm_increases_input_reloads(self, spec):
        t_full = dram_traffic(spec, TilingPlan(32, 16, 32, 32), 4.0)
        t_split = dram_traffic(spec, TilingPlan(16, 16, 32, 32), 4.0)
        assert t_split > t_full
