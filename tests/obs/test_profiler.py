"""Sampling profiler: attribution correctness, export formats, overhead."""

import re
import time

import numpy as np
import pytest

from repro.obs.profiler import SamplingProfiler


def _spin_numpy(seconds: float) -> None:
    a = np.ones((96, 96))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        np.dot(a, a)


def test_collects_samples_and_measures_overhead():
    with SamplingProfiler(interval_s=0.002) as prof:
        _spin_numpy(0.3)
    assert prof.sample_count > 20
    assert prof.elapsed_s >= 0.3
    # the sampler's own duty cycle is measured and small
    assert 0.0 < prof.overhead_fraction < 0.05


def test_top_frame_attributes_the_hot_function():
    with SamplingProfiler(interval_s=0.002) as prof:
        _spin_numpy(0.3)
    # other suites may leave idle helper threads behind whose
    # blocked stacks are sampled too — the hot function
    # must rank among the top leaves, not necessarily first
    tops = [frame for frame, _ in prof.top_functions(5)]
    assert any("_spin_numpy" in t or "numeric" in t for t in tops), tops


def test_collapsed_stack_format():
    with SamplingProfiler(interval_s=0.002) as prof:
        _spin_numpy(0.2)
    text = prof.collapsed()
    lines = text.strip().splitlines()
    assert lines
    for line in lines:
        # "frame;frame;frame count"
        assert re.fullmatch(r"\S.*\s\d+", line), line
    counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
    assert counts == sorted(counts, reverse=True)
    assert sum(counts) == sum(prof.stacks.values())


def test_write_collapsed_and_flamegraph(tmp_path):
    with SamplingProfiler(interval_s=0.002) as prof:
        _spin_numpy(0.2)
    cpath = str(tmp_path / "profile.txt")
    fpath = str(tmp_path / "profile.html")
    prof.write_collapsed(cpath)
    prof.write_flamegraph(fpath)
    assert open(cpath).read() == prof.collapsed()
    html = open(fpath).read()
    assert html.startswith("<!doctype html>")
    assert f"{prof.sample_count} samples" in html


def test_no_samples_is_not_an_error(tmp_path):
    prof = SamplingProfiler()
    assert prof.top_frame() is None
    assert prof.collapsed() == ""
    prof.write_flamegraph(str(tmp_path / "empty.html"))
    assert "no samples" in open(str(tmp_path / "empty.html")).read()


def test_profiler_skips_its_own_thread():
    with SamplingProfiler(interval_s=0.002) as prof:
        _spin_numpy(0.2)
    for stack in prof.stacks:
        assert not any(
            f.startswith("repro.obs.profiler:_") for f in stack
        ), stack


def test_compiled_lenet5_forward_top_frame_is_a_kernel():
    """Acceptance criterion: profiling a lenet5 forward through the
    compiled (fused + lowered) pipeline must attribute the time to
    ``repro.core.kernels`` — the lowered kernels ARE the hot path."""
    from repro.compiler import CompileContext, mlcnn_pipeline
    from repro.models import build_model
    from repro.nn.tensor import Tensor, no_grad

    model = build_model("lenet5", seed=0)
    ctx = CompileContext(quant_bits=0)
    mlcnn_pipeline(bits=0, strict=False).run(model, ctx)
    model.eval()
    x = np.random.default_rng(0).normal(size=(16, 3, 32, 32))
    # warm caches so compilation/allocations don't pollute the profile
    with no_grad():
        model(Tensor(x))
    with SamplingProfiler(interval_s=0.002) as prof:
        deadline = time.perf_counter() + 0.6
        with no_grad():
            while time.perf_counter() < deadline:
                model(Tensor(x))
    assert prof.sample_count > 30
    repo_frames = [
        (frame, count)
        for frame, count in prof.top_functions(10)
        if frame.startswith("repro.")
    ]
    assert repo_frames, f"no repro frames in {prof.top_functions(10)}"
    top_frame, _ = repo_frames[0]
    assert top_frame.startswith("repro.core.kernels"), (
        f"hottest repro frame is {top_frame}, expected a repro.core.kernels "
        f"function; top10={prof.top_functions(10)}"
    )
