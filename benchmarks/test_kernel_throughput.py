"""Wall-clock microbenchmarks of the lowered fused kernels.

Not a paper figure: measures that the *software* fused kernel is itself
faster than unfused Conv -> AvgPool -> ReLU on this machine, and
benchmarks the RTL micro-simulator.

The headline ``kernel.fused_samples_per_sec`` runs the fp32 NHWC
kernel — the one :class:`LowerFusedKernelPass` binds for
``lower_bits=32`` — on an NHWC fp32 workload, the layout the kernel is
specialized for.  Two companion metrics keep the other
implementations on the dashboard trend: ``fused_module_samples_per_sec``
(the default f64 vectorized autograd path, NCHW Tensors) and
``fused_reference_samples_per_sec`` (the ``impl="reference"``
composition: box-sum node, ``F.conv2d`` and epilogue ops).
"""

from time import perf_counter

import numpy as np
import pytest

from repro.core.fusion import fused_conv_pool
from repro.core.kernels import F32NHWCKernel
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad

#: images per run() call in the f64 Tensor-path benches
BATCH = 8
#: images per run() call in the lowered-kernel bench (amortizes the GEMM setup)
KERNEL_BATCH = 16


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(BATCH, 32, 32, 32)))
    w = Tensor(rng.normal(size=(64, 32, 3, 3)))
    b = Tensor(rng.normal(size=64))
    return x, w, b


def _samples_per_sec(run, batch: int = BATCH, repeats: int = 1) -> float:
    """Wall-clock throughput of run(), measured independently of the
    pytest-benchmark timer (which --benchmark-disable turns off).
    ``repeats > 1`` reports the best of that many timed runs — the
    fp32 kernel caches its workspaces, so the steady state is
    the honest number."""
    run()  # warm up
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        run()
        best = min(best, perf_counter() - start)
    return batch / best


def test_bench_unfused_conv_pool(benchmark, workload, record_metric):
    x, w, b = workload

    def run():
        with no_grad():
            return F.relu(F.avg_pool2d(F.conv2d(x, w, b, padding=1), 2)).data

    benchmark(run)
    record_metric("kernel", "unfused_samples_per_sec", _samples_per_sec(run, repeats=3))


def test_bench_lowered_f32_kernel(benchmark, workload, record_metric):
    """Headline: the fp32 NHWC kernel the lowering pass binds."""
    _, w, b = workload
    rng = np.random.default_rng(2)
    xh = np.ascontiguousarray(
        rng.normal(size=(KERNEL_BATCH, 32, 32, 32)).astype(np.float32).transpose(0, 2, 3, 1)
    )
    w32 = w.data.astype(np.float32)
    b32 = b.data.astype(np.float32)
    kern = F32NHWCKernel(pool=2)

    def run():
        return kern(xh, w32, b32, padding=1)

    out = benchmark(run)
    record_metric(
        "kernel",
        "fused_samples_per_sec",
        _samples_per_sec(run, batch=KERNEL_BATCH, repeats=9),
    )
    # correctness vs the f64 reference composition, NHWC -> NCHW
    with no_grad():
        ref = fused_conv_pool(
            Tensor(np.moveaxis(xh.astype(np.float64), -1, 1)),
            Tensor(w.data), Tensor(b.data), pool=2, padding=1, impl="reference",
        ).data
    np.testing.assert_allclose(np.moveaxis(out, -1, 1), ref, atol=1e-3)


def test_bench_fused_module_path(benchmark, workload, record_metric):
    """The default f64 vectorized path lowering leaves on Tensor forwards."""
    x, w, b = workload

    def run():
        with no_grad():
            return fused_conv_pool(x, w, b, pool=2, padding=1).data

    out = benchmark(run)
    record_metric("kernel", "fused_module_samples_per_sec", _samples_per_sec(run, repeats=5))
    with no_grad():
        ref = F.relu(F.avg_pool2d(F.conv2d(x, w, b, padding=1), 2)).data
    np.testing.assert_allclose(out, ref, atol=1e-9)


def test_bench_fused_reference_impl(benchmark, workload, record_metric):
    """The reference composition — the floor the lowered kernels are
    measured against."""
    x, w, b = workload

    def run():
        with no_grad():
            return fused_conv_pool(x, w, b, pool=2, padding=1, impl="reference").data

    benchmark(run)
    record_metric("kernel", "fused_reference_samples_per_sec", _samples_per_sec(run, repeats=5))


def test_bench_rtl_microsim(benchmark, record_metric):
    from repro.accel.rtl import RTLFusedConvPool

    rng = np.random.default_rng(1)
    img = rng.normal(size=(32, 32))
    w = rng.normal(size=(3, 3))
    sim = RTLFusedConvPool(w)
    report = benchmark(sim.run, img)
    assert report.outputs.shape == (15, 15)
    record_metric("kernel", "rtl_images_per_sec", _samples_per_sec(lambda: sim.run(img), batch=1))
