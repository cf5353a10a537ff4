"""Observability runtime cost benchmarks.

Three headline numbers for the regression gate (area ``core``):

* ``telemetry.overhead_pct`` — **required**: tracer-on vs tracer-off
  wall-time delta of a full :class:`~repro.train.Trainer` fit, whose
  ``train.fit``/``train.epoch``/``train.batch``/``train.evaluate``
  spans are the whole training record.  The contract is "trace the
  batch loop permanently, pay low single digits at most"; gated ≤
  baseline + 2.5 points.
* ``telemetry.p99_batch_ms[model=lenet5]`` — advisory, host-sensitive:
  the p99 batch wall time of the traced fit, computed exactly from its
  batch spans by :func:`~repro.obs.attrib.epoch_batch_ms` (absolute
  host speed; trend line only).
* ``telemetry.profiler_overhead_pct`` — advisory, host-sensitive: the
  sampling profiler's measured duty cycle over a compiled lenet5
  forward loop at the default 5 ms interval.

Both relative measurements use best-of-N so one scheduler hiccup does
not fail CI.
"""

import time

import numpy as np

from repro.data import SyntheticImageConfig, make_synth_cifar, train_val_split
from repro.models import build_model
from repro.obs.attrib import epoch_batch_ms
from repro.obs.profiler import SamplingProfiler
from repro.obs.tracer import get_tracer
from repro.train import TrainConfig, Trainer

REPEATS = 5


def _fit_once(seed: int = 0) -> None:
    cfg = SyntheticImageConfig(
        num_classes=10, samples_per_class=16, image_size=32, seed=seed
    )
    train_set, val_set = train_val_split(make_synth_cifar(cfg), 0.25, seed=seed)
    model = build_model("lenet5", seed=seed)
    Trainer(
        model, train_set, val_set, TrainConfig(epochs=2, batch_size=16, seed=seed)
    ).fit()


def test_telemetry_enabled_fit_overhead(record_metric):
    """telemetry.overhead_pct (required) + telemetry.p99_batch_ms (advisory)."""
    tracer = get_tracer()
    assert not tracer.enabled
    _fit_once()  # warm caches
    # interleave off/on measurements so slow host drift (thermal, noisy
    # CI neighbours) hits both sides equally; compare best-of-N
    base = watched = float("inf")
    try:
        for _ in range(REPEATS):
            tracer.disable()
            t0 = time.perf_counter()
            _fit_once()
            base = min(base, time.perf_counter() - t0)
            tracer.clear()
            tracer.enable()
            t0 = time.perf_counter()
            _fit_once()
            watched = min(watched, time.perf_counter() - t0)
        # the last traced fit's batches
        batch_ms = [ms for _, times in epoch_batch_ms(tracer) for ms in times]
    finally:
        tracer.disable()
        tracer.clear()
    overhead_pct = max(0.0, 100.0 * (watched / base - 1.0))
    assert batch_ms, "traced fit recorded no batches"
    p99 = float(np.percentile(batch_ms, 99))
    assert p99 > 0
    print(
        f"\ntraced fit: {watched * 1e3:.1f} ms vs {base * 1e3:.1f} ms untraced "
        f"({overhead_pct:.2f}% overhead), p99 of {len(batch_ms)} batches {p99:.2f} ms"
    )
    assert overhead_pct <= 5.0, (
        f"tracing overhead {overhead_pct:.2f}% breaks the low-single-digits "
        "contract"
    )
    record_metric("telemetry", "overhead_pct", overhead_pct)
    record_metric("telemetry", "p99_batch_ms", p99, model="lenet5")


def test_profiler_overhead(record_metric):
    """telemetry.profiler_overhead_pct (advisory): measured duty cycle
    while profiling a compiled lenet5 forward loop."""
    from repro.compiler import mlcnn_pipeline
    from repro.nn.tensor import Tensor, no_grad

    model = build_model("lenet5", seed=0)
    mlcnn_pipeline(strict=False).run(model)
    model.eval()
    x = np.random.default_rng(0).normal(size=(16, 3, 32, 32))
    with no_grad():
        model(Tensor(x))  # warm
    with SamplingProfiler(interval_s=0.005) as prof:
        deadline = time.perf_counter() + 1.0
        with no_grad():
            while time.perf_counter() < deadline:
                model(Tensor(x))
    assert prof.sample_count > 50
    overhead_pct = 100.0 * prof.overhead_fraction
    top = prof.top_frame()
    print(
        f"\nprofiler: {prof.sample_count} samples, {overhead_pct:.3f}% duty "
        f"cycle, top frame {top}"
    )
    assert overhead_pct < 5.0, f"profiler duty cycle {overhead_pct:.2f}%"
    record_metric("telemetry", "profiler_overhead_pct", overhead_pct)
