"""Telemetry registry semantics: instruments, labels, the JSONL series."""

import math

import numpy as np
import pytest

from repro.obs.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    TelemetryExporter,
    TelemetryRegistry,
    exponential_buckets,
    get_telemetry,
    read_telemetry_jsonl,
)


@pytest.fixture
def reg():
    return TelemetryRegistry(enabled=True)


# ---------------------------------------------------------------------------
# buckets
# ---------------------------------------------------------------------------

def test_exponential_buckets_shape():
    b = exponential_buckets(0.1, 2.0, 5)
    assert b == (0.1, 0.2, 0.4, 0.8, 1.6)


def test_exponential_buckets_validation():
    with pytest.raises(ValueError):
        exponential_buckets(0.0, 2.0, 5)
    with pytest.raises(ValueError):
        exponential_buckets(0.1, 1.0, 5)
    with pytest.raises(ValueError):
        exponential_buckets(0.1, 2.0, 0)


def test_default_buckets_cover_latency_range():
    assert DEFAULT_LATENCY_BUCKETS_MS[0] <= 0.05
    assert DEFAULT_LATENCY_BUCKETS_MS[-1] > 10_000  # > 10 s


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------

def test_counter_monotone(reg):
    c = reg.counter("c")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.labels().inc(-1)


def test_gauge_set_inc_dec(reg):
    g = reg.gauge("g")
    g.set(10)
    g.inc(5)
    g.dec(2)
    assert g.value == 13


def test_labeled_children_are_distinct_series(reg):
    c = reg.counter("shards")
    c.inc(pool="kernel")
    c.inc(pool="kernel")
    c.inc(pool="plan")
    assert c.labels(pool="kernel").value == 2
    assert c.labels(pool="plan").value == 1
    assert c.value == 3  # family total sums children
    assert len(c.series()) == 2


def test_label_order_does_not_matter(reg):
    g = reg.gauge("g")
    g.set(1, a="x", b="y")
    assert g.labels(b="y", a="x").value == 1
    assert len(g.series()) == 1


def test_family_idempotent_and_type_checked(reg):
    assert reg.counter("m") is reg.counter("m")
    with pytest.raises(ValueError):
        reg.gauge("m")


def test_disabled_registry_drops_everything():
    reg = TelemetryRegistry(enabled=False)
    c = reg.counter("c")
    h = reg.histogram("h")
    c.inc()
    h.observe(1.0)
    assert c.value == 0
    assert not h.series()


def test_enable_disable_context_manager():
    reg = TelemetryRegistry()
    assert not reg.enabled
    with reg:
        assert reg.enabled
        reg.counter("c").inc()
    assert not reg.enabled
    assert reg.counter("c").value == 1


def test_process_wide_singleton_disabled_by_default():
    assert get_telemetry() is get_telemetry()
    assert not get_telemetry().enabled


# ---------------------------------------------------------------------------
# histogram quantiles
# ---------------------------------------------------------------------------

def test_histogram_quantiles_uniform(reg):
    h = reg.histogram("lat", buckets=exponential_buckets(1, 1.5, 24))
    for i in range(1, 1001):
        h.observe(i / 10.0)  # uniform on (0, 100]
    child = h.labels()
    for q, expect in [(0.5, 50.0), (0.95, 95.0), (0.99, 99.0)]:
        got = child.quantile(q)
        assert abs(got - expect) <= child.bucket_resolution(expect)


def test_histogram_quantile_clamped_to_observed_range(reg):
    h = reg.histogram("lat")
    for v in (5.0, 5.1, 5.2):
        h.observe(v)
    child = h.labels()
    assert child.quantile(0.0) >= 5.0
    assert child.quantile(1.0) <= 5.2
    assert child.quantile(0.5) == pytest.approx(5.1, abs=child.bucket_resolution(5.1))


def test_histogram_empty_quantile_is_nan(reg):
    h = reg.histogram("lat")
    assert math.isnan(h.labels().quantile(0.5))
    assert math.isnan(h.quantile(0.5))


def test_histogram_quantile_validation(reg):
    h = reg.histogram("lat")
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.labels().quantile(1.5)


def test_histogram_overflow_bucket(reg):
    h = reg.histogram("lat", buckets=(1.0, 2.0))
    h.observe(100.0)
    child = h.labels()
    assert child.counts[-1] == 1
    assert child.quantile(0.99) == 100.0  # clamped to observed max


def test_histogram_rejects_unsorted_buckets(reg):
    with pytest.raises(ValueError):
        reg.histogram("bad", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        reg.histogram("dup", buckets=(1.0, 1.0))


def test_histogram_cumulative_le_semantics(reg):
    h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.0, 1.5, 3.0, 9.0):
        h.observe(v)
    cum = h.labels().cumulative_buckets()
    # le=1.0 holds 0.5 and the boundary value 1.0
    assert cum == [(1.0, 2), (2.0, 3), (4.0, 4), (math.inf, 5)]


N = 20_000


def _bimodal(rng):
    """70% fast path (~2 ms), 30% slow path (~40 ms): p50 in the fast
    mode, p95/p99 in the slow mode."""
    fast = rng.lognormal(mean=np.log(2.0), sigma=0.15, size=int(N * 0.7))
    slow = rng.lognormal(mean=np.log(40.0), sigma=0.15, size=N - len(fast))
    return rng.permutation(np.concatenate([fast, slow]))


#: adversarial latency shapes -> (seed, sampler, buckets)
SHAPES = {
    "bimodal": (0, _bimodal, exponential_buckets(0.1, 1.3, 40)),
    # sigma=1.2 lognormal: the p99/p50 ratio is ~16x
    "lognormal": (
        1,
        lambda rng: rng.lognormal(mean=np.log(5.0), sigma=1.2, size=N),
        exponential_buckets(0.05, 1.4, 40),
    ),
    # Pareto(alpha=2) at ms scale: the classic tail-latency shape
    "pareto": (
        2,
        lambda rng: 1.0 + rng.pareto(2.0, size=N) * 3.0,
        exponential_buckets(0.5, 1.35, 40),
    ),
    # essentially constant latency with timer jitter
    "near_constant": (
        3,
        lambda rng: 10.0 + rng.normal(0.0, 0.05, size=N),
        exponential_buckets(0.1, 1.3, 40),
    ),
    "gamma": (4, lambda rng: rng.gamma(2.0, 3.0, size=N), exponential_buckets(0.05, 1.3, 45)),
}


@pytest.mark.parametrize("q", (0.5, 0.95, 0.99))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_bucket_quantile_error_bounded_by_resolution(shape, q):
    """Against exact numpy quantiles the bucket estimate is off by at
    most one bucket width — the advertised contract."""
    seed, sampler, buckets = SHAPES[shape]
    samples = sampler(np.random.default_rng(seed))
    reg = TelemetryRegistry(enabled=True)
    h = reg.histogram("lat", buckets=buckets)
    for v in samples:
        h.observe(float(v))
    child = h.labels()
    exact = float(np.quantile(samples, q))
    assert abs(child.quantile(q) - exact) <= child.bucket_resolution(exact)


# ---------------------------------------------------------------------------
# snapshot + JSONL series
# ---------------------------------------------------------------------------

def _populated_registry():
    reg = TelemetryRegistry(enabled=True)
    reg.counter("train.batches_total", "batches").inc(7)
    reg.gauge("train.loss", "loss").set(0.5, model="lenet5")
    h = reg.histogram("train.batch_latency_ms", "latency", buckets=(1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    return reg


def test_snapshot_document_shape():
    snap = _populated_registry().snapshot(ts=123.0)
    assert snap.ts == 123.0
    fam = snap.find("train.batch_latency_ms")
    row = fam["series"][0]
    assert row["count"] == 3
    assert row["min"] == 0.5 and row["max"] == 50.0
    assert row["p50"] is not None and row["p99"] is not None
    assert snap.find("missing") is None


def test_jsonl_round_trip(tmp_path):
    reg = _populated_registry()
    path = str(tmp_path / "t.jsonl")
    with open(path, "w") as fh:
        fh.write(reg.snapshot(ts=1.0).to_jsonl_line() + "\n")
        fh.write(reg.snapshot(ts=2.0).to_jsonl_line() + "\n")
    snaps = read_telemetry_jsonl(path)
    assert [s.ts for s in snaps] == [1.0, 2.0]
    assert snaps[0].find("train.batches_total")["series"][0]["value"] == 7


def test_read_telemetry_jsonl_rejects_corruption(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write('{"ts": 1.0, "metrics": []}\n{oops\n')
    with pytest.raises(ValueError):
        read_telemetry_jsonl(path)


# ---------------------------------------------------------------------------
# exporter
# ---------------------------------------------------------------------------

def test_exporter_writes_jsonl(tmp_path):
    reg = _populated_registry()
    jp = str(tmp_path / "t.jsonl")
    exporter = TelemetryExporter(reg, jsonl_path=jp, period_s=0.02)
    with exporter:
        reg.counter("train.batches_total").inc()
    assert exporter.scrapes >= 1  # stop() always takes a final scrape
    snaps = read_telemetry_jsonl(jp)
    assert len(snaps) == exporter.scrapes
    assert snaps[-1].find("train.batches_total")["series"][0]["value"] == 8
