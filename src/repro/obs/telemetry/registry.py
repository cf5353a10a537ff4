"""Push-based labeled metric registry: the record of scalar series.

Spans (:mod:`repro.obs.tracer`) record where time goes; every scalar
series a run produces — batch latency, throughput, loss, top-1 — is
recorded here:

* **Instruments** — :class:`Counter` (monotone), :class:`Gauge`
  (last-write-wins) and :class:`Histogram` (exponential latency
  buckets with streaming p50/p95/p99 derived from the bucket counts).
  Each is a *family*: children are keyed by their label set
  (``hist.labels(model="lenet5").observe(ms)``).
* **The registry** — :class:`TelemetryRegistry`, process-wide via
  :func:`get_telemetry` and **disabled by default**: every instrument
  checks ``registry.enabled`` before doing any work, so permanently
  instrumented hot paths (the ``Trainer`` batch loop) cost one
  attribute check when telemetry is off — the same contract as the
  tracer, guarded by ``tests/obs/test_overhead.py``.
* **The scraper** — :meth:`TelemetryRegistry.snapshot` freezes the
  world into a :class:`TelemetrySnapshot`; :class:`TelemetryExporter`
  scrapes periodically from a background thread, appending each
  snapshot to a JSONL time series.

Nothing here retains samples: histograms are fixed-size bucket arrays
and quantiles are interpolated from them.
"""

from __future__ import annotations

import json
import math
import threading
import time
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "exponential_buckets",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetryRegistry",
    "TelemetrySnapshot",
    "TelemetryExporter",
    "get_telemetry",
    "read_telemetry_jsonl",
]

#: label sets are canonicalized to sorted (key, value) tuples
LabelKey = Tuple[Tuple[str, str], ...]


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``.

    The standard latency-bucket shape: constant *relative* resolution
    (each bucket is ``factor``-times wider than the last), so p99 of a
    100 µs path and p99 of a 10 s path carry the same fractional error.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds, b = [], float(start)
    for _ in range(count):
        bounds.append(b)
        b *= factor
    return tuple(bounds)


#: default latency buckets: 0.05 ms .. ~14 s at ~±20% resolution
DEFAULT_LATENCY_BUCKETS_MS = exponential_buckets(0.05, 1.5, 32)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared child bookkeeping: a family hands out one child per label set."""

    kind = "untyped"

    def __init__(self, registry: "TelemetryRegistry", name: str, help: str) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self._children: "Dict[LabelKey, Any]" = {}

    def labels(self, **labels: Any):
        """The child instrument for this label set (created on first use)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._registry._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _default(self):
        """The label-less child — the common single-series case."""
        return self.labels()

    def series(self) -> List[Tuple[LabelKey, Any]]:
        with self._registry._lock:
            return list(self._children.items())


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Counter(_Instrument):
    """Monotonically increasing count (requests served, batches run)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        (self.labels(**labels) if labels else self._default()).inc(amount)

    @property
    def value(self) -> float:
        """Sum over every labeled child."""
        return sum(child.value for _, child in self.series())


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Instrument):
    """Last-write-wins level (queue depth, throughput, loss)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        (self.labels(**labels) if labels else self._default()).set(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        (self.labels(**labels) if labels else self._default()).inc(amount)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        (self.labels(**labels) if labels else self._default()).dec(amount)

    @property
    def value(self) -> float:
        """The label-less child's value (0.0 before any set)."""
        series = self.series()
        for key, child in series:
            if key == ():
                return child.value
        return series[0][1].value if series else 0.0


class _HistogramChild:
    """One label set's bucket array + moment accumulators.

    ``bounds`` are inclusive upper edges (``le`` semantics); ``counts``
    has one extra slot for the +Inf overflow bucket.  The observed
    min/max tighten quantile interpolation at the edges.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "minimum", "maximum")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile interpolated from the bucket counts.

        Linear interpolation inside the bucket that holds the target
        rank, with the observed min/max replacing the open edges (first
        bucket and +Inf overflow).  Exact to within one bucket width —
        :meth:`bucket_resolution` of the returned value.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            if c and cum + c >= target:
                lower = self.bounds[i - 1] if i > 0 else self.minimum
                upper = self.bounds[i] if i < len(self.bounds) else self.maximum
                lower = max(lower, self.minimum)
                upper = min(upper, self.maximum)
                if upper <= lower:
                    return lower
                return lower + (upper - lower) * max(0.0, target - cum) / c
            cum += c
        return self.maximum

    def bucket_resolution(self, value: float) -> float:
        """Width of the bucket that ``value`` falls in — the quantile
        error bound at that point of the distribution."""
        i = bisect_left(self.bounds, value)
        lower = self.bounds[i - 1] if i > 0 else 0.0
        upper = self.bounds[i] if i < len(self.bounds) else max(self.maximum, value)
        return max(upper - lower, 0.0)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, +Inf last."""
        out, cum = [], 0
        for bound, c in zip(self.bounds, self.counts):
            cum += c
            out.append((bound, cum))
        out.append((math.inf, cum + self.counts[-1]))
        return out


class Histogram(_Instrument):
    """Latency distribution in exponential buckets, scraped as quantiles."""

    kind = "histogram"

    def __init__(
        self,
        registry: "TelemetryRegistry",
        name: str,
        help: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(registry, name, help)
        bounds = tuple(float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS_MS))
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        (self.labels(**labels) if labels else self._default()).observe(value)

    def quantile(self, q: float, **labels: Any) -> float:
        """Quantile of one child (the label-less one by default)."""
        key = _label_key(labels)
        for child_key, child in self.series():
            if child_key == key:
                return child.quantile(q)
        return math.nan


#: quantiles every histogram snapshot reports
_SNAPSHOT_QUANTILES = (0.5, 0.95, 0.99)


class TelemetrySnapshot:
    """A frozen point-in-time view of one registry.

    ``doc`` is the JSON-ready document (one JSONL line per scrape).
    """

    def __init__(self, doc: Dict[str, Any]) -> None:
        self.doc = doc

    @property
    def ts(self) -> float:
        return float(self.doc["ts"])

    @property
    def metrics(self) -> List[Dict[str, Any]]:
        return list(self.doc["metrics"])

    def find(self, name: str) -> Optional[Dict[str, Any]]:
        """The metric family document named ``name``, or None."""
        for fam in self.doc["metrics"]:
            if fam["name"] == name:
                return fam
        return None

    def as_dict(self) -> Dict[str, Any]:
        return self.doc

    def to_jsonl_line(self) -> str:
        return json.dumps(self.doc)


class TelemetryRegistry:
    """Process-wide labeled metric registry (disabled by default).

    Families are created idempotently — asking twice for the same name
    returns the same object, asking with a conflicting type raises —
    so hot paths can look instruments up lazily without coordination.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: "Dict[str, _Instrument]" = {}

    # -- lifecycle -----------------------------------------------------------
    def enable(self) -> "TelemetryRegistry":
        self.enabled = True
        return self

    def disable(self) -> "TelemetryRegistry":
        self.enabled = False
        return self

    def __enter__(self) -> "TelemetryRegistry":
        return self.enable()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.disable()
        return False

    def clear(self) -> None:
        """Drop every family (tests / a fresh run)."""
        with self._lock:
            self._families = {}

    # -- family constructors -------------------------------------------------
    def _family(self, cls, name: str, help: str, **kwargs) -> Any:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = cls(self, name, help, **kwargs)
                self._families[name] = fam
                return fam
        if not isinstance(fam, cls):
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, not {cls.kind}"
            )
        return fam

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._family(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[_Instrument]:
        with self._lock:
            return list(self._families.values())

    # -- scraping ------------------------------------------------------------
    def snapshot(self, ts: Optional[float] = None) -> TelemetrySnapshot:
        """Freeze every family into a :class:`TelemetrySnapshot`."""
        doc: Dict[str, Any] = {
            "ts": time.time() if ts is None else float(ts),
            "metrics": [],
        }
        for fam in self.families():
            series: List[Dict[str, Any]] = []
            for key, child in fam.series():
                labels = dict(key)
                if fam.kind == "histogram":
                    row: Dict[str, Any] = {
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "min": child.minimum if child.count else None,
                        "max": child.maximum if child.count else None,
                        "buckets": [
                            [b, c] for b, c in child.cumulative_buckets()
                        ],
                    }
                    for q in _SNAPSHOT_QUANTILES:
                        v = child.quantile(q)
                        row[f"p{q * 100:g}"] = None if math.isnan(v) else v
                    series.append(row)
                else:
                    series.append({"labels": labels, "value": child.value})
            doc["metrics"].append(
                {"name": fam.name, "type": fam.kind, "help": fam.help, "series": series}
            )
        return TelemetrySnapshot(doc)


#: the process-wide registry every subsystem reports to; off by default
_TELEMETRY = TelemetryRegistry(enabled=False)


def get_telemetry() -> TelemetryRegistry:
    """The process-wide telemetry registry (disabled unless enabled)."""
    return _TELEMETRY


class TelemetryExporter:
    """Periodic scraper: a JSONL time series of registry snapshots.

    A daemon thread snapshots the registry every ``period_s`` seconds,
    appending each snapshot as one line to ``jsonl_path`` (the time
    series the dashboard renders).  ``stop()`` performs one final
    scrape so short runs always export at least one snapshot.
    """

    def __init__(
        self,
        registry: Optional[TelemetryRegistry] = None,
        jsonl_path: Optional[str] = None,
        period_s: float = 1.0,
    ) -> None:
        self.registry = registry if registry is not None else get_telemetry()
        self.jsonl_path = jsonl_path
        self.period_s = max(0.01, float(period_s))
        self.scrapes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._io_lock = threading.Lock()

    # -- scraping ------------------------------------------------------------
    def scrape(self, now: Optional[float] = None) -> TelemetrySnapshot:
        """One scrape: snapshot the registry and append it to the series."""
        snap = self.registry.snapshot(ts=now)
        if self.jsonl_path:
            with self._io_lock, open(self.jsonl_path, "a") as fh:
                fh.write(snap.to_jsonl_line() + "\n")
        self.scrapes += 1
        return snap

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self.scrape()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "TelemetryExporter":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="telemetry-exporter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> TelemetrySnapshot:
        """Stop the thread and take one final scrape."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        return self.scrape()

    def __enter__(self) -> "TelemetryExporter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


# ---------------------------------------------------------------------------
# Reader (dashboard / CI smoke)
# ---------------------------------------------------------------------------

def read_telemetry_jsonl(path: str) -> List[TelemetrySnapshot]:
    """Parse an exporter's JSONL time series back into snapshots.

    Malformed lines raise — a truncated telemetry file must not render
    as a clean-looking dashboard.
    """
    out: List[TelemetrySnapshot] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if "ts" not in doc or "metrics" not in doc:
                raise ValueError(f"{path}:{lineno}: not a telemetry snapshot")
            out.append(TelemetrySnapshot(doc))
    return out
