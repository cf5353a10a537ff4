"""Telemetry: the registry of scalar series and the sampling profiler.

See :mod:`repro.obs.telemetry.registry` (labeled metrics + scraper)
and :mod:`repro.obs.telemetry.profiler` (sampling profiler).
"""

from repro.obs.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    TelemetryExporter,
    TelemetryRegistry,
    TelemetrySnapshot,
    exponential_buckets,
    get_telemetry,
    read_telemetry_jsonl,
)
from repro.obs.telemetry.profiler import SamplingProfiler

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetryExporter",
    "TelemetryRegistry",
    "TelemetrySnapshot",
    "exponential_buckets",
    "get_telemetry",
    "read_telemetry_jsonl",
    "SamplingProfiler",
]
