"""Tolerance-policy regression gate over the benchmark run registry.

Compares the metrics a benchmark run just emitted (``--metrics-jsonl``)
against the committed ``BENCH_<area>.json`` baselines and classifies
every metric::

    improved          moved past tolerance in the good direction
    ok                within tolerance of the baseline
    regressed         moved past tolerance in the bad direction  -> fails
    invalid           current value is NaN/inf                   -> fails
    missing_baseline  metric has no baseline yet (new metric)
    missing_current   baseline metric the run did not emit       -> fails

Per-metric :class:`TolerancePolicy` decides the good direction
(``higher`` or ``lower`` is better) and the relative/absolute
thresholds; policies resolve by exact key, then longest registered
prefix in :data:`POLICY_OVERRIDES`, and default to higher-better.
Every lower-is-better metric declares that there.  Noisy wall-clock
metrics register advisory policies (``required=False``) so CI host
variance cannot fail a build; only required metrics fail on
``regressed`` or ``missing_current``.

CI entry point: ``python -m repro.experiments --bench-compare
metrics.jsonl`` — exits non-zero iff :attr:`RegressionReport.failed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricRegistry, load_metrics_jsonl

__all__ = [
    "TolerancePolicy",
    "Verdict",
    "RegressionReport",
    "policy_for",
    "compare_metrics",
    "gate_metrics",
    "gate_jsonl",
    "POLICY_OVERRIDES",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """How one metric is judged against its baseline."""

    #: "higher" or "lower" — which direction is an improvement
    direction: str = "higher"
    #: relative tolerance (fraction of the baseline magnitude)
    rel_tol: float = 0.05
    #: absolute tolerance floor (dominates for near-zero baselines)
    abs_tol: float = 1e-9
    #: False: report regressions but never fail the gate (noisy metrics)
    required: bool = True

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(f"direction must be 'higher' or 'lower', got {self.direction!r}")
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be non-negative")

    def margin(self, baseline: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(baseline))


#: exact-key or prefix policies (longest prefix wins). Wall-clock
#: throughput varies wildly across CI hosts: advisory with a wide band.
#: Numerics health metrics (clip rates, reorder divergence) are
#: lower-is-better and deterministic given seeds — drifting upward past
#: 25% of baseline means quantization or reordering got numerically
#: worse, which fails the gate like a performance regression.
POLICY_OVERRIDES: Dict[str, TolerancePolicy] = {
    "kernel.": TolerancePolicy(direction="higher", rel_tol=0.90, required=False),
    # An efficiency ratio (dcnn energy / mlcnn energy): higher is better.
    "fig15.energy_efficiency": TolerancePolicy(direction="higher"),
    # Accelerator operating points are speedups, whatever the label
    # (``[bytes_per_cycle=...]``) says.
    "operating.": TolerancePolicy(direction="higher"),
    # Additions actually spent per output row, and silicon area.
    "table4.measured_adds_per_row": TolerancePolicy(direction="lower"),
    "table7.area_mm2": TolerancePolicy(direction="lower"),
    "numerics.": TolerancePolicy(direction="lower", rel_tol=0.25, abs_tol=1e-6),
    # Span coverage is the attribution engine's self-check: the
    # fraction of measured wall time explained by instrumented spans.
    # It is deterministic tooling behaviour, not host speed — a drop
    # means instrumentation coverage was lost (e.g. a subsystem stopped
    # emitting spans), which fails the gate.
    "attrib.span_coverage": TolerancePolicy(
        direction="higher", rel_tol=0.05, abs_tol=0.02
    ),
    # Telemetry overhead is the cost of tracing a Trainer fit, a
    # relative measurement (tracer on vs off on the same host,
    # best-of-N), so it gates required: the spans of the batch loop
    # must stay in the low single digits everywhere.  The absolute
    # floor absorbs timer noise around a near-zero cost.
    "telemetry.overhead_pct": TolerancePolicy(
        direction="lower", rel_tol=0.75, abs_tol=2.5
    ),
    # Absolute batch latency (the traced fit's batch spans) and
    # profiler duty cycle are host speed: advisory wide-band trend
    # lines.
    "telemetry.p99_batch_ms": TolerancePolicy(
        direction="lower", rel_tol=0.90, abs_tol=5.0, required=False
    ),
    "telemetry.profiler_overhead_pct": TolerancePolicy(
        direction="lower", rel_tol=0.90, abs_tol=1.0, required=False
    ),
}

_DEFAULT = TolerancePolicy()


def policy_for(
    key: str, overrides: Optional[Mapping[str, TolerancePolicy]] = None
) -> TolerancePolicy:
    """Resolve the policy for a metric key.

    Precedence: exact key in ``overrides``/``POLICY_OVERRIDES``, then
    the longest matching prefix, then the higher-is-better default.
    """
    table: Dict[str, TolerancePolicy] = dict(POLICY_OVERRIDES)
    if overrides:
        table.update(overrides)
    if key in table:
        return table[key]
    best: Tuple[int, Optional[TolerancePolicy]] = (-1, None)
    for prefix, policy in table.items():
        if key.startswith(prefix) and len(prefix) > best[0]:
            best = (len(prefix), policy)
    return best[1] if best[1] is not None else _DEFAULT


@dataclass
class Verdict:
    """Gate outcome for one metric."""

    area: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    policy: TolerancePolicy
    status: str  # improved | ok | regressed | invalid | missing_baseline | missing_current

    @property
    def fails(self) -> bool:
        if self.status == "invalid":
            return True
        return self.status in ("regressed", "missing_current") and self.policy.required

    @property
    def delta_rel(self) -> Optional[float]:
        """Signed relative change vs the baseline (None if undefined)."""
        if self.baseline is None or self.current is None or self.baseline == 0:
            return None
        return (self.current - self.baseline) / abs(self.baseline)


def _is_bad_float(x: float) -> bool:
    return math.isnan(x) or math.isinf(x)


def compare_metrics(
    area: str,
    baseline: Optional[Mapping[str, float]],
    current: Mapping[str, float],
    overrides: Optional[Mapping[str, TolerancePolicy]] = None,
) -> List[Verdict]:
    """Judge every metric of one area; returns verdicts sorted by key.

    ``baseline=None`` means the whole area has no committed baseline:
    every metric reports ``missing_baseline`` (the gate passes — seed
    the baseline with ``--bench-update`` to arm it).
    """
    verdicts: List[Verdict] = []
    base = dict(baseline) if baseline is not None else None
    for key in sorted(current):
        value = float(current[key])
        policy = policy_for(key, overrides)
        if _is_bad_float(value):
            verdicts.append(Verdict(area, key, None if base is None else base.get(key), value, policy, "invalid"))
            continue
        if base is None or key not in base or _is_bad_float(base[key]):
            ref = None if base is None else base.get(key)
            verdicts.append(Verdict(area, key, ref, value, policy, "missing_baseline"))
            continue
        ref = float(base[key])
        margin = policy.margin(ref)
        delta = value - ref
        good = delta if policy.direction == "higher" else -delta
        if good > margin:
            status = "improved"
        elif good < -margin:
            status = "regressed"
        else:
            status = "ok"
        verdicts.append(Verdict(area, key, ref, value, policy, status))
    if base is not None:
        for key in sorted(set(base) - set(current)):
            verdicts.append(
                Verdict(area, key, float(base[key]), None, policy_for(key, overrides), "missing_current")
            )
    return verdicts


@dataclass
class RegressionReport:
    """All verdicts of one gate invocation."""

    verdicts: List[Verdict]

    @property
    def failed(self) -> bool:
        return any(v.fails for v in self.verdicts)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.verdicts:
            out[v.status] = out.get(v.status, 0) + 1
        return out

    def ranked(self) -> List[Verdict]:
        """Verdicts by status (failures first), then by |delta_rel| within
        a status — the metric that moved most leads its group."""
        order = {"regressed": 0, "invalid": 1, "missing_current": 2, "improved": 3,
                 "ok": 4, "missing_baseline": 5}

        def key(v: Verdict):
            d = v.delta_rel
            return (order[v.status], -abs(d) if d is not None else 0.0, v.area, v.metric)

        return sorted(self.verdicts, key=key)

    def to_experiment_report(self):
        from repro.analysis.report import ExperimentReport

        def fmt(x: Optional[float]) -> str:
            return "-" if x is None else f"{x:.6g}"

        rep = ExperimentReport(
            "Regression gate",
            "every metric vs its committed baseline, largest |delta| first within a status",
            headers=["status", "area", "metric", "baseline", "current", "delta", "better"],
        )
        for v in self.ranked():
            d = v.delta_rel
            rep.add_row(
                v.status + ("" if v.policy.required or v.fails else " (advisory)"),
                v.area,
                v.metric,
                fmt(v.baseline),
                fmt(v.current),
                "-" if d is None else f"{100 * d:+.2f}%",
                v.policy.direction,
            )
        rep.add_note(", ".join(f"{k}={n}" for k, n in sorted(self.counts().items())) or "no metrics")
        rep.add_note("REGRESSION GATE: FAIL" if self.failed else "regression gate: pass")
        return rep

    def render(self) -> str:
        return self.to_experiment_report().render()


def gate_metrics(
    per_area: Mapping[str, Mapping[str, float]],
    registry: MetricRegistry,
    overrides: Optional[Mapping[str, TolerancePolicy]] = None,
) -> RegressionReport:
    """Gate already-parsed per-area metrics against the registry."""
    verdicts: List[Verdict] = []
    for area in sorted(per_area):
        verdicts.extend(
            compare_metrics(area, registry.baseline(area), per_area[area], overrides)
        )
    return RegressionReport(verdicts)


def gate_jsonl(
    jsonl_path: str,
    root: str = ".",
    overrides: Optional[Mapping[str, TolerancePolicy]] = None,
) -> RegressionReport:
    """Gate a ``--metrics-jsonl`` file against ``BENCH_*.json`` in ``root``."""
    return gate_metrics(load_metrics_jsonl(jsonl_path), MetricRegistry(root), overrides)
