"""Tolerance-policy regression gate over the benchmark run registry.

Compares the metrics a benchmark run just emitted (``--metrics-jsonl``)
against the committed ``BENCH_<area>.json`` baselines and classifies
every metric::

    improved          moved past tolerance in the good direction
    ok                within tolerance of the baseline
    regressed         moved past tolerance in the bad direction  -> fails
    invalid           current value is NaN/inf                   -> fails
    missing_baseline  metric has no baseline yet (new metric)
    missing_current   baseline metric the run did not emit

Per-metric :class:`TolerancePolicy` decides the good direction
(``higher`` or ``lower`` is better) and the relative/absolute
thresholds; policies resolve by exact key, then longest registered
prefix, then a keyword heuristic over the metric name (``energy``,
``cycles``, ``adds`` ... are lower-better; everything else defaults to
higher-better).  Noisy wall-clock metrics register advisory policies
(``required=False``) so CI host variance cannot fail a build.

CI entry point: ``python -m repro.experiments --bench-compare
metrics.jsonl`` — exits non-zero iff :attr:`RegressionReport.failed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    "host_mismatch",
    "POLICY_OVERRIDES",
    "HOST_SENSITIVE_PREFIXES",
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
    # An efficiency ratio (dcnn energy / mlcnn energy): higher is better,
    # although "energy" in its name would make the keyword list say lower.
    "fig15.energy_efficiency": TolerancePolicy(direction="higher"),
    # Parallel scaling depends entirely on the host's core count (a
    # 1-core runner legitimately measures < 0.5 at workers=2), so the
    # curve is trended with a wide advisory band rather than gated.
    "kernel.parallel_scaling_efficiency": TolerancePolicy(
        direction="higher", rel_tol=0.75, abs_tol=0.05, required=False
    ),
    "numerics.": TolerancePolicy(direction="lower", rel_tol=0.25, abs_tol=1e-6),
    # Span coverage is the attribution engine's self-check: the
    # fraction of measured wall time explained by instrumented spans.
    # It is deterministic tooling behaviour, not host speed — a drop
    # means instrumentation coverage was lost (e.g. worker shard
    # merge-back broke), which fails the gate.
    "attrib.span_coverage": TolerancePolicy(
        direction="higher", rel_tol=0.05, abs_tol=0.02
    ),
    "attrib.unexplained_fraction": TolerancePolicy(
        direction="lower", rel_tol=0.50, abs_tol=0.02, required=False
    ),
    # Attained-roofline fractions depend on the host's measured roofs:
    # advisory trend lines, never gate failures.
    "roofline.": TolerancePolicy(
        direction="higher", rel_tol=0.90, abs_tol=0.02, required=False
    ),
    # Telemetry overhead is a relative measurement (enabled vs disabled
    # on the same host, best-of-N), so it gates required: instrumenting
    # the batch loop must stay in the low single digits everywhere.
    # The absolute floor absorbs timer noise around a near-zero cost.
    "telemetry.overhead_pct": TolerancePolicy(
        direction="lower", rel_tol=0.75, abs_tol=2.5
    ),
    # Absolute batch latency and profiler duty cycle are host speed:
    # advisory wide-band trend lines, auto-downgraded on core mismatch.
    "telemetry.p99_batch_ms": TolerancePolicy(
        direction="lower", rel_tol=0.90, abs_tol=5.0, required=False
    ),
    "telemetry.profiler_overhead_pct": TolerancePolicy(
        direction="lower", rel_tol=0.90, abs_tol=1.0, required=False
    ),
}

#: metric-key prefixes whose values are a property of the machine shape
#: (core count) rather than the code.  When the baseline was recorded
#: on a host with a different ``cpu_count``, the gate auto-downgrades
#: these to advisory — comparing a 2-core scaling curve against a
#: 16-core baseline measures the hardware, not the change under test.
HOST_SENSITIVE_PREFIXES = (
    "kernel.parallel_samples_per_sec",
    "kernel.parallel_scaling_efficiency",
    "roofline.",
    "telemetry.p99_batch_ms",
    "telemetry.profiler_overhead_pct",
)


def host_mismatch(
    baseline_provenance: Optional[Mapping[str, str]],
    current_provenance: Optional[Mapping[str, str]] = None,
) -> Optional[str]:
    """Why host-sensitive metrics should be advisory, or None if same.

    A baseline without ``cpu_count`` provenance (recorded before the
    field existed) is treated as mismatched: its host shape is unknown,
    so host-sensitive comparisons against it cannot be trusted to fail
    a build.
    """
    if current_provenance is None:
        from repro.obs.metrics import provenance

        current_provenance = provenance()
    base_cpu = (baseline_provenance or {}).get("cpu_count")
    cur_cpu = current_provenance.get("cpu_count")
    if base_cpu is None:
        return "baseline records no cpu_count"
    if str(base_cpu) != str(cur_cpu):
        return f"baseline cpu_count={base_cpu}, host cpu_count={cur_cpu}"
    return None

#: metric-name keywords implying lower-is-better when no policy matches
_LOWER_IS_BETTER = (
    "energy",
    "cycles",
    "adds",
    "additions",
    "mults",
    "bytes",
    "time",
    "wall",
    "latency",
    "area",
    "conflict",
    "miss",
)

_DEFAULT = TolerancePolicy()


def policy_for(
    key: str, overrides: Optional[Mapping[str, TolerancePolicy]] = None
) -> TolerancePolicy:
    """Resolve the policy for a metric key.

    Precedence: exact key in ``overrides``/``POLICY_OVERRIDES``, then
    the longest matching prefix, then the keyword heuristic.
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
    if best[1] is not None:
        return best[1]
    lowered = key.lower()
    if any(word in lowered for word in _LOWER_IS_BETTER):
        return TolerancePolicy(direction="lower")
    return _DEFAULT


@dataclass
class Verdict:
    """Gate outcome for one metric."""

    area: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    policy: TolerancePolicy
    status: str  # improved | ok | regressed | invalid | missing_baseline | missing_current
    #: explanatory annotation (e.g. the host-mismatch downgrade reason)
    note: str = ""

    @property
    def fails(self) -> bool:
        if self.status == "invalid":
            return True
        return self.status == "regressed" and self.policy.required

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

    def by_status(self, *statuses: str) -> List[Verdict]:
        return [v for v in self.verdicts if v.status in statuses]

    def render(self) -> str:
        from repro.analysis.report import format_table

        def fmt(x: Optional[float]) -> str:
            return "-" if x is None else f"{x:.6g}"

        rows = []
        order = {"regressed": 0, "invalid": 1, "improved": 2, "ok": 3,
                 "missing_baseline": 4, "missing_current": 5}
        for v in sorted(self.verdicts, key=lambda v: (order[v.status], v.area, v.metric)):
            d = v.delta_rel
            rows.append(
                [
                    v.status + ("" if v.policy.required else " (advisory)"),
                    v.area,
                    v.metric,
                    fmt(v.baseline),
                    fmt(v.current),
                    "-" if d is None else f"{100 * d:+.2f}%",
                    v.policy.direction,
                    v.note or "-",
                ]
            )
        table = format_table(
            ["status", "area", "metric", "baseline", "current", "delta", "better", "note"],
            rows,
        )
        counts = ", ".join(f"{k}={n}" for k, n in sorted(self.counts().items()))
        verdict_line = "REGRESSION GATE: FAIL" if self.failed else "regression gate: pass"
        return f"{table}\n{counts or 'no metrics'}\n{verdict_line}"


def gate_metrics(
    per_area: Mapping[str, Mapping[str, float]],
    registry: MetricRegistry,
    overrides: Optional[Mapping[str, TolerancePolicy]] = None,
) -> RegressionReport:
    """Gate already-parsed per-area metrics against the registry.

    Host-shape awareness: when an area's baseline was recorded on a
    host with a different (or unrecorded) ``cpu_count``, every verdict
    on a :data:`HOST_SENSITIVE_PREFIXES` metric is downgraded to
    advisory with the mismatch reason in its note — the metric is still
    reported and trended, it just cannot fail the gate.
    """
    verdicts: List[Verdict] = []
    for area in sorted(per_area):
        doc = registry.load(area)
        baseline = None if doc is None else {
            str(k): float(v) for k, v in (doc.get("metrics") or {}).items()
        }
        area_verdicts = compare_metrics(area, baseline, per_area[area], overrides)
        mismatch = host_mismatch(None if doc is None else doc.get("provenance"))
        if mismatch is not None:
            for v in area_verdicts:
                if v.metric.startswith(HOST_SENSITIVE_PREFIXES):
                    # annotate every host-sensitive metric (the dashboard
                    # surfaces these notes); downgrade only those that
                    # could otherwise fail the gate
                    if v.policy.required:
                        v.policy = replace(v.policy, required=False)
                    if not v.note:
                        v.note = f"host mismatch: {mismatch}"
        verdicts.extend(area_verdicts)
    return RegressionReport(verdicts)


def gate_jsonl(
    jsonl_path: str,
    root: str = ".",
    overrides: Optional[Mapping[str, TolerancePolicy]] = None,
) -> RegressionReport:
    """Gate a ``--metrics-jsonl`` file against ``BENCH_*.json`` in ``root``."""
    return gate_metrics(load_metrics_jsonl(jsonl_path), MetricRegistry(root), overrides)
