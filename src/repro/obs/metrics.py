"""The benchmark run registry and run provenance.

:class:`MetricRegistry` persists headline benchmark metrics to
``BENCH_<area>.json`` files at the repo root, each run stamped with git
SHA, UTC timestamp, host and Python version (:func:`provenance`).
Previous runs rotate into a bounded ``history`` list so the dashboard
(:mod:`repro.obs.dashboard`) can render trend series, and the committed
files are the baselines the CI regression gate
(:mod:`repro.obs.regress`) compares every PR against.

The measured op counters live in :mod:`repro.nn.counters` (re-exported
by :mod:`repro.obs`).
"""

from __future__ import annotations

import getpass
import json
import os
import platform
import socket
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "provenance",
    "RunRecord",
    "MetricRegistry",
    "metric_key",
    "area_for_figure",
    "load_metrics_jsonl",
    "PROVENANCE_FIELDS",
    "HISTORY_LIMIT",
]


# ---------------------------------------------------------------------------
# Run provenance
# ---------------------------------------------------------------------------

#: metadata keys stamped on rows/records; excluded from metric identity
PROVENANCE_FIELDS = (
    "git_sha",
    "timestamp",
    "host",
    "user",
    "python",
    "cpu_count",
    "machine",
)


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance() -> Dict[str, str]:
    """Stamp for one run: git SHA, UTC timestamp, host identity, python.

    ``cpu_count`` and ``machine`` make baselines host-shape-aware: the
    regression gate downgrades host-sensitive metrics (roofline
    fractions, absolute latencies) to advisory when the current core
    count differs from the baseline's, instead of failing the build on
    hardware variance.
    """
    try:
        user = getpass.getuser()
    except (KeyError, OSError):  # no passwd entry in some containers
        user = "unknown"
    return {
        "git_sha": _git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": socket.gethostname(),
        "user": user,
        "python": platform.python_version(),
        "cpu_count": str(os.cpu_count() or 1),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Metric naming
# ---------------------------------------------------------------------------

#: benchmark areas: figure/table prefix -> BENCH_<area>.json
_ACCEL_PREFIXES = (
    "fig13",
    "fig15",
    "table7",
    "kernel",
    "operating",
    "related",
    "resnet18",
)


def area_for_figure(figure: str) -> str:
    """Which ``BENCH_<area>.json`` a figure's metrics persist to.

    Cycle/energy/throughput figures ride on the accelerator model
    (``accel``); the analytic LAR/GAR/RME tables and FLOP reductions
    ride on :mod:`repro.core` (``core``).
    """
    return "accel" if figure.startswith(_ACCEL_PREFIXES) else "core"


def metric_key(figure: str, metric: str, extra: Mapping[str, Any] = ()) -> str:
    """Canonical metric identity: ``figure.metric[k=v]...``.

    Provenance fields never enter the key, so re-runs of the same
    benchmark on different hosts/commits compare against each other.
    """
    parts = [f"{figure}.{metric}"]
    extra = dict(extra or {})
    for k in sorted(extra):
        if k in PROVENANCE_FIELDS:
            continue
        parts.append(f"[{k}={extra[k]}]")
    return "".join(parts)


def load_metrics_jsonl(path: str) -> Dict[str, Dict[str, float]]:
    """Parse a ``--metrics-jsonl`` file into per-area metric dicts.

    Returns ``{area: {metric_key: value}}``; a key emitted more than
    once keeps its last value (later rows supersede earlier re-runs).
    Malformed lines raise — a truncated metrics file must not silently
    gate against a partial run.
    """
    per_area: Dict[str, Dict[str, float]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                figure, metric, value = row["figure"], row["metric"], row["value"]
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: metric rows need figure/metric/value"
                ) from exc
            extra = {
                k: v
                for k, v in row.items()
                if k not in ("figure", "metric", "value") and k not in PROVENANCE_FIELDS
            }
            try:
                value = float(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: metric value {value!r} is not a number"
                ) from exc
            area = area_for_figure(str(figure))
            per_area.setdefault(area, {})[metric_key(figure, metric, extra)] = value
    return per_area


# ---------------------------------------------------------------------------
# Run registry
# ---------------------------------------------------------------------------

#: how many previous runs a BENCH_<area>.json keeps for trend series
HISTORY_LIMIT = 20


@dataclass
class RunRecord:
    """One benchmark run's headline metrics with provenance."""

    area: str
    metrics: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, str] = field(default_factory=provenance)

    def to_doc(self) -> Dict[str, Any]:
        return {"provenance": dict(self.provenance), "metrics": dict(self.metrics)}

    @classmethod
    def from_doc(cls, area: str, doc: Mapping[str, Any]) -> "RunRecord":
        return cls(
            area=area,
            metrics={str(k): float(v) for k, v in (doc.get("metrics") or {}).items()},
            provenance=dict(doc.get("provenance") or {}),
        )


class MetricRegistry:
    """Reads and refreshes the ``BENCH_<area>.json`` baseline files.

    File schema::

        {
          "area": "core",
          "provenance": {"git_sha": ..., "timestamp": ..., ...},
          "metrics": {"<figure>.<metric>[k=v]": value, ...},
          "measured": ["<figure>.<metric>[k=v]", ...],
          "history": [{"provenance": {...}, "metrics": {...}}, ...]
        }

    ``metrics`` is the current baseline the gate compares against;
    ``measured`` names the keys the latest run produced (absent: all of
    them); ``history`` holds the previous runs' measured values, newest
    first, bounded by :data:`HISTORY_LIMIT`.
    """

    def __init__(self, root: str = ".") -> None:
        self.root = root

    def path(self, area: str) -> str:
        return os.path.join(self.root, f"BENCH_{area}.json")

    def areas(self) -> List[str]:
        """Areas with a committed baseline file, sorted."""
        found = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        for name in names:
            if name.startswith("BENCH_") and name.endswith(".json"):
                found.append(name[len("BENCH_"):-len(".json")])
        return sorted(found)

    def load(self, area: str) -> Optional[Dict[str, Any]]:
        """Full document for ``area``, or None when no baseline exists."""
        try:
            with open(self.path(area)) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def baseline(self, area: str) -> Optional[Dict[str, float]]:
        """Current baseline metrics for ``area`` (None = no baseline)."""
        doc = self.load(area)
        if doc is None:
            return None
        return {str(k): float(v) for k, v in (doc.get("metrics") or {}).items()}

    @staticmethod
    def _latest_run(doc: Mapping[str, Any]) -> Dict[str, Any]:
        """The latest run's own entry: only the keys it measured."""
        metrics = doc.get("metrics") or {}
        measured = doc.get("measured")
        if measured is not None:
            metrics = {k: metrics[k] for k in measured if k in metrics}
        return {"provenance": doc.get("provenance") or {}, "metrics": metrics}

    def history(self, area: str) -> List[RunRecord]:
        """All recorded runs, oldest first, current run last."""
        doc = self.load(area)
        if doc is None:
            return []
        entries = list(reversed(doc.get("history") or [])) + [self._latest_run(doc)]
        return [RunRecord.from_doc(area, entry) for entry in entries]

    def update(
        self,
        area: str,
        metrics: Mapping[str, float],
        stamp: Optional[Mapping[str, str]] = None,
    ) -> str:
        """Merge ``metrics`` into the baseline, key by key; rotate the
        previous run into history.  Returns the file path written.

        Keys this run did not measure keep their baseline value, so a
        partial run cannot drop metrics.  A metric is removed by
        deleting its key from the ``BENCH_<area>.json`` file.
        """
        doc = self.load(area)
        history: List[Dict[str, Any]] = []
        merged: Dict[str, float] = {}
        if doc is not None:
            history = list(doc.get("history") or [])
            merged = {str(k): float(v) for k, v in (doc.get("metrics") or {}).items()}
            latest = self._latest_run(doc)
            if latest["metrics"]:
                history.insert(0, latest)
        merged.update({k: float(v) for k, v in metrics.items()})
        new_doc = {
            "area": area,
            "provenance": dict(stamp) if stamp is not None else provenance(),
            "metrics": dict(sorted(merged.items())),
            "measured": sorted(metrics),
            "history": history[:HISTORY_LIMIT],
        }
        path = self.path(area)
        with open(path, "w") as fh:
            json.dump(new_doc, fh, indent=2, sort_keys=False)
            fh.write("\n")
        return path

    def series(self, area: str, key: str) -> List[Tuple[str, float]]:
        """(git_sha, value) trend of one metric, oldest first."""
        out: List[Tuple[str, float]] = []
        for record in self.history(area):
            if key in record.metrics:
                out.append((record.provenance.get("git_sha", "?"), record.metrics[key]))
        return out
