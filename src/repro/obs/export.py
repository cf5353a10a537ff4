"""Trace exporters and the ``--obs`` run directory.

Two serializations of one :class:`~repro.obs.tracer.Tracer`:

* :func:`write_jsonl` — one JSON object per span or instant event,
  with its ``id`` and its ``parent``'s; greppable, diffable, and the
  format :mod:`repro.obs.attrib` and :mod:`repro.obs.forensics` read
  back.
* :func:`write_chrome_trace` — the Chrome trace-event format
  (``chrome://tracing`` / https://ui.perfetto.dev): spans become
  complete (``"ph": "X"``) events with microsecond ``ts``/``dur``,
  instant events become ``"ph": "i"``.

:class:`ObsRun` is the single observability switch: it turns on the
tracer and the sampling profiler for a run, and writes everything they
recorded into one directory.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.obs.attrib import AttributionReport, build_attribution
from repro.obs.dashboard import training_report, write_dashboard
from repro.obs.profiler import SamplingProfiler
from repro.obs.tracer import Tracer, get_tracer

__all__ = [
    "to_jsonl",
    "write_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "ObsRun",
]


def _json_safe(value):
    """Coerce attr values to something json.dumps accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    try:  # numpy scalars
        return value.item()
    except AttributeError:
        return str(value)


def to_jsonl(tracer: Optional[Tracer] = None) -> str:
    """Serialize the tracer's events, one JSON doc per line."""
    tracer = tracer or get_tracer()
    lines: List[str] = []
    for ev in tracer.events:
        doc = {
            "type": "span" if ev.is_span else "instant",
            "name": ev.name,
            "ts_us": round(ev.ts_us, 3),
            "tid": ev.tid,
            "depth": ev.depth,
            "id": ev.id,
            "parent": ev.parent,
        }
        if ev.is_span:
            doc["dur_us"] = round(ev.dur_us, 3)
        if ev.category:
            doc["cat"] = ev.category
        if ev.attrs:
            doc["attrs"] = _json_safe(ev.attrs)
        lines.append(json.dumps(doc))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: str, tracer: Optional[Tracer] = None) -> int:
    """Write the JSONL export to ``path``; returns the line count."""
    text = to_jsonl(tracer)
    with open(path, "w") as fh:
        fh.write(text)
    return text.count("\n")


def to_chrome_trace(tracer: Optional[Tracer] = None) -> Dict:
    """Build a Chrome trace-event document (load in chrome://tracing)."""
    tracer = tracer or get_tracer()
    # Chrome renders raw thread ids poorly; remap to small ordinals.
    tid_map: Dict[int, int] = {}
    trace_events: List[Dict] = []
    for ev in tracer.events:
        tid = tid_map.setdefault(ev.tid, len(tid_map))
        doc = {
            "name": ev.name,
            "cat": ev.category or "repro",
            "ph": "X" if ev.is_span else "i",
            "ts": round(ev.ts_us, 3),
            "pid": 0,
            "tid": tid,
        }
        if ev.is_span:
            doc["dur"] = round(ev.dur_us, 3)
        else:
            doc["s"] = "t"  # instant scope: thread
        if ev.attrs:
            doc["args"] = _json_safe(ev.attrs)
        trace_events.append(doc)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracer: Optional[Tracer] = None) -> int:
    """Write the Chrome trace to ``path``; returns the event count."""
    doc = to_chrome_trace(tracer)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


class ObsRun:
    """One observability run directory; the only owner of its file names.

    Entering clears and enables the process-wide tracer and starts the
    :class:`SamplingProfiler` (the one thread a run adds).  Exiting
    stops them and writes the trace (JSONL and Chrome), the profile
    (collapsed stacks and flamegraph), the attribution rows and the
    dashboard, whose Training table is read from the trace.  Every file
    is removed on entry, so a reused directory never mixes two runs.
    ``--numerics`` runs add ``numerics.jsonl`` at :meth:`path`
    ``(ObsRun.NUMERICS)``::

        with ObsRun("obs-run") as run:
            ...                       # compile / train / simulate
        print(run.attribution.render())
    """

    TRACE = "trace.jsonl"
    CHROME_TRACE = "trace.json"
    PROFILE = "profile.txt"
    FLAMEGRAPH = "flamegraph.html"
    ATTRIB = "attrib.jsonl"
    DASHBOARD = "dashboard.html"
    NUMERICS = "numerics.jsonl"
    FILES = (TRACE, CHROME_TRACE, PROFILE, FLAMEGRAPH, ATTRIB, DASHBOARD)

    def __init__(self, directory: str) -> None:
        self.directory = directory
        #: per-model reports from ``attribute_model_run``; written to
        #: ``attrib.jsonl`` tagged with ``model`` instead of the run's own
        self.model_attributions: Dict[str, AttributionReport] = {}
        #: extra tables for the dashboard (e.g. numerics summaries)
        self.reports: List = []
        #: the attribution of the run's own trace, set on exit
        self.attribution: Optional[AttributionReport] = None

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    @classmethod
    def trace_path(cls, run: str) -> str:
        """The JSONL trace of ``run``: a run directory or a trace file."""
        return os.path.join(run, cls.TRACE) if os.path.isdir(run) else run

    def __enter__(self) -> "ObsRun":
        os.makedirs(self.directory, exist_ok=True)
        for name in self.FILES + (self.NUMERICS,):
            if os.path.exists(self.path(name)):
                os.remove(self.path(name))
        tracer = get_tracer()
        tracer.clear()
        tracer.enable()
        self._profiler = SamplingProfiler().start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._profiler.stop()
        tracer = get_tracer()
        tracer.disable()
        write_jsonl(self.path(self.TRACE), tracer)
        write_chrome_trace(self.path(self.CHROME_TRACE), tracer)
        self._profiler.write_collapsed(self.path(self.PROFILE))
        self._profiler.write_flamegraph(self.path(self.FLAMEGRAPH))
        self.attribution = build_attribution(tracer)
        tagged = self.model_attributions or {"": self.attribution}
        training = training_report(tracer)
        tables = [training] if training.rows else []
        with open(self.path(self.ATTRIB), "w") as fh:
            for model, report in tagged.items():
                fh.write(report.to_jsonl(**({"model": model} if model else {})))
                table = report.to_experiment_report()
                if model:
                    table.experiment += f" [{model}]"
                tables.append(table)
        write_dashboard(self.path(self.DASHBOARD), reports=tables + self.reports)
        return False
