"""Dashboard: metric trends, gate verdicts and run tables as MD/HTML.

Renders the state of the run registry (``BENCH_<area>.json``) — latest
baseline vs the current run, relative deltas, and a unicode sparkline
of each metric's history — plus, when supplied, the regression-gate
verdicts and any other table a run produced (the per-epoch training
table of a trace, attribution, numerics, run diff).  Every section is an
:class:`~repro.analysis.report.ExperimentReport`, the table type every
experiment prints.  CI writes the markdown flavour as a build
artifact::

    python -m repro.experiments --bench-compare metrics.jsonl \\
        --bench-dashboard dashboard.md

The HTML flavour (``--bench-dashboard dash.html``, and the
``dashboard.html`` of an ``--obs`` run directory) wraps the same tables
in a minimal standalone page; format is chosen by extension.
"""

from __future__ import annotations

import html
import math
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.obs.attrib import epoch_batch_ms
from repro.obs.metrics import MetricRegistry, provenance

__all__ = [
    "sparkline",
    "training_report",
    "build_dashboard",
    "render_markdown",
    "render_html",
    "write_dashboard",
]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Unicode block sparkline of a series' finite points (empty for < 2)."""
    vals = [v for v in map(float, values) if math.isfinite(v)]
    if len(vals) < 2:
        return ""
    lo, hi = min(vals), max(vals)
    if hi - lo <= 1e-12 * max(abs(hi), abs(lo), 1.0):
        return _BLOCKS[3] * len(vals)
    span = hi - lo
    return "".join(_BLOCKS[int((v - lo) / span * (len(_BLOCKS) - 1))] for v in vals)


def _area_section(
    registry: MetricRegistry,
    area: str,
    current: Optional[Mapping[str, float]],
) -> ExperimentReport:
    rep = ExperimentReport(
        f"Area `{area}`",
        "committed baseline vs current run, trend over the run history",
        headers=["metric", "baseline", "current", "delta", "trend"],
    )
    baseline = registry.baseline(area) or {}
    cur = dict(current or {})
    for key in sorted(set(baseline) | set(cur)):
        base_v = baseline.get(key)
        cur_v = cur.get(key)
        if base_v is not None and cur_v is not None and base_v != 0:
            delta = f"{100 * (cur_v - base_v) / abs(base_v):+.2f}%"
        else:
            delta = "-"
        series = [v for _, v in registry.series(area, key)]
        if cur_v is not None:
            series = series + [cur_v]
        rep.add_row(
            key,
            "-" if base_v is None else f"{base_v:.6g}",
            "-" if cur_v is None else f"{cur_v:.6g}",
            delta,
            sparkline(series) or "·",
        )
    doc = registry.load(area)
    if doc is not None:
        prov = doc.get("provenance") or {}
        rep.add_note(
            f"baseline: {prov.get('git_sha', '?')} @ {prov.get('timestamp', '?')} "
            f"on {prov.get('host', '?')} ({len(doc.get('history') or [])} prior run(s))"
        )
    else:
        rep.add_note("no committed baseline yet (seed with --bench-update)")
    return rep


def _fmt(value, spec: str) -> str:
    return "-" if value is None else format(value, spec)


def training_report(source) -> ExperimentReport:
    """The per-epoch Training table of a trace; no rows without a fit.

    One row per ``train.epoch`` span, in start order: the EpochStats
    scalars the span carries and the p50/p99 wall time of its
    ``train.batch`` spans (:func:`~repro.obs.attrib.epoch_batch_ms`,
    which reads the same ``source`` types).
    """
    rep = ExperimentReport(
        "Training",
        "per-epoch scalars of the train.epoch spans, batch wall time of the train.batch spans",
        headers=["epoch", "train loss", "val loss", "val top-1", "val top-5",
                 "samples/s", "batches", "batch p50 ms", "batch p99 ms"],
    )
    for attrs, batch_ms in epoch_batch_ms(source):
        p50, p99 = np.percentile(batch_ms, [50, 99]) if batch_ms else (None, None)
        rep.add_row(
            attrs.get("epoch", "-"),
            _fmt(attrs.get("train_loss"), ".4f"),
            _fmt(attrs.get("val_loss"), ".4f"),
            _fmt(attrs.get("val_top1"), ".3f"),
            _fmt(attrs.get("val_top5"), ".3f"),
            _fmt(attrs.get("samples_per_sec"), ".1f"),
            len(batch_ms),
            _fmt(p50, ".2f"),
            _fmt(p99, ".2f"),
        )
    rep.add_note("a batch runs from the previous batch's end, so data loading counts")
    return rep


def build_dashboard(
    registry: Optional[MetricRegistry] = None,
    current: Optional[Mapping[str, Mapping[str, float]]] = None,
    gate_report=None,
    reports: Sequence[ExperimentReport] = (),
) -> List[ExperimentReport]:
    """Assemble dashboard sections (shared by both output formats).

    One section per baseline area of ``registry`` (and of ``current``),
    then the given ``reports`` in order — e.g. :func:`training_report`,
    ``AttributionReport.to_experiment_report()``,
    ``NumericsCollector.summary_report()`` or
    ``RunDiff.to_experiment_report()`` — and finally the
    :class:`~repro.obs.regress.RegressionReport` verdicts.
    """
    sections: List[ExperimentReport] = []
    if registry is not None:
        for area in sorted(set(registry.areas()) | set(current or {})):
            sections.append(_area_section(registry, area, (current or {}).get(area)))
    sections.extend(reports)
    if gate_report is not None:
        sections.append(gate_report.to_experiment_report())
    return sections


def render_markdown(sections: List[ExperimentReport]) -> str:
    prov = provenance()
    out = [
        "# Benchmark dashboard",
        "",
        f"generated at {prov['timestamp']} on {prov['host']} "
        f"(commit `{prov['git_sha']}`, python {prov['python']})",
        "",
    ]
    for s in sections:
        out.append(f"## {s.experiment}")
        out.append("")
        for note in [s.description] + s.notes:
            out.append(f"_{note}_")
            out.append("")
        if s.rows:
            out.append("| " + " | ".join(s.headers) + " |")
            out.append("|" + "|".join("---" for _ in s.headers) + "|")
            for row in s.rows:
                out.append("| " + " | ".join(str(c) for c in row) + " |")
        else:
            out.append("(no metrics)")
        out.append("")
    return "\n".join(out)


def render_html(sections: List[ExperimentReport]) -> str:
    prov = provenance()
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>Benchmark dashboard</title>",
        "<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}"
        "td,th{border:1px solid #ccc;padding:4px 8px;font-size:13px;text-align:left}"
        "th{background:#f0f0f0}em{color:#666}</style></head><body>",
        "<h1>Benchmark dashboard</h1>",
        f"<p><em>generated at {html.escape(prov['timestamp'])} on "
        f"{html.escape(prov['host'])} (commit {html.escape(prov['git_sha'])})</em></p>",
    ]
    for s in sections:
        parts.append(f"<h2>{html.escape(s.experiment)}</h2>")
        for note in [s.description] + s.notes:
            parts.append(f"<p><em>{html.escape(note)}</em></p>")
        if s.rows:
            parts.append("<table><tr>")
            parts.extend(f"<th>{html.escape(h)}</th>" for h in s.headers)
            parts.append("</tr>")
            for row in s.rows:
                parts.append(
                    "<tr>" + "".join(f"<td>{html.escape(str(c))}</td>" for c in row) + "</tr>"
                )
            parts.append("</table>")
        else:
            parts.append("<p>(no metrics)</p>")
    parts.append("</body></html>")
    return "".join(parts)


def write_dashboard(path: str, registry: Optional[MetricRegistry] = None, **sections) -> str:
    """Write the dashboard to ``path`` (HTML iff the extension says so).

    ``sections`` are the keyword arguments of :func:`build_dashboard`.
    """
    built = build_dashboard(registry, **sections)
    text = (
        render_html(built)
        if path.endswith((".html", ".htm"))
        else render_markdown(built)
    )
    with open(path, "w") as fh:
        fh.write(text)
    return path
