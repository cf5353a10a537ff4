"""Dashboard: metric trends, gate verdicts and run tables as MD/HTML.

Renders the state of the run registry (``BENCH_<area>.json``) — latest
baseline vs the current run, relative deltas, and a unicode sparkline
of each metric's history — plus, when supplied, the regression-gate
verdicts, a telemetry snapshot series, and any other table a run
produced (attribution, numerics, run diff).  Every section is an
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
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.report import ExperimentReport
from repro.obs.metrics import MetricRegistry, provenance

__all__ = ["sparkline", "build_dashboard", "render_markdown", "render_html", "write_dashboard"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Unicode block sparkline of a metric series (empty for < 2 points)."""
    vals = [float(v) for v in values]
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


def _telemetry_section(snapshots: Sequence) -> ExperimentReport:
    """Per-series time evolution of a telemetry snapshot sequence.

    ``snapshots`` are :class:`~repro.obs.telemetry.registry.TelemetrySnapshot`
    objects (or their ``as_dict`` documents), e.g. from
    :func:`~repro.obs.telemetry.registry.read_telemetry_jsonl`; the last
    one supplies current values and the whole sequence feeds the trend
    sparkline.
    """
    rep = ExperimentReport(
        "Live telemetry",
        "telemetry registry series over the run",
        headers=["series", "type", "current", "trend"],
    )
    docs = [s.as_dict() if hasattr(s, "as_dict") else dict(s) for s in snapshots]

    def rows_of(doc) -> Dict[str, Mapping]:
        out: Dict[str, Mapping] = {}
        for fam in doc.get("metrics") or []:
            for srow in fam.get("series") or []:
                labels = srow.get("labels") or {}
                tag = "".join(f"[{k}={v}]" for k, v in sorted(labels.items()))
                out[f"{fam['name']}{tag}"] = {"type": fam["type"], **srow}
        return out

    def fmt(value) -> str:
        return "nan" if value is None else f"{value:.3f}"

    history = [rows_of(doc) for doc in docs]
    latest = history[-1] if history else {}
    for key in sorted(latest):
        row = latest[key]
        if row["type"] == "histogram":
            track = [h[key]["p99"] for h in history if h.get(key, {}).get("p99") is not None]
            count = int(row.get("count") or 0)
            mean = (row["sum"] / count) if count else 0.0
            current = (
                f"n={count} mean={mean:.3f} p50={fmt(row.get('p50'))} "
                f"p95={fmt(row.get('p95'))} p99={fmt(row.get('p99'))}"
            )
        else:
            track = [h[key]["value"] for h in history if key in h]
            current = f"{row['value']:.6g}"
        rep.add_row(key, row["type"], current, sparkline(track) or "·")
    span_s = docs[-1]["ts"] - docs[0]["ts"] if len(docs) > 1 else 0.0
    rep.add_note(
        f"{len(docs)} snapshot(s) over {span_s:.1f}s (histogram trend tracks p99)"
    )
    return rep


def build_dashboard(
    registry: Optional[MetricRegistry] = None,
    current: Optional[Mapping[str, Mapping[str, float]]] = None,
    gate_report=None,
    telemetry: Optional[Sequence] = None,
    reports: Sequence[ExperimentReport] = (),
) -> List[ExperimentReport]:
    """Assemble dashboard sections (shared by both output formats).

    One section per baseline area of ``registry`` (and of ``current``),
    then the ``telemetry`` snapshot series (see
    :func:`_telemetry_section`), the given ``reports`` in order — e.g.
    ``AttributionReport.to_experiment_report()``,
    ``NumericsCollector.summary_report()`` or
    ``RunDiff.to_experiment_report()`` — and finally the
    :class:`~repro.obs.regress.RegressionReport` verdicts.
    """
    sections: List[ExperimentReport] = []
    if registry is not None:
        for area in sorted(set(registry.areas()) | set(current or {})):
            sections.append(_area_section(registry, area, (current or {}).get(area)))
    if telemetry is not None:
        sections.append(_telemetry_section(telemetry))
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
