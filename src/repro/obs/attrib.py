"""Roofline attribution: join spans + counters + the accel model.

The repo *collects* everything — tracer spans (measured wall time),
measured :class:`~repro.nn.counters.OpCounters` (ops and bytes), the
accelerator simulator's per-layer cycle/energy events — but none of it
is joined.  This module is the join: one
:class:`AttributionReport` per run, with a per-layer/per-kernel table
of

* **measured wall time** (total and self time),
* **ops and bytes** (measured counters attached to leaf spans by
  :func:`~repro.obs.instrument.instrument_model` with
  ``counters=True``; every kernel records what it performs, so there
  is no analytic fallback),
* **arithmetic intensity** (FLOPs/byte) and **attained vs attainable
  FLOP/s** against the host's measured roofline
  (:mod:`repro.obs.roofline`), classifying each row compute- or
  memory-bound — the ops-vs-bytes view that says which MLCNN lever
  (multiply elimination vs data-movement reuse) each layer needs,
* the simulator's modeled layers (``sim.layer`` events) as their own
  rows, bound-classified by the accel model's own compute/memory roofs.

Coverage is itself a metric: ``span_coverage`` is the fraction of the
root spans' wall time explained by their descendants (a parent is
explained by the sum of its children, capped at its own duration; a
leaf explains itself), and ``unexplained_us`` is the residual.  A
tracing gap — a lost child span, an uninstrumented subsystem — shows
up as coverage loss instead of silently vanishing.

The engine is trace-driven: it accepts a live
:class:`~repro.obs.tracer.Tracer`, a JSONL trace file written by
:func:`repro.obs.export.write_jsonl`, or an iterable of recorded
:class:`~repro.obs.tracer.SpanEvent`\\ s or already-parsed event
dicts — which is what makes cross-run forensics
(:mod:`repro.obs.forensics`) a diff of two of these tables.  The same
sources feed :func:`epoch_batch_ms`, the per-epoch batch wall times of
the :class:`~repro.train.Trainer`'s spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.roofline import Roofline
from repro.obs.tracer import SpanEvent, Tracer

__all__ = [
    "AttribRow",
    "AttributionReport",
    "normalize_events",
    "build_attribution",
    "attribute_model_run",
    "instrumented_run",
    "epoch_batch_ms",
]

#: span categories -> row kind (the localization axis forensics ranks on)
_KIND_BY_CATEGORY = {
    "nn": "layer",
    "compiler": "pass",
    "accel": "sim",
    "train": "train",
    "experiments": "experiment",
    "obs": "obs",
}

#: tolerance for interval containment when rebuilding the span tree
_EPS_US = 0.5


def _counters_ops(counters: Mapping[str, float]) -> float:
    """Executed FLOPs implied by one measured counter set.

    Counted executors report multiplications and additions separately;
    the GEMM kernels (``conv2d``, ``linear`` and the fused float kernels)
    report only the multiplications they perform (the paired
    accumulate-adds are implicit), so a mult-only set counts 2 FLOPs per
    multiplication.
    """
    mults = float(counters.get("mults", 0))
    adds = float(
        counters.get("half_additions", 0)
        + counters.get("full_additions", 0)
        + counters.get("major_additions", 0)
        + counters.get("bias_additions", 0)
    )
    if mults and not adds:
        return 2.0 * mults
    return mults + adds


def _event_row(ev: SpanEvent) -> Dict[str, Any]:
    return {
        "type": "span" if ev.is_span else "instant",
        "name": ev.name,
        "ts_us": ev.ts_us,
        "dur_us": ev.dur_us,
        "tid": ev.tid,
        "depth": ev.depth,
        "parent": ev.parent,
        "cat": ev.category,
        "attrs": dict(ev.attrs),
    }


def normalize_events(
    source: Union[Tracer, str, Iterable[Union[SpanEvent, Mapping[str, Any]]]],
) -> List[Dict[str, Any]]:
    """Event dicts (span/instant rows) from any supported trace source.

    Accepts a :class:`Tracer`, a path to a JSONL trace, or an iterable
    of :class:`SpanEvent`\\ s or already-parsed rows; rows of any other
    type are dropped.  Returns rows shaped like the JSONL exporter's
    output.
    """
    if isinstance(source, Tracer):
        source = source.events
    if isinstance(source, str):
        rows = []
        with open(source) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{source}:{lineno}: invalid JSON: {exc}") from exc
                if row.get("type") in ("span", "instant"):
                    rows.append(row)
        return rows
    rows = [_event_row(r) if isinstance(r, SpanEvent) else dict(r) for r in source]
    return [r for r in rows if r.get("type") in ("span", "instant")]


class _Node:
    """One span occurrence in the reconstructed call tree."""

    __slots__ = ("row", "children", "instants")

    def __init__(self, row: Dict[str, Any]) -> None:
        self.row = row
        self.children: List["_Node"] = []
        self.instants: List[Dict[str, Any]] = []

    @property
    def dur_us(self) -> float:
        return float(self.row.get("dur_us") or 0.0)

    @property
    def ts_us(self) -> float:
        return float(self.row.get("ts_us") or 0.0)

    @property
    def end_us(self) -> float:
        return self.ts_us + self.dur_us


def _build_forest(rows: Sequence[Mapping[str, Any]]) -> List[_Node]:
    """Rebuild the span tree per thread by interval containment.

    The tracer records spans in *completion* order; sorting by start
    time (longer spans first on ties) lets a single stack sweep assign
    every span to its tightest enclosing parent.  Instant events attach
    to the deepest span covering their timestamp.
    """
    forest: List[_Node] = []
    by_tid: Dict[Any, List[Dict[str, Any]]] = {}
    for row in rows:
        by_tid.setdefault(row.get("tid"), []).append(dict(row))
    for tid_rows in by_tid.values():
        spans = [r for r in tid_rows if r["type"] == "span"]
        instants = [r for r in tid_rows if r["type"] == "instant"]
        spans.sort(key=lambda r: (float(r.get("ts_us") or 0.0), -float(r.get("dur_us") or 0.0)))
        stack: List[_Node] = []
        roots: List[_Node] = []
        for row in spans:
            node = _Node(row)
            while stack and not (
                node.ts_us >= stack[-1].ts_us - _EPS_US
                and node.end_us <= stack[-1].end_us + _EPS_US
            ):
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)

        def _attach_instant(nodes: List[_Node], row: Mapping[str, Any]) -> bool:
            ts = float(row.get("ts_us") or 0.0)
            for node in nodes:
                if node.ts_us - _EPS_US <= ts <= node.end_us + _EPS_US:
                    if not _attach_instant(node.children, row):
                        node.instants.append(dict(row))
                    return True
            return False

        for row in instants:
            _attach_instant(roots, row)
        forest.extend(roots)
    return forest


def epoch_batch_ms(
    source: Union[Tracer, str, Iterable[Union[SpanEvent, Mapping[str, Any]]]],
) -> List[Tuple[Dict[str, Any], List[float]]]:
    """Each ``train.epoch`` span's attrs with its batches' wall times (ms).

    A batch runs from the end of the previous ``train.batch`` span of
    its epoch (the epoch span's start, for the first batch) to the end
    of its own, so the data-loader wait counts.  A batch belongs to the
    epoch span of its own thread that contains it.  ``source`` is
    anything :func:`normalize_events` reads; epochs come in start order.
    """
    epochs: List[_Node] = []
    nodes = _build_forest(normalize_events(source))
    while nodes:
        node = nodes.pop()
        if node.row.get("name") == "train.epoch":
            epochs.append(node)
        else:
            nodes.extend(node.children)
    out = []
    for epoch in sorted(epochs, key=lambda n: n.ts_us):
        prev_end, batch_ms = epoch.ts_us, []
        for child in epoch.children:
            if child.row.get("name") == "train.batch":
                batch_ms.append((child.end_us - prev_end) / 1e3)
                prev_end = child.end_us
        out.append((dict(epoch.row.get("attrs") or {}), batch_ms))
    return out


def _attributed_us(node: _Node) -> float:
    """Wall time of ``node`` explained by measured work.

    A leaf explains its whole duration; an inner span is explained by
    the sum of its children, capped at its own duration (concurrent
    children recorded from other threads may sum past the parent they
    overlap inside).
    """
    if not node.children:
        return node.dur_us
    return min(node.dur_us, sum(_attributed_us(c) for c in node.children))


@dataclass
class AttribRow:
    """Aggregated attribution for one span identity (one name)."""

    name: str
    kind: str
    count: int = 0
    #: total measured wall time across occurrences
    wall_us: float = 0.0
    #: wall time not inside child spans (the row's own work)
    self_us: float = 0.0
    #: executed FLOPs (from measured counters)
    ops: Optional[float] = None
    #: bytes moved (leaf ``bytes_io`` estimate, or simulator DRAM bytes)
    bytes_moved: Optional[float] = None
    #: kernel name(s) that executed under this span, if lowered
    kernel: Optional[str] = None
    #: accel-model cycles (simulator rows only)
    cycles: Optional[float] = None
    energy_j: Optional[float] = None
    #: bound classification: host roofline for measured rows, the accel
    #: model's own compute/memory comparison for simulator rows
    bound: Optional[str] = None
    intensity: Optional[float] = None
    attained_flops: Optional[float] = None
    attained_fraction: Optional[float] = None

    def finish(self, roofline: Optional[Roofline]) -> None:
        """Derive the roofline columns once accumulation is complete."""
        if self.ops and self.bytes_moved:
            self.intensity = self.ops / self.bytes_moved
        if self.kind == "sim":
            return  # bound comes from the accel model's own roofs
        if self.ops and self.wall_us > 0:
            self.attained_flops = self.ops / (self.wall_us * 1e-6)
        if roofline is not None and self.intensity and self.attained_flops:
            self.bound = roofline.classify(self.intensity)
            self.attained_fraction = roofline.attained_fraction(
                self.attained_flops, self.intensity
            )

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"name": self.name, "kind": self.kind, "count": self.count}
        for key in (
            "wall_us",
            "self_us",
            "ops",
            "bytes_moved",
            "kernel",
            "cycles",
            "energy_j",
            "bound",
            "intensity",
            "attained_flops",
            "attained_fraction",
        ):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc


def _accumulate(
    rows: Dict[str, AttribRow], node: _Node
) -> None:
    row_doc = node.row
    name = str(row_doc.get("name"))
    kind = _KIND_BY_CATEGORY.get(str(row_doc.get("cat") or ""), "other")
    row = rows.get(name)
    if row is None:
        row = rows[name] = AttribRow(name=name, kind=kind)
    row.count += 1
    row.wall_us += node.dur_us
    row.self_us += max(0.0, node.dur_us - sum(c.dur_us for c in node.children))
    attrs = row_doc.get("attrs") or {}
    counters = attrs.get("counters")
    if isinstance(counters, Mapping):
        ops = _counters_ops(counters)
        if ops:
            row.ops = (row.ops or 0.0) + ops
    bytes_io = attrs.get("bytes_io")
    if isinstance(counters, Mapping) and counters.get("dram_bytes"):
        bytes_io = counters["dram_bytes"]
    if bytes_io:
        row.bytes_moved = (row.bytes_moved or 0.0) + float(bytes_io)
    kern = attrs.get("kernel")
    if kern:
        row.kernel = str(kern) if row.kernel in (None, str(kern)) else f"{row.kernel}+{kern}"
    for child in node.children:
        _accumulate(rows, child)


def _sim_rows(rows: Sequence[Mapping[str, Any]]) -> List[AttribRow]:
    """One row per simulated layer from ``sim.layer`` events."""
    out: Dict[str, AttribRow] = {}
    for ev in rows:
        if ev.get("name") != "sim.layer":
            continue
        attrs = ev.get("attrs") or {}
        name = f"sim.layer.{attrs.get('layer', '?')}"
        row = out.get(name)
        if row is None:
            row = out[name] = AttribRow(name=name, kind="sim")
        row.count += 1
        row.ops = (row.ops or 0.0) + float(
            attrs.get("multiplications", 0)
            + attrs.get("additions", 0)
            + attrs.get("preprocessing_additions", 0)
        )
        row.bytes_moved = (row.bytes_moved or 0.0) + float(attrs.get("dram_bytes", 0))
        row.cycles = (row.cycles or 0.0) + float(attrs.get("cycles", 0))
        row.energy_j = (row.energy_j or 0.0) + float(attrs.get("energy_total_j", 0))
        row.bound = str(attrs.get("bound")) if attrs.get("bound") else row.bound
    return list(out.values())


@dataclass
class AttributionReport:
    """The joined per-layer/per-kernel attribution of one run."""

    rows: List[AttribRow] = field(default_factory=list)
    total_us: float = 0.0
    attributed_us: float = 0.0
    roofline: Optional[Roofline] = None
    roots: List[str] = field(default_factory=list)
    #: module path -> selected kernel name, from ``compile.plan`` events
    kernel_plan: Dict[str, str] = field(default_factory=dict)

    @property
    def span_coverage(self) -> float:
        """Fraction of root wall time explained by descendants (0-1)."""
        if self.total_us <= 0:
            return 0.0
        return min(1.0, self.attributed_us / self.total_us)

    @property
    def unexplained_us(self) -> float:
        """Root wall time no measured span accounts for."""
        return max(0.0, self.total_us - self.attributed_us)

    def row(self, name: str) -> AttribRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(f"no attribution row named {name!r}")

    def layer_rows(self) -> List[AttribRow]:
        return [r for r in self.rows if r.kind == "layer"]

    def attained_fraction(self) -> Optional[float]:
        """Wall-weighted mean roofline fraction over classified rows."""
        pairs = [
            (r.wall_us, r.attained_fraction)
            for r in self.rows
            if r.attained_fraction is not None and r.wall_us > 0
        ]
        total = sum(w for w, _ in pairs)
        if not total:
            return None
        return sum(w * f for w, f in pairs) / total

    def metrics(self) -> Dict[str, float]:
        """Headline numbers in regression-gate shape (``attrib.*``)."""
        out = {
            "span_coverage": self.span_coverage,
            "unexplained_fraction": 1.0 - self.span_coverage,
        }
        frac = self.attained_fraction()
        if frac is not None:
            out["attained_fraction"] = frac
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total_us": self.total_us,
            "attributed_us": self.attributed_us,
            "span_coverage": self.span_coverage,
            "unexplained_us": self.unexplained_us,
            "roots": list(self.roots),
            "kernel_plan": dict(self.kernel_plan),
            "roofline": self.roofline.as_dict() if self.roofline else None,
            "rows": [r.as_dict() for r in self.rows],
        }

    def to_jsonl(self, **tags: Any) -> str:
        """A summary row, then one JSON row per attribution row; every
        row carries ``tags`` (e.g. ``model="lenet5"``)."""
        summary = {k: v for k, v in self.as_dict().items() if k != "rows"}
        lines = [json.dumps({"type": "attrib_summary", **tags, **summary})]
        lines.extend(
            json.dumps({"type": "attrib_row", **tags, **r.as_dict()}) for r in self.rows
        )
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns the row count."""
        text = self.to_jsonl()
        with open(path, "w") as fh:
            fh.write(text)
        return text.count("\n")

    def to_experiment_report(self, top: int = 20):
        """Render as the standard experiment table."""
        from repro.analysis.report import ExperimentReport

        rep = ExperimentReport(
            "Attribution",
            "per-layer/per-kernel roofline attribution (top rows by wall time)",
            headers=[
                "row", "kind", "n", "wall ms", "self ms",
                "MFLOPs", "MB", "FLOP/B", "GFLOP/s", "%roof", "bound",
            ],
        )

        def fmt(x: Optional[float], scale: float, digits: int = 2) -> str:
            return "-" if x is None else f"{x / scale:.{digits}f}"

        ranked = sorted(self.rows, key=lambda r: (-r.wall_us, r.name))[:top]
        for r in ranked:
            rep.add_row(
                r.name,
                r.kind,
                r.count,
                f"{r.wall_us / 1e3:.3f}",
                f"{r.self_us / 1e3:.3f}",
                fmt(r.ops, 1e6),
                fmt(r.bytes_moved, 1e6),
                fmt(r.intensity, 1.0),
                fmt(r.attained_flops, 1e9, 3),
                "-" if r.attained_fraction is None else f"{100 * r.attained_fraction:.1f}",
                r.bound or "-",
            )
        rep.add_note(
            f"span coverage {100 * self.span_coverage:.1f}% "
            f"({self.total_us / 1e3:.3f} ms total, "
            f"{self.unexplained_us / 1e3:.3f} ms unexplained) "
            f"over root(s): {', '.join(self.roots) or 'none'}"
        )
        if self.roofline is not None:
            rl = self.roofline
            rep.add_note(
                f"host roofline: peak {rl.peak_flops / 1e9:.2f} GFLOP/s, "
                f"stream {rl.stream_bandwidth / 1e9:.2f} GB/s, "
                f"ridge {rl.ridge_intensity:.2f} FLOP/B"
            )
        sims = [r for r in self.rows if r.kind == "sim"]
        if sims:
            n_mem = sum(1 for r in sims if r.bound == "memory")
            rep.add_note(
                f"accel model: {len(sims)} simulated layer(s), "
                f"{n_mem} memory-bound / {len(sims) - n_mem} compute-bound"
            )
        return rep

    def render(self, top: int = 20) -> str:
        return self.to_experiment_report(top=top).render()


def build_attribution(
    source: Union[Tracer, str, Iterable[Union[SpanEvent, Mapping[str, Any]]]],
    roofline: Optional[Roofline] = None,
    root: Optional[str] = None,
) -> AttributionReport:
    """Join a trace into an :class:`AttributionReport`.

    ``root`` restricts coverage accounting (and row accumulation) to
    top-level spans whose name starts with it — e.g. ``"lenet5"`` for
    just the instrumented forward; default is every top-level span.
    An empty or span-free trace yields an empty report with
    ``span_coverage == 0`` rather than raising: a disabled tracer
    degrades the metric, not the tooling.
    """
    rows = normalize_events(source)
    forest = _build_forest(rows)
    if root is not None:
        forest = [n for n in forest if str(n.row.get("name", "")).startswith(root)]
    report = AttributionReport(roofline=roofline)
    agg: Dict[str, AttribRow] = {}
    for node in forest:
        report.total_us += node.dur_us
        report.attributed_us += _attributed_us(node)
        if node.row.get("name") not in report.roots:
            report.roots.append(str(node.row.get("name")))
        _accumulate(agg, node)
    report.rows = list(agg.values())
    report.rows.extend(_sim_rows(rows))
    for ev in rows:
        if ev.get("name") == "compile.plan":
            kernels = (ev.get("attrs") or {}).get("kernels") or {}
            report.kernel_plan.update({str(k): str(v) for k, v in kernels.items()})
    for row in report.rows:
        row.finish(roofline)
    report.rows.sort(key=lambda r: (-r.wall_us, r.name))
    return report


def instrumented_run(model_name: str, model, x, simulate: bool = True) -> None:
    """Instrument ``model``, run one eval forward on ``x``, simulate it.

    The three steps behind both ``--pipeline`` under ``--obs`` and
    :func:`attribute_model_run`: per-layer spans with measured counters
    (:func:`~repro.obs.instrument.instrument_model` with
    ``counters=True``), one gradient-free forward of the array ``x``,
    and, with ``simulate``, the accelerator simulation of
    ``model_name``'s layer specs on ``mlcnn-fp32``.  A model without
    analytic layer specs skips the simulation.
    """
    from repro.obs.instrument import instrument_model
    from repro.nn.tensor import Tensor, no_grad

    instrument_model(model, prefix=model_name, counters=True)
    model.eval()
    with no_grad():
        model(Tensor(x))
    if not simulate:
        return
    from repro.accel import get_config, simulate_network
    from repro.models import specs as model_specs

    try:
        layer_specs = model_specs.get_specs(model_name)
    except (KeyError, ValueError):
        return  # no analytic layer specs for this model
    simulate_network(layer_specs, get_config("mlcnn-fp32"))


def attribute_model_run(
    model_name: str,
    bits: int = 0,
    batch: int = 8,
    roofline: Optional[Roofline] = None,
    simulate: bool = True,
    seed: int = 0,
    root: Optional[str] = None,
) -> AttributionReport:
    """One-call unified attribution: compile, run, simulate, join.

    Compiles ``model_name`` through the canonical MLCNN pipeline
    (compiler-pass spans), instruments it with per-layer counter
    collection, runs one inference batch, optionally simulates the
    model's layer specs on the accelerator model, and returns the
    joined report.  Records into the process-wide tracer (enabled for
    the call if it was off) without clearing it, and attributes only
    the events this call recorded — so several runs under one
    ``--obs`` run directory keep every model's spans.
    """
    import numpy as np

    from repro.compiler import mlcnn_pipeline
    from repro.models import build_model
    from repro.obs.tracer import get_tracer

    model = build_model(model_name)
    tracer = get_tracer()
    was_enabled = tracer.enabled
    first = len(tracer.events)
    tracer.enable()
    try:
        mlcnn_pipeline(bits=bits, strict=False).run(model)
        x = np.random.default_rng(seed).normal(size=(batch, 3, 32, 32))
        instrumented_run(model_name, model, x, simulate=simulate)
    finally:
        tracer.enabled = was_enabled
    return build_attribution(tracer.events[first:], roofline=roofline, root=root)
