"""Cross-run regression forensics: *what changed, and where*.

:func:`diff_runs` compares two traces (``--obs`` run directories,
JSONL trace files, live tracers, or pre-built
:class:`~repro.obs.attrib.AttributionReport`\\ s).  Every span
identity (layer, compiler pass, simulated layer) becomes one diff
entry with its wall time delta; entries are ranked by absolute delta so
the top entry *is* the localized regression.  Kernel changes (a layer
lowered to a different kernel, or no longer lowered) and ops/bytes
drift are annotated on the entry — the usual root causes travel with
the ranking.  The comparison of benchmark metrics against
the committed baselines is the regression gate's job
(:mod:`repro.obs.regress`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.obs.attrib import AttributionReport, build_attribution
from repro.obs.export import ObsRun
from repro.obs.tracer import Tracer

__all__ = ["DiffEntry", "RunDiff", "diff_runs"]


@dataclass
class DiffEntry:
    """One span identity's change between run A and run B."""

    name: str
    kind: str
    wall_a_us: float
    wall_b_us: float
    count_a: int = 0
    count_b: int = 0
    #: annotations: kernel selection changes, ops/bytes drift, add/remove
    notes: List[str] = field(default_factory=list)

    @property
    def delta_us(self) -> float:
        return self.wall_b_us - self.wall_a_us

    @property
    def delta_rel(self) -> Optional[float]:
        if self.wall_a_us <= 0:
            return None
        return self.delta_us / self.wall_a_us

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "wall_a_us": self.wall_a_us,
            "wall_b_us": self.wall_b_us,
            "delta_us": self.delta_us,
            "delta_rel": self.delta_rel,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "notes": list(self.notes),
        }


@dataclass
class RunDiff:
    """Ranked span-level diff of two runs (B relative to A)."""

    entries: List[DiffEntry] = field(default_factory=list)
    total_a_us: float = 0.0
    total_b_us: float = 0.0
    coverage_a: float = 0.0
    coverage_b: float = 0.0

    @property
    def total_delta_us(self) -> float:
        return self.total_b_us - self.total_a_us

    def top(self, n: int = 10) -> List[DiffEntry]:
        return self.entries[:n]

    @property
    def culprit(self) -> Optional[DiffEntry]:
        """The top-ranked entry — the localized change, if any."""
        return self.entries[0] if self.entries else None

    def to_experiment_report(self, top: int = 15):
        from repro.analysis.report import ExperimentReport

        rep = ExperimentReport(
            "Run diff",
            "per-span wall time change, B vs A, ranked by |delta|",
            headers=["row", "kind", "A ms", "B ms", "delta ms", "delta %", "notes"],
        )
        for e in self.entries[:top]:
            rel = "-" if e.delta_rel is None else f"{100 * e.delta_rel:+.1f}"
            rep.add_row(
                e.name,
                e.kind,
                f"{e.wall_a_us / 1e3:.3f}",
                f"{e.wall_b_us / 1e3:.3f}",
                f"{e.delta_us / 1e3:+.3f}",
                rel,
                "; ".join(e.notes) or "-",
            )
        rep.add_note(
            f"total {self.total_a_us / 1e3:.3f} ms -> {self.total_b_us / 1e3:.3f} ms "
            f"({self.total_delta_us / 1e3:+.3f} ms); "
            f"span coverage A {100 * self.coverage_a:.1f}% / B {100 * self.coverage_b:.1f}%"
        )
        return rep

    def render(self, top: int = 15) -> str:
        return self.to_experiment_report(top=top).render()


def _as_report(run: Union[AttributionReport, Tracer, str]) -> AttributionReport:
    if isinstance(run, AttributionReport):
        return run
    if isinstance(run, str):
        run = ObsRun.trace_path(run)
    return build_attribution(run)


def diff_runs(
    a: Union[AttributionReport, Tracer, str],
    b: Union[AttributionReport, Tracer, str],
    min_delta_us: float = 0.0,
) -> RunDiff:
    """Rank every span identity by how much its wall time moved A→B.

    ``a`` and ``b`` may each be an ``--obs`` run directory, a JSONL
    trace path, a live tracer, or a pre-built attribution report.  Rows present in only one run are
    kept (noted ``added``/``removed``) — a span that vanishes is
    exactly the kind of change forensics must surface.
    """
    ra, rb = _as_report(a), _as_report(b)
    rows_a = {r.name: r for r in ra.rows}
    rows_b = {r.name: r for r in rb.rows}
    entries: List[DiffEntry] = []
    for name in sorted(set(rows_a) | set(rows_b)):
        row_a, row_b = rows_a.get(name), rows_b.get(name)
        any_row = row_b or row_a
        entry = DiffEntry(
            name=name,
            kind=any_row.kind,
            wall_a_us=row_a.wall_us if row_a else 0.0,
            wall_b_us=row_b.wall_us if row_b else 0.0,
            count_a=row_a.count if row_a else 0,
            count_b=row_b.count if row_b else 0,
        )
        if row_a is None:
            entry.notes.append("added in B")
        elif row_b is None:
            entry.notes.append("removed in B")
        else:
            if row_a.kernel != row_b.kernel and (row_a.kernel or row_b.kernel):
                entry.notes.append(
                    f"kernel {row_a.kernel or 'none'} -> {row_b.kernel or 'none'}"
                )
            for label, va, vb in (
                ("ops", row_a.ops, row_b.ops),
                ("bytes", row_a.bytes_moved, row_b.bytes_moved),
            ):
                if va and vb and abs(vb - va) > 0.01 * va:
                    entry.notes.append(f"{label} x{vb / va:.2f}")
            if row_a.count != row_b.count:
                entry.notes.append(f"count {row_a.count} -> {row_b.count}")
        if abs(entry.delta_us) >= min_delta_us or entry.notes:
            entries.append(entry)
    # Compiled kernel-plan changes (from ``compile.plan`` events) cover
    # modules the instrumented spans may not — annotate the matching
    # span entry, or surface a zero-wall entry so the change is never
    # silent.
    for path in sorted(set(ra.kernel_plan) | set(rb.kernel_plan)):
        ka, kb = ra.kernel_plan.get(path), rb.kernel_plan.get(path)
        if ka == kb:
            continue
        note = f"plan kernel {ka or 'none'} -> {kb or 'none'}"
        # whole dotted segments: features.1 is not features.10
        span_name = f"{path}.forward"
        target = next(
            (e for e in entries if e.name == span_name or e.name.endswith("." + span_name)),
            None,
        )
        if target is not None:
            if not any(n.startswith("kernel") or n.startswith("plan kernel") for n in target.notes):
                target.notes.append(note)
        else:
            entries.append(
                DiffEntry(name=f"plan.{path}", kind="pass", wall_a_us=0.0,
                          wall_b_us=0.0, notes=[note])
            )
    entries.sort(key=lambda e: (-abs(e.delta_us), e.name))
    return RunDiff(
        entries=entries,
        total_a_us=ra.total_us,
        total_b_us=rb.total_us,
        coverage_a=ra.span_coverage,
        coverage_b=rb.span_coverage,
    )
