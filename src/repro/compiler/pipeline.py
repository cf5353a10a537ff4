"""The pass manager: ordered execution, validation, instrumentation.

:class:`Pipeline` runs a list of passes over a model with a shared
:class:`~repro.compiler.context.CompileContext` and produces a
:class:`CompileReport`:

* **validation hooks** (``ctx.validate``) — after each pass the model is
  re-run on the probe batch; passes declaring ``preserves_semantics``
  must match the previous output to ``PROBE_ATOL``, NaN for NaN (else
  :class:`PassValidationError`), passes declaring ``preserves_params``
  must leave ``num_parameters()`` unchanged, and every pass gets its
  MAC (FLOP) delta measured via :func:`repro.analysis.flops.probe_forward`.
* **instrumentation** — per-pass wall time, rewrite counts, parameter
  and MAC before/after, and the max probe deviation, all recorded as
  :class:`PassRecord` rows consumable by
  :class:`repro.analysis.report.ExperimentReport`.

Repeated compilations of the same architecture under the same pipeline
spec hit the plan cache (:mod:`repro.compiler.cache`) and skip
re-validation — the hot path in :mod:`repro.experiments` sweeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.context import (
    PROBE_ATOL,
    CompileContext,
    PassResult,
    PassValidationError,
)
from repro.compiler.pass_base import Pass, get_pass
from repro.nn.layers import Module
from repro.obs.tracer import get_tracer


@dataclass
class PassRecord:
    """Instrumentation for one pass in one compilation."""

    name: str
    ran: bool
    wall_time_s: float = 0.0
    rewrites: int = 0
    params_before: Optional[int] = None
    params_after: Optional[int] = None
    macs_before: Optional[int] = None
    macs_after: Optional[int] = None
    probe_max_dev: Optional[float] = None
    validated: bool = False
    notes: str = ""

    @property
    def flop_delta(self) -> Optional[int]:
        """MAC change introduced by this pass (negative = reduction)."""
        if self.macs_before is None or self.macs_after is None:
            return None
        return self.macs_after - self.macs_before

    @property
    def param_delta(self) -> Optional[int]:
        if self.params_before is None or self.params_after is None:
            return None
        return self.params_after - self.params_before


@dataclass
class CompileReport:
    """Structured result of one :meth:`Pipeline.run`."""

    pipeline: str
    signature: str
    records: List[PassRecord] = field(default_factory=list)
    total_time_s: float = 0.0
    cached: bool = False
    validated: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def passes_run(self) -> int:
        return sum(1 for r in self.records if r.ran)

    @property
    def total_rewrites(self) -> int:
        return sum(r.rewrites for r in self.records if r.ran)

    def record_for(self, name: str) -> PassRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(f"no record for pass {name!r}")

    def to_experiment_report(self):
        """Render as a :class:`repro.analysis.report.ExperimentReport`."""
        from repro.analysis.report import ExperimentReport

        rep = ExperimentReport(
            "Compile",
            f"pipeline [{self.pipeline}] on {self.signature[:12]}",
            headers=[
                "pass", "ran", "ms", "rewrites", "Δparams", "ΔMACs", "max|dev|", "validated",
            ],
        )
        for r in self.records:
            rep.add_row(
                r.name,
                "yes" if r.ran else "skip",
                f"{1e3 * r.wall_time_s:.2f}",
                r.rewrites,
                r.param_delta if r.param_delta is not None else "-",
                r.flop_delta if r.flop_delta is not None else "-",
                f"{r.probe_max_dev:.3g}" if r.probe_max_dev is not None else "-",
                "yes" if r.validated else "no",
            )
        rep.add_note(
            f"total {1e3 * self.total_time_s:.1f} ms, "
            f"{self.passes_run} passes ran, {self.total_rewrites} rewrites"
            + (", plan-cache hit (validation skipped)" if self.cached else "")
        )
        for note in self.notes:
            rep.add_note(note)
        return rep

    def summary(self) -> str:
        return self.to_experiment_report().render()


PassLike = Union[Pass, str]


class Pipeline:
    """An ordered list of passes executed with shared context."""

    def __init__(self, passes: Sequence[PassLike], name: str = "pipeline") -> None:
        self.name = name
        self.passes: List[Pass] = [
            p if isinstance(p, Pass) else get_pass(p) for p in passes
        ]

    def spec(self) -> str:
        """Stable spec string — part of the plan-cache key."""
        return " | ".join(p.signature() for p in self.passes)

    def __repr__(self) -> str:
        return f"<Pipeline {self.name}: {self.spec()}>"

    # -- execution -----------------------------------------------------------

    def run(
        self, model: Module, ctx: Optional[CompileContext] = None
    ) -> Tuple[Module, CompileReport]:
        """Run every pass over ``model`` (in place); return it + report."""
        from repro.compiler.cache import PLAN_CACHE, architecture_signature

        ctx = ctx or CompileContext()
        tracer = get_tracer()
        t0 = time.perf_counter()
        signature = architecture_signature(model)
        cache_key = (signature, self.spec(), ctx.cache_key())
        cached = ctx.use_cache and PLAN_CACHE.contains(cache_key)
        validate = ctx.validate and not cached

        report = CompileReport(
            pipeline=self.spec(), signature=signature, cached=cached, validated=validate
        )
        with tracer.span(
            "compile.pipeline",
            category="compiler",
            pipeline=self.name,
            signature=signature[:12],
            cached=cached,
        ) as pipe_span:
            probe, out_before, macs_before = None, None, None
            if validate:
                probe = ctx.probe_batch()
                with tracer.span("compile.probe", category="compiler"):
                    out_before, macs_before = self._try_probe(model, probe, report)
                if out_before is None:
                    probe = None  # model rejects the probe batch: skip functional checks

            for p in self.passes:
                if not p.applies_to(model):
                    report.records.append(
                        PassRecord(p.name, ran=False, notes="not applicable")
                    )
                    continue
                params_before = model.num_parameters() if validate else None
                t_pass = time.perf_counter()
                with tracer.span(f"compile.pass.{p.name}", category="compiler") as pspan:
                    result: PassResult = p.run(model, ctx)
                    pspan.set(rewrites=result.rewrites)
                wall = time.perf_counter() - t_pass
                record = PassRecord(
                    p.name,
                    ran=True,
                    wall_time_s=wall,
                    rewrites=result.rewrites,
                    params_before=params_before,
                    macs_before=macs_before,
                )
                if validate:
                    record.params_after = model.num_parameters()
                    if p.preserves_params and record.params_after != params_before:
                        raise PassValidationError(
                            f"pass {p.name!r} declares parameter invariance but changed "
                            f"num_parameters from {params_before} to {record.params_after}"
                        )
                    if probe is not None:
                        with tracer.span("compile.probe", category="compiler"):
                            out_after, macs_after = self._try_probe(model, probe, report)
                        if out_after is None:
                            probe = None  # stop functional checks from here on
                        else:
                            record.macs_after = macs_after
                            if out_before is not None and out_after.shape == out_before.shape:
                                record.probe_max_dev = float(
                                    np.max(np.abs(out_after - out_before))
                                )
                            if p.preserves_semantics and out_before is not None:
                                # a NaN the pass did not make is not its fault
                                if out_after.shape != out_before.shape or not np.allclose(
                                    out_after, out_before, atol=PROBE_ATOL, equal_nan=True
                                ):
                                    raise PassValidationError(
                                        f"pass {p.name!r} declares semantics preservation "
                                        f"but changed the probe output "
                                        f"(max dev {record.probe_max_dev})"
                                    )
                            out_before, macs_before = out_after, macs_after
                    record.validated = True
                report.records.append(record)

            report.total_time_s = time.perf_counter() - t0
            pipe_span.set(
                passes_run=report.passes_run,
                rewrites=report.total_rewrites,
                validated=validate,
            )
        if validate and ctx.use_cache:
            PLAN_CACHE.add(cache_key)
        return model, report

    @staticmethod
    def _try_probe(model: Module, probe: np.ndarray, report: CompileReport):
        from repro.analysis.flops import probe_forward

        try:
            return probe_forward(model, probe)
        except Exception as exc:  # model/probe shape mismatch etc.
            note = f"probe forward failed ({type(exc).__name__}: {exc}); functional checks skipped"
            if note not in report.notes:
                report.notes.append(note)
            return None, None


def mlcnn_pipeline(
    bits: int = 0,
    sparsity: float = 0.0,
    strict: bool = True,
    probe_divergence: bool = False,
    lower_bits: int = 64,
    overlap: bool = False,
) -> Pipeline:
    """The canonical MLCNN preparation pipeline (Sections III-IV, VII).

    ``set-pooling(avg)`` -> ``reorder`` -> ``fuse`` [-> ``prune``]
    [-> ``quantize(bits)``] [-> ``lower``] — the sequence
    :func:`repro.core.transform.prepare_mlcnn` has always applied, now
    as composable passes.  ``probe_divergence=True`` inserts the
    read-only ``reorder-probe`` validation pass right after
    ``reorder``, quantifying what the reordering changed on the probe
    batch (``ctx.state["reorder_divergence"]``).  ``lower_bits=32``
    appends the ``lower`` pass, which binds the fp32 NHWC kernel to
    every non-overlapping fused layer (inexact vs the f64 probe); at
    the default 64 the fused layers run their own float64 forward.
    ``overlap=True`` lets ``fuse`` take overlapping-pool
    (stride != pool) blocks too.
    """
    if lower_bits not in (32, 64):
        raise ValueError(f"lowering bits must be 32 or 64, got {lower_bits}")
    from repro.compiler.lower import LowerFusedKernelPass
    from repro.compiler.passes import (
        FuseConvPoolPass,
        PrunePass,
        QuantizePass,
        ReorderActivationPoolingPass,
        ReorderDivergenceProbePass,
        SetPoolingPass,
    )

    passes: List[Pass] = [
        SetPoolingPass("avg"),
        ReorderActivationPoolingPass(),
    ]
    if probe_divergence:
        passes.append(ReorderDivergenceProbePass())
    passes.append(FuseConvPoolPass(strict=strict, overlap=overlap))
    if sparsity:
        passes.append(PrunePass(sparsity))
    if bits:
        passes.append(QuantizePass(bits))
    if lower_bits == 32:
        passes.append(LowerFusedKernelPass())
    return Pipeline(passes, name="mlcnn")
