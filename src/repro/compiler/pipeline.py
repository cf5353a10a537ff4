"""The pass manager: ordered execution, validation, instrumentation.

:class:`Pipeline` runs a list of passes over a model with a shared
:class:`~repro.compiler.context.CompileContext` and produces a
:class:`CompileReport`:

* **validation hooks** — after each pass the model is re-run on the
  probe batch; passes declaring ``preserves_semantics`` must match the
  previous output to ``PROBE_ATOL``, NaN for NaN, passes declaring
  ``preserves_params`` must leave ``num_parameters()`` unchanged, and a
  pass after which the probe forward raises, where it ran before, broke
  the model; each violation raises :class:`PassValidationError`.  Every
  pass gets its MAC (FLOP) delta measured via
  :func:`repro.analysis.flops.probe_forward`.
* **instrumentation** — per-pass wall time, rewrite counts, parameter
  and MAC before/after, and the max probe deviation, all recorded as
  :class:`PassRecord` rows consumable by
  :class:`repro.analysis.report.ExperimentReport`.

A compilation of an architecture that the same pipeline, with the same
probe seed, already validated hits the plan cache
(:mod:`repro.compiler.cache`) and skips re-validation.

Two pipelines are built here: :func:`mlcnn_pipeline`, the paper's
rewrite sequence, and :func:`numerics_pipeline`, the numerics audit's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.context import (
    PROBE_ATOL,
    CompileContext,
    PassResult,
    PassValidationError,
)
from repro.compiler.cache import PLAN_CACHE, architecture_signature
from repro.compiler.lower import LowerFusedKernelPass
from repro.compiler.pass_base import Pass
from repro.compiler.passes import (
    FuseConvPoolPass,
    QuantizePass,
    ReorderActivationPoolingPass,
    ReorderDivergenceProbePass,
    SetPoolingPass,
)
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


class Pipeline:
    """An ordered list of pass instances executed with shared context."""

    def __init__(self, passes: Sequence[Pass], name: str = "pipeline") -> None:
        for p in passes:
            if not isinstance(p, Pass):
                raise TypeError(f"pipeline entries must be Pass instances, got {p!r}")
        self.name = name
        self.passes: List[Pass] = list(passes)

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
        ctx = ctx or CompileContext()
        tracer = get_tracer()
        t0 = time.perf_counter()
        signature = architecture_signature(model)
        cache_key = (signature, self.spec(), ctx.seed)
        cached = cache_key in PLAN_CACHE
        validate = not cached

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
            out_before, macs_before = None, None
            if validate:
                try:
                    out_before, macs_before = _probe(model, ctx)
                except Exception as exc:  # model/probe shape mismatch etc.
                    report.notes.append(
                        f"probe forward failed ({type(exc).__name__}: {exc}); "
                        "functional checks skipped"
                    )

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
                    if out_before is not None:
                        try:
                            out_after, record.macs_after = _probe(model, ctx)
                        except Exception as exc:
                            raise PassValidationError(
                                f"pass {p.name!r} broke the probe forward that ran "
                                f"before it ({type(exc).__name__}: {exc})"
                            ) from exc
                        same_shape = out_after.shape == out_before.shape
                        if same_shape:
                            record.probe_max_dev = float(
                                np.max(np.abs(out_after - out_before))
                            )
                        # a NaN the pass did not make is not its fault
                        if p.preserves_semantics and not (
                            same_shape
                            and np.allclose(
                                out_after, out_before, atol=PROBE_ATOL, equal_nan=True
                            )
                        ):
                            raise PassValidationError(
                                f"pass {p.name!r} declares semantics preservation "
                                f"but changed the probe output "
                                f"(max dev {record.probe_max_dev})"
                            )
                        out_before, macs_before = out_after, record.macs_after
                    record.validated = True
                report.records.append(record)

            report.total_time_s = time.perf_counter() - t0
            pipe_span.set(
                passes_run=report.passes_run,
                rewrites=report.total_rewrites,
                validated=validate,
            )
        if validate:
            PLAN_CACHE.add(cache_key)
        return model, report


def _probe(model: Module, ctx: CompileContext):
    """``(output, macs)`` of one traced probe-batch forward."""
    from repro.analysis.flops import probe_forward

    with get_tracer().span("compile.probe", category="compiler"):
        return probe_forward(model, ctx.probe_batch())


def mlcnn_pipeline(bits: int = 0, strict: bool = True, lower_bits: int = 64) -> Pipeline:
    """The MLCNN compile (Sections III-IV, VII).

    ``set-pooling(avg)`` -> ``reorder`` -> ``fuse(strict)``
    [-> ``quantize(bits)``] [-> ``lower``].  ``bits=0`` quantizes
    nothing.  ``lower_bits=32`` appends the ``lower`` pass, which casts
    the model to float32 and binds the fp32 NHWC kernel to every
    non-overlapping fused layer and stride-1 conv (inexact vs the f64
    probe); every other layer then runs its own forward in float32.  At
    the default 64 the model stays float64 and every layer runs its own
    float64 forward.

    For average pooling the reorder changes outputs slightly (Jensen),
    so a model trained in the original order should be fine-tuned after
    compiling; one trained in the reordered form is unchanged by fusion.
    """
    if lower_bits not in (32, 64):
        raise ValueError(f"lowering bits must be 32 or 64, got {lower_bits}")
    passes: List[Pass] = [
        SetPoolingPass(),
        ReorderActivationPoolingPass(),
        FuseConvPoolPass(strict=strict),
    ]
    if bits:
        passes.append(QuantizePass(bits))
    if lower_bits == 32:
        passes.append(LowerFusedKernelPass())
    return Pipeline(passes, name="mlcnn")


def numerics_pipeline(bits: int) -> Pipeline:
    """The numerics audit's compile.

    ``set-pooling(avg)`` -> ``reorder`` -> ``reorder-probe`` ->
    ``quantize(bits)``, with no ``fuse``: a fused block cannot be
    DoReFa-wrapped, and the audit measures quantization health and
    the reorder divergence, not speed.  The divergence lands in
    ``ctx.state["reorder_divergence"]``.
    """
    return Pipeline(
        [
            SetPoolingPass(),
            ReorderActivationPoolingPass(),
            ReorderDivergenceProbePass(),
            QuantizePass(bits),
        ],
        name="numerics",
    )
