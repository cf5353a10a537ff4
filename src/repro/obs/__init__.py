"""Observability: spans, scalar series, op counters and their reports.

Three instruments check the paper's claims: spans (where time goes —
the process-wide :class:`Tracer` that the compiler pipeline, the
:class:`~repro.train.Trainer`, the accelerator simulator and
instrumented ``Module`` trees report into), measured op counters
(:class:`OpCounters`, recorded by every kernel as it runs; defined in
:mod:`repro.nn.counters` so the kernels need not import this package),
and the accelerator model.  Spans carry the scalars of the work they
time: a ``train.epoch`` span its epoch's loss, top-1 and throughput,
so one trace is the whole training record (:func:`epoch_batch_ms`
reads its batch wall times).  All are disabled by default and
near-free while off.

One switch turns everything on: :class:`ObsRun` (``--obs DIR`` on the
CLI) enables the tracer and the sampling profiler, and writes one run
directory — ``trace.jsonl``, ``trace.json`` (Chrome), ``profile.txt``,
``flamegraph.html``, ``attrib.jsonl`` and ``dashboard.html``::

    from repro import obs

    with obs.ObsRun("run") as run:
        ...                               # compile / train / simulate
    print(run.attribution.render())       # where the time went

or from the CLI::

    python -m repro.experiments --pipeline lenet5 --bits 8 --obs run

On top of collection sits the analysis layer: the attribution engine
(:func:`build_attribution` / :func:`attribute_model_run` — join the
span tree the tracer recorded with measured op counters: wall and self
time, FLOPs, bytes, arithmetic intensity and FLOP/s per layer),
cross-run forensics (:func:`diff_runs` — a ranked "what changed" report
localizing a regression to a layer, pass or kernel) and the regression
gate (:func:`gate_metrics` — every benchmark metric against the
committed baselines)::

    python -m repro.experiments --attrib lenet5
    python -m repro.experiments --diff-trace run_a run_b
"""

from repro.nn.counters import OpCounters, collect_counters, get_recorder
from repro.obs.attrib import (
    AttributionReport,
    attribute_model_run,
    build_attribution,
    epoch_batch_ms,
)
from repro.obs.dashboard import write_dashboard
from repro.obs.forensics import RunDiff, diff_runs
from repro.obs.export import (
    ObsRun,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.instrument import deinstrument_model, instrument_model
from repro.obs.numerics import (
    NumericsCollector,
    NumericsError,
    record_quant_event,
    reorder_divergence,
)
from repro.obs.metrics import MetricRegistry, RunRecord, provenance
from repro.obs.regress import (
    RegressionReport,
    TolerancePolicy,
    Verdict,
    gate_jsonl,
    gate_metrics,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.tracer import SpanEvent, Tracer, event, get_tracer, span

__all__ = [
    "AttributionReport",
    "MetricRegistry",
    "NumericsCollector",
    "NumericsError",
    "ObsRun",
    "OpCounters",
    "RegressionReport",
    "RunDiff",
    "RunRecord",
    "SamplingProfiler",
    "SpanEvent",
    "TolerancePolicy",
    "Tracer",
    "Verdict",
    "attribute_model_run",
    "build_attribution",
    "collect_counters",
    "deinstrument_model",
    "diff_runs",
    "epoch_batch_ms",
    "event",
    "gate_jsonl",
    "gate_metrics",
    "get_recorder",
    "get_tracer",
    "instrument_model",
    "provenance",
    "record_quant_event",
    "reorder_divergence",
    "span",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_dashboard",
    "write_jsonl",
]
