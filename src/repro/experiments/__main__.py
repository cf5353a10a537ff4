"""Run every reproduction experiment from the command line.

Usage::

    python -m repro.experiments                # analytic + accelerator
    python -m repro.experiments --accuracy     # include training runs
    python -m repro.experiments --only table2 fig13
    python -m repro.experiments --list         # print experiment names
    python -m repro.experiments --pipeline lenet5 --bits 8 --report
    python -m repro.experiments --only fig4 --obs run   # record everything
    python -m repro.experiments --bench-compare metrics.jsonl \\
        --bench-dashboard dashboard.md   # perf regression gate (CI)

``--obs DIR`` is the one observability switch
(:class:`repro.obs.ObsRun`).  In every run mode (suite, ``--pipeline``,
``--numerics``, ``--attrib``) it turns on the tracer and the sampling
profiler, writes ``trace.jsonl``, ``trace.json`` (Chrome trace-event
format, open in Perfetto), ``profile.txt``, ``flamegraph.html``,
``attrib.jsonl`` and ``dashboard.html`` into DIR, and prints the run's
attribution table.  A training run's trace also holds every epoch's
loss, top-1 and throughput, shown as the dashboard's Training table.
With ``--pipeline`` the run adds an instrumented forward and an
accelerator simulation to the compile, so one trace holds compiler
passes, layers and simulated layers.

``--bench-compare`` feeds a benchmark run's ``--metrics-jsonl`` file
through the tolerance-policy regression gate (:mod:`repro.obs.regress`)
against the committed ``BENCH_<area>.json`` baselines and exits
non-zero on regression; ``--bench-update`` intentionally refreshes the
baselines, and ``--bench-dashboard`` renders the trend dashboard.

``--attrib [MODEL ...]`` (default: lenet5 vgg16) runs the roofline
attribution engine (:mod:`repro.obs.attrib`): compile + instrumented
forward + accelerator simulation under the tracer, joined with measured
op counters against this host's calibrated roofline
(:mod:`repro.obs.roofline`), printed as a per-layer/per-kernel table
with span-coverage accounting.  With ``--obs`` each model's rows land in
``attrib.jsonl`` tagged with ``model``.

``--diff-trace A B`` is cross-run forensics (:mod:`repro.obs.forensics`):
attribute two traces (``--obs`` run directories or JSONL trace files)
and print the ranked "what changed" report — per-span wall deltas,
kernel selection changes, ops/bytes drift.

``--numerics [MODEL ...]`` (default: lenet5 vgg16) compiles each model
through the MLCNN pipeline with the reorder-divergence probe, runs an
instrumented forward+backward on the probe batch, and prints the
numerics health report — per-layer DoReFa clip/saturation rates, the
measured reorder divergence and the NaN/inf watchdog's verdict.
``--bits`` selects the quantization width (default 8); with ``--obs``
the report lands in ``numerics.jsonl``, each row tagged with ``model``
and ``bits``::

    python -m repro.experiments --numerics lenet5 --bits 4 --obs run
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro import obs

from repro.experiments import (
    ablation_reuse,
    extension_resnet18,
    related_fused_layer,
    extension_pruning,
    equation_limits,
    fig3_reordering_accuracy,
    fig4_pooling_accuracy,
    fig12_quantization_accuracy,
    fig13_speedup,
    fig14_flops_reduction,
    fig15_energy,
    table1_models,
    table2_lar_filter,
    table3_lar_stride,
    table4_gar_filter,
    table5_gar_stride,
    table6_gar_inputdim,
    table7_configs,
)
from repro.experiments.accuracy import FAST_BUDGET, AccuracyBudget

FAST_EXPERIMENTS = {
    "table1": table1_models,
    "table2": table2_lar_filter,
    "table3": table3_lar_stride,
    "table4": table4_gar_filter,
    "table5": table5_gar_stride,
    "table6": table6_gar_inputdim,
    "limits": equation_limits,
    "table7": table7_configs,
    "fig13": fig13_speedup,
    "fig14": fig14_flops_reduction,
    "fig15": fig15_energy,
    "ablation": ablation_reuse,
    "resnet18": extension_resnet18,
    "fusedlayer": related_fused_layer,
    "pruning": extension_pruning,
}

ACCURACY_EXPERIMENTS = {
    "fig3": fig3_reordering_accuracy,
    "fig4": fig4_pooling_accuracy,
    "fig12": fig12_quantization_accuracy,
}


def _list_experiments() -> None:
    print("fast (analytic + accelerator):")
    for name in sorted(FAST_EXPERIMENTS):
        print(f"  {name}")
    print("accuracy (training; needs --accuracy or --only):")
    for name in sorted(ACCURACY_EXPERIMENTS):
        print(f"  {name}")


def _compile_pipeline(model_name: str, bits: int, show_report: bool) -> int:
    """Compile a zoo model through the canonical MLCNN pipeline."""
    from repro.compiler import CompileContext, mlcnn_pipeline
    from repro.models import MODEL_REGISTRY, build_model

    if model_name not in MODEL_REGISTRY:
        print(
            f"unknown model {model_name!r}; available: {sorted(MODEL_REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    model = build_model(model_name)
    ctx = CompileContext()
    # strict=False: models with no fusable ConvBlock (e.g. GoogLeNet,
    # whose pooled stages are PooledInception) still compile cleanly.
    _, report = mlcnn_pipeline(bits=bits, strict=False).run(model, ctx)
    if report.record_for("fuse").rewrites == 0:
        print("note: no fusable conv-pool blocks in this model")
    if show_report:
        report.to_experiment_report().show()
    print(
        f"compiled {model_name} [{report.pipeline}]: "
        f"{report.passes_run} passes, {report.total_rewrites} rewrites, "
        f"{1e3 * report.total_time_s:.1f} ms"
        + (" (plan-cache hit)" if report.cached else "")
    )
    if obs.get_tracer().enabled:
        from repro.obs.attrib import instrumented_run

        # one trace: the compiler passes (traced by the pipeline), the
        # layers' forward spans on the probe batch and the simulated layers
        instrumented_run(model_name, model, ctx.probe_batch())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accuracy", action="store_true", help="also run the training experiments")
    parser.add_argument("--full", action="store_true", help="use the full training budget")
    parser.add_argument("--only", nargs="*", default=None, help="subset of experiment names")
    parser.add_argument(
        "--list", action="store_true", help="print available experiment names and exit"
    )
    parser.add_argument(
        "--pipeline",
        metavar="MODEL",
        default=None,
        help="compile a zoo model through the MLCNN pass pipeline and exit",
    )
    parser.add_argument(
        "--bits", type=int, default=0, help="quantization bits for --pipeline (0 = off)"
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="with --pipeline: print the full per-pass CompileReport table",
    )
    parser.add_argument(
        "--numerics",
        nargs="*",
        metavar="MODEL",
        default=None,
        help="print the numerics health report (clip rates, reorder "
        "divergence, NaN/inf watchdog) for the given zoo models "
        "(default: lenet5 vgg16) and exit; honours --bits",
    )
    parser.add_argument(
        "--attrib",
        nargs="*",
        metavar="MODEL",
        default=None,
        help="print the roofline attribution table for the given zoo "
        "models (default: lenet5 vgg16) and exit; honours --bits",
    )
    parser.add_argument(
        "--diff-trace",
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="cross-run forensics: attribute two --obs run directories (or "
        "JSONL traces) and print the ranked what-changed report (B relative to A)",
    )
    parser.add_argument(
        "--obs",
        metavar="DIR",
        default=None,
        help="turn on the tracer and the sampling profiler, write the run "
        "directory DIR (trace with the training scalars, profile, "
        "attribution, dashboard) and print the attribution table",
    )
    parser.add_argument(
        "--bench-compare",
        metavar="JSONL",
        default=None,
        help="run the perf regression gate: compare a --metrics-jsonl file "
        "against the committed BENCH_<area>.json baselines and exit "
        "non-zero on regression",
    )
    parser.add_argument(
        "--bench-root",
        metavar="DIR",
        default=".",
        help="directory holding the BENCH_<area>.json baselines (default: .)",
    )
    parser.add_argument(
        "--bench-update",
        action="store_true",
        help="with --bench-compare: refresh the baselines from the metrics "
        "file instead of gating (intentional baseline refresh)",
    )
    parser.add_argument(
        "--bench-dashboard",
        metavar="PATH",
        default=None,
        help="write the benchmark dashboard (markdown, or HTML for "
        ".html paths); usable with or without --bench-compare",
    )
    args = parser.parse_args(argv)

    if args.list:
        _list_experiments()
        return 0
    if args.bits < 0:
        parser.error(f"--bits must be >= 0, got {args.bits}")
    if args.bench_update and args.bench_compare is None:
        parser.error("--bench-update refreshes baselines from --bench-compare's file")
    bench = args.bench_compare is not None or (
        args.bench_dashboard is not None and args.attrib is None
    )
    if args.obs is not None and (bench or args.diff_trace is not None):
        parser.error("--obs records a run; it does not combine with the "
                     "--bench-compare gate or --diff-trace")
    if args.diff_trace is not None:
        return _run_diff(args)
    if bench:
        return _bench_compare(args)
    if args.obs is None:
        return _run(parser, args, None)
    with obs.ObsRun(args.obs) as run:
        rc = _run(parser, args, run)
    print("\n" + run.attribution.render())
    print(f"obs: {len(run.FILES)} files -> {args.obs}")
    return rc


def _run(parser: argparse.ArgumentParser, args, run) -> int:
    """Dispatch one run mode; ``run`` is the active ``--obs`` run or None."""
    if args.attrib is not None:
        return _run_attrib(args, run)
    if args.pipeline is not None:
        return _compile_pipeline(args.pipeline, args.bits, args.report)
    if args.numerics is not None:
        return _run_numerics(args, run)
    return _run_suite(parser, args)


def _run_numerics(args, run) -> int:
    """One-command numerics health report (the tentpole CLI surface).

    For each model: compile through
    :func:`repro.compiler.numerics_pipeline` (the MLCNN rewrites without
    ``fuse``, with the reorder-divergence probe after ``reorder``), instrument
    the compiled model with a :class:`~repro.obs.numerics
    .NumericsCollector`, run one forward+backward on the probe batch,
    and print its summary: DoReFa clip/saturation rates per layer, the
    measured reorder divergence and the NaN/inf watchdog's verdict.
    """
    import numpy as np

    from repro.compiler import CompileContext, numerics_pipeline
    from repro.models import MODEL_REGISTRY, build_model
    from repro.nn import functional as F
    from repro.nn.tensor import Tensor
    from repro.obs.numerics import NumericsCollector

    models = args.numerics or ["lenet5", "vgg16"]
    unknown = [m for m in models if m not in MODEL_REGISTRY]
    if unknown:
        print(
            f"unknown model(s) {unknown}; available: {sorted(MODEL_REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    bits = args.bits or 8
    for name in models:
        model = build_model(name)
        ctx = CompileContext()
        collector = NumericsCollector(watchdog="warn")
        with collector:
            numerics_pipeline(bits).run(model, ctx)
            obs.instrument_model(model, prefix=name, numerics=collector)
            x = ctx.probe_batch()
            model.train()
            logits = model(Tensor(x))
            rng = np.random.default_rng(ctx.seed)
            labels = rng.integers(0, logits.data.shape[-1], size=len(x))
            loss = F.cross_entropy(logits, labels)
            loss.backward()
        table = collector.summary_report()
        print(f"\n-- {name} (INT{bits}) --")
        print(table.render())
        if run is not None:
            with open(run.path(run.NUMERICS), "a") as fh:
                fh.write(collector.to_jsonl(model=name, bits=bits))
            table.experiment += f" [{name}]"
            run.reports.append(table)
    return 0


def _run_attrib(args, run) -> int:
    """One-command roofline attribution (the tentpole CLI surface).

    For each model: compile + counter-instrumented forward +
    accelerator simulation under the tracer, joined against the
    host-calibrated roofline, printed as the attribution table.
    """
    from repro.models import MODEL_REGISTRY
    from repro.obs.attrib import attribute_model_run
    from repro.obs.roofline import get_roofline

    models = args.attrib or ["lenet5", "vgg16"]
    unknown = [m for m in models if m not in MODEL_REGISTRY]
    if unknown:
        print(
            f"unknown model(s) {unknown}; available: {sorted(MODEL_REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    roofline = get_roofline()
    reports = {}
    for name in models:
        reports[name] = attribute_model_run(name, bits=args.bits, roofline=roofline)
        print(f"\n-- {name} --")
        print(reports[name].render())
    if run is not None:
        run.model_attributions.update(reports)
    if args.bench_dashboard:
        _write_dashboard(args, reports=[r.to_experiment_report() for r in reports.values()])
    return 0


def _run_diff(args) -> int:
    """Cross-run forensics: the ranked span diff of two runs."""
    from repro.obs.forensics import diff_runs

    a, b = args.diff_trace
    run_diff = diff_runs(a, b)
    print(run_diff.render())
    culprit = run_diff.culprit
    if culprit is not None and abs(culprit.delta_us) > 0:
        print(
            f"top change: {culprit.name} "
            f"({culprit.delta_us / 1e3:+.3f} ms"
            + (f"; {'; '.join(culprit.notes)}" if culprit.notes else "")
            + ")"
        )
    if args.bench_dashboard:
        _write_dashboard(args, reports=[run_diff.to_experiment_report()])
    return 0


def _write_dashboard(args, **sections) -> None:
    """``--bench-dashboard``: the baselines under ``--bench-root`` plus ``sections``."""
    from repro.obs.dashboard import write_dashboard
    from repro.obs.metrics import MetricRegistry

    path = write_dashboard(args.bench_dashboard, MetricRegistry(args.bench_root), **sections)
    print(f"dashboard -> {path}")


def _bench_compare(args) -> int:
    """The perf-engineering loop's CI entry point.

    ``--bench-compare metrics.jsonl`` gates the run against the
    committed ``BENCH_<area>.json`` baselines (exit 1 on regression);
    ``--bench-update`` refreshes the baselines instead;
    ``--bench-dashboard`` renders the trend dashboard either way.
    """
    from repro.obs.metrics import MetricRegistry, load_metrics_jsonl
    from repro.obs.regress import gate_metrics

    registry = MetricRegistry(args.bench_root)
    per_area = {}
    if args.bench_compare is not None:
        per_area = load_metrics_jsonl(args.bench_compare)
        if not per_area:
            print(f"no metric rows in {args.bench_compare}", file=sys.stderr)
            return 2

    rc = 0
    report = None
    if args.bench_compare is not None and args.bench_update:
        for area, metrics in sorted(per_area.items()):
            path = registry.update(area, metrics)
            print(f"baseline updated: {path} ({len(metrics)} metric(s))")
    elif args.bench_compare is not None:
        report = gate_metrics(per_area, registry)
        print(report.render())
        rc = 1 if report.failed else 0

    if args.bench_dashboard:
        _write_dashboard(args, current=per_area or None, gate_report=report)
    return rc


def _run_suite(parser: argparse.ArgumentParser, args) -> int:
    """Run the selected experiment set, timing each one."""
    experiments = dict(FAST_EXPERIMENTS)
    if args.accuracy or (args.only and set(args.only) & set(ACCURACY_EXPERIMENTS)):
        experiments.update(ACCURACY_EXPERIMENTS)
    if args.only:
        unknown = set(args.only) - set(experiments)
        if unknown:
            parser.error(f"unknown experiments {sorted(unknown)}; "
                         f"available: {sorted(experiments)}")
        experiments = {k: experiments[k] for k in args.only}

    budget = AccuracyBudget() if args.full else FAST_BUDGET
    tracer = obs.get_tracer()
    suite_start = perf_counter()
    with tracer.span("experiments.suite", category="experiments", count=len(experiments)):
        for name, fn in experiments.items():
            start = perf_counter()
            with tracer.span(f"experiment.{name}", category="experiments"):
                if name in ACCURACY_EXPERIMENTS:
                    report = fn(budget=budget)
                else:
                    report = fn()
            report.show()
            print(f"  [{name}: {perf_counter() - start:.1f}s]")
    print(
        f"\n== total: {len(experiments)} experiment(s) in "
        f"{perf_counter() - suite_start:.1f}s =="
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
