"""Attribution headline metric.

``attrib.span_coverage[model=...]`` is the attribution engine's
self-check: the fraction of the instrumented forward's wall time
explained by per-layer spans.  It is a property of the
*instrumentation*, not of host speed — if coverage drops, a subsystem
stopped reporting.  The bench asserts it is at least 0.9; the gate
holds each model to its ``BENCH_core.json`` baseline within
max(0.02, 5%) as a required higher-is-better metric.
"""

from repro.obs.attrib import attribute_model_run

#: the floor every model's coverage must reach
COVERAGE_FLOOR = 0.9


def _run_and_record(model_name, benchmark, record_metric):
    report = benchmark.pedantic(
        attribute_model_run,
        args=(model_name,),
        kwargs={"root": model_name},
        rounds=1,
        iterations=1,
    )
    coverage = report.span_coverage
    assert coverage >= COVERAGE_FLOOR, (
        f"span coverage {coverage:.3f} below {COVERAGE_FLOOR} — "
        f"{report.unexplained_us / 1e3:.3f} ms of "
        f"{report.total_us / 1e3:.3f} ms unexplained\n{report.render()}"
    )
    # the join produced layer rows with measured FLOPs per byte
    assert any(r.kind == "layer" and r.intensity for r in report.rows)
    record_metric("attrib", "span_coverage", coverage, model=model_name)
    return report


def test_attrib_lenet5(benchmark, record_metric):
    _run_and_record("lenet5", benchmark, record_metric)


def test_attrib_vgg16(benchmark, record_metric):
    report = _run_and_record("vgg16", benchmark, record_metric)
    # a vgg16 run must attribute the dominant conv stages individually
    names = {r.name for r in report.rows if r.kind == "layer"}
    assert any(".features." in n for n in names)
