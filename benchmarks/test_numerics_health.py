"""Numerics health headline metrics (PR 5, rides on Fig. 3/12 claims).

Not a paper figure per se: tracks the quantized datapath's saturation
behaviour and the activation/pooling reorder divergence as first-class
regression-gated metrics.  DoReFa clip rates predict where the Fig. 12
accuracy cliff sits; the reorder divergence quantifies how "free" the
paper's reorder rewrite really is on avg-pooling networks.  All four
headline numbers are deterministic (fixed seeds, fixed probe batch),
so the CI gate holds them to a lower-is-better tolerance band.
"""

import numpy as np

from repro.compiler import CompileContext, numerics_pipeline
from repro.models import build_model
from repro.nn.tensor import Tensor, no_grad
from repro.obs.numerics import NumericsCollector

BITS = 8


def run_health(model_name):
    model = build_model(model_name, seed=0)
    ctx = CompileContext(seed=0)
    collector = NumericsCollector(watchdog="record")
    # the same no-fuse compile as the --numerics CLI
    with collector:
        numerics_pipeline(BITS).run(model, ctx)
        model.eval()
        with no_grad():
            model(Tensor(ctx.probe_batch()))
    return {
        "act_clip_rate": collector.clip_rate("dorefa.act_clip"),
        "weight_sat_rate": collector.clip_rate("dorefa.weight_sat"),
        "reorder_divergence": ctx.state["reorder_divergence"]["end_to_end_max_abs"],
        "top1_flip_rate": ctx.state["reorder_divergence"]["top1_flip_rate"],
        "anomaly": collector.first_anomaly,
    }


def _check_and_record(model_name, health, record_metric):
    assert health["anomaly"] is None  # a healthy net produces no NaN/inf
    for key in ("act_clip_rate", "weight_sat_rate", "top1_flip_rate"):
        assert 0.0 <= health[key] <= 1.0, f"{key} out of range: {health[key]}"
    div = health["reorder_divergence"]
    assert np.isfinite(div)
    assert div > 0.0  # avg pooling: ReLU/avg genuinely do not commute
    for key in ("act_clip_rate", "weight_sat_rate"):
        record_metric("numerics", key, health[key], model=model_name, bits=BITS)
    record_metric("numerics", "reorder_divergence", div, model=model_name)
    record_metric("numerics", "top1_flip_rate", health["top1_flip_rate"], model=model_name)


def test_numerics_health_lenet5(benchmark, record_metric):
    health = benchmark.pedantic(run_health, args=("lenet5",), rounds=1, iterations=1)
    _check_and_record("lenet5", health, record_metric)


def test_numerics_health_vgg16(benchmark, record_metric):
    health = benchmark.pedantic(run_health, args=("vgg16",), rounds=1, iterations=1)
    _check_and_record("vgg16", health, record_metric)
