#!/usr/bin/env python3
"""Numerics health monitoring end-to-end: watch a training run, audit a
quantized forward, and measure the reorder divergence.

Three acts, driven by :class:`repro.obs.numerics.NumericsCollector`:

1. **Watched training** — a small LeNet trains on synthetic data with
   every layer instrumented; the NaN/inf watchdog checks each layer's
   forward output and backward gradient and stamps any anomaly with
   its (layer, epoch, batch) position.
2. **Quantized clip audit** — the model is compiled through
   ``numerics_pipeline`` (the MLCNN rewrites without fusion, then
   DoReFa quantization); a second collector counts how
   often activations/weights hit the clip boundaries, and the run
   prints the activation clip and weight saturation rates.
3. **Reorder-divergence probe** — the compiled network runs in both
   activation/pooling orders and reports how far the outputs drift
   (exactly 0 for max pooling; real but small for average pooling).

The run doubles as a smoke check: it exits 1 when the healthy watched
run records a NaN/inf, a clip rate falls outside [0, 1], or the
avg-pool reorder divergence is not positive.

Run:  PYTHONPATH=src python examples/numerics_watch.py [--epochs 2]
"""

import argparse
import sys

from repro.compiler import CompileContext, numerics_pipeline
from repro.data import SyntheticImageConfig, make_synth_cifar, train_val_split
from repro.models import build_model
from repro.nn.tensor import Tensor, no_grad
from repro.obs import instrument_model
from repro.obs.numerics import NumericsCollector
from repro.train import TrainConfig, Trainer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--samples", type=int, default=8, help="samples per class")
    parser.add_argument("--bits", type=int, default=8, help="DoReFa quantization bits")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = SyntheticImageConfig(
        num_classes=10, samples_per_class=args.samples, image_size=32, seed=args.seed
    )
    train_set, val_set = train_val_split(make_synth_cifar(cfg), 0.25, seed=args.seed)

    # -- 1. watched training -------------------------------------------------
    model = build_model("lenet5", seed=args.seed)
    collector = NumericsCollector(watchdog="warn")
    instrument_model(model, prefix="lenet5", numerics=collector)
    trainer = Trainer(
        model,
        train_set,
        val_set,
        TrainConfig(epochs=args.epochs, batch_size=16, lr=0.01, seed=args.seed),
        numerics=collector,
    )
    trainer.fit()
    anomaly = collector.first_anomaly
    print(f"watched {args.epochs} epoch(s); watchdog:",
          "clean run, no NaN/inf" if anomaly is None else anomaly)
    if anomaly is not None:
        print("FAIL: the healthy watched run recorded a NaN/inf", file=sys.stderr)
        return 1

    # -- 2. quantized clip audit --------------------------------------------
    # fresh collector: the training watch and the inference clip rates
    # are different questions
    audit = NumericsCollector(watchdog="warn")
    ctx = CompileContext(seed=args.seed)
    with audit:
        numerics_pipeline(args.bits).run(model, ctx)
        model.eval()
        with no_grad():
            model(Tensor(ctx.probe_batch()))
    rates = {
        "activation clip rate": audit.clip_rate("dorefa.act_clip"),
        "weight saturation": audit.clip_rate("dorefa.weight_sat"),
    }
    print(f"\nquantized forward (INT{args.bits}):")
    for label, rate in rates.items():
        print(f"  {label + ':':<22s}{rate:.2%}")

    # -- 3. reorder-divergence probe ----------------------------------------
    div = ctx.state["reorder_divergence"]
    print(f"\nreorder divergence over {div['layers']} conv/pool block(s):")
    for layer, dev in div["per_layer"].items():
        print(f"  {layer:<24s} max|dev| {dev:.3e}")
    print(f"  end-to-end max|dev| {div['end_to_end_max_abs']:.3e}, "
          f"top-1 flips {div['top1_flip_rate']:.1%}")
    print("\n(avg pooling: ReLU/avg do not commute, so nonzero divergence "
          "is expected; rerun the probe on a max-pool net for exact zeros)")

    failures = [f"{label} {rate} is outside [0, 1]"
                for label, rate in rates.items() if not 0.0 <= rate <= 1.0]
    if not div["end_to_end_max_abs"] > 0.0:
        failures.append(f"avg-pool divergence {div['end_to_end_max_abs']} is not > 0")
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
