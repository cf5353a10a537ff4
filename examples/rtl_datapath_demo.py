#!/usr/bin/env python3
"""RTL datapath demo: stream a feature map through the AR unit + MAC slice.

Drives the cycle-stepped micro-simulator of Fig. 7(b)/Fig. 11 — FIFOs,
shift registers, half/full additions, a 3-stage multiplier pipeline —
over one channel of a fused conv-pool layer, then checks the streamed
outputs against the vectorized fused kernel and prints the cycle and
reuse statistics the RTL prototype would report.

Run:  python examples/rtl_datapath_demo.py [--size 16] [--kernel 3]
"""

import argparse

import numpy as np

from repro.accel.rtl import RTLFusedConvPool
from repro.core.fusion import fused_conv_pool, fused_conv_pool_counted
from repro.nn.tensor import Tensor, no_grad


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=16, help="input feature map size")
    parser.add_argument("--kernel", type=int, default=3, help="conv filter size")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    image = rng.normal(size=(args.size, args.size))
    weights = rng.normal(size=(args.kernel, args.kernel))
    bias = float(rng.normal())

    report = RTLFusedConvPool(weights, bias).run(image)
    with no_grad():
        ref = fused_conv_pool(
            Tensor(image[None, None]),
            Tensor(weights[None, None]),
            Tensor(np.array([bias])),
            pool=2,
        ).data[0, 0]
    err = np.abs(report.outputs - ref).max()

    print(f"input {args.size}x{args.size}, filter {args.kernel}x{args.kernel}, 2x2 average pool")
    print(f"pooled output {report.outputs.shape[0]}x{report.outputs.shape[1]}; "
          f"max |RTL - vectorized| = {err:.2e}")
    assert err < 1e-9

    print(f"\ncycles:            {report.cycles}")
    print(f"input reads:       {report.input_reads} (each element streamed once per vertical pair)")
    print(f"half additions:    {report.ar_stats.half_additions}")
    print(f"full additions:    {report.ar_stats.full_additions}")
    print(f"multiplications:   {report.mac_stats.multiplications}")
    print(f"accumulations:     {report.mac_stats.accumulations}")
    print(f"FIFO high water:   {report.fifo_high_water}")

    # Compare against the demand-driven instrumented kernel.
    _, counter = fused_conv_pool_counted(image[None], weights[None, None], np.array([bias]))
    print(f"\ninstrumented-kernel reference (LAR+GAR): "
          f"{counter.mults} mults, {counter.additions} adds, "
          f"{counter.reuse_hits} additions avoided by reuse")

    dense_mults = counter.mults * 4  # RME removes 3 of every 4
    print(f"RME check: dense conv would need {dense_mults} multiplications; "
          f"the datapath performed {report.mac_stats.multiplications} "
          f"({1 - report.mac_stats.multiplications / dense_mults:.0%} removed)")

    # Waveform-style trace of the first cycles (record_trace=True).
    traced = RTLFusedConvPool(weights, bias).run(image, record_trace=True)
    print("\nfirst 12 trace events (VCD-style):")
    for event in traced.trace[:12]:
        print("  " + event.format())


if __name__ == "__main__":
    main()
