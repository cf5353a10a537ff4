#!/usr/bin/env python3
"""Compile a model through a custom pass pipeline with validation.

Demonstrates the `repro.compiler` pass manager:

1. the canonical MLCNN pipeline (`mlcnn_pipeline`) with its per-pass
   CompileReport — wall time, rewrite counts, FLOP deltas, probe
   deviations;
2. a custom ordering: a list of built-in passes, each built with its
   own settings, plus a user-defined pass (channel-wise weight
   standardization) written against the `Pass` protocol;
3. the plan cache: recompiling the same architecture skips
   re-validation.

Run:  python examples/pipeline_compile.py
"""

import numpy as np

from repro import build_model
from repro.compiler import (
    CompileContext,
    FuseConvPoolPass,
    Pass,
    PassResult,
    Pipeline,
    PrunePass,
    ReorderActivationPoolingPass,
    SetPoolingPass,
    mlcnn_pipeline,
)
from repro.nn.layers import Conv2d


def main() -> None:
    # 1. The canonical MLCNN preparation, instrumented. --------------------
    model = build_model("vgg16", width_mult=0.25, seed=0)
    model, report = mlcnn_pipeline(bits=8).run(model, CompileContext(seed=0))
    report.to_experiment_report().show()

    # Every record carries structured data, not just the rendered table:
    fuse = report.record_for("fuse")
    print(
        f"\nfuse pass: {fuse.rewrites} blocks rewritten, "
        f"{-fuse.flop_delta:,} MACs removed (RME), "
        f"max probe deviation {fuse.probe_max_dev:.2e}"
    )

    # 2. A custom pass + custom ordering. ----------------------------------
    class StandardizeWeightsPass(Pass):
        """Zero-mean every conv filter (a la weight standardization)."""

        name = "standardize-weights"
        preserves_semantics = False  # changes outputs by design
        preserves_params = True

        def run(self, model, ctx):
            touched = 0
            for _, mod in model.named_modules():
                if isinstance(mod, Conv2d):
                    w = mod.weight.data
                    w -= w.mean(axis=(1, 2, 3), keepdims=True)
                    touched += 1
            return PassResult(self.name, touched)

    custom = Pipeline(
        [
            SetPoolingPass(),
            ReorderActivationPoolingPass(),
            StandardizeWeightsPass(),
            FuseConvPoolPass(),
            PrunePass(0.5),
        ],
        name="custom",
    )
    model2 = build_model("lenet5", seed=1)
    model2, report2 = custom.run(model2, CompileContext(seed=1))
    report2.to_experiment_report().show()

    # 3. Plan cache: same architecture + spec => validation skipped. -------
    model3 = build_model("lenet5", seed=2)  # fresh weights, same architecture
    model3, report3 = custom.run(model3, CompileContext(seed=1))
    print(
        f"\nrecompile of the same architecture: plan-cache hit={report3.cached}, "
        f"{1e3 * report2.total_time_s:.1f} ms -> {1e3 * report3.total_time_s:.1f} ms"
    )


if __name__ == "__main__":
    main()
