"""The built-in passes: settings, applicability, idempotence."""

import numpy as np
import pytest

from repro.compiler import (
    CompileContext,
    FuseConvPoolPass,
    Pipeline,
    QuantizePass,
    ReorderActivationPoolingPass,
    ReorderDivergenceProbePass,
    SetPoolingPass,
    mlcnn_pipeline,
    numerics_pipeline,
)
from repro.models import build_model
from repro.nn.tensor import Tensor


class TestPassList:
    def test_signatures_encode_config(self):
        assert SetPoolingPass().signature() == "set-pooling(avg)"
        assert FuseConvPoolPass(strict=False).signature() == "fuse(strict=False)"
        assert QuantizePass(8).signature() == "quantize(8)"

    def test_pipeline_takes_only_pass_instances(self):
        with pytest.raises(TypeError, match="Pass instances"):
            Pipeline([SetPoolingPass(), "fuse"])


class TestIdempotence:
    """Running the same pass twice is a no-op (zero rewrites)."""

    def test_set_pooling_second_run_is_noop(self):
        model = build_model("lenet5", pooling="max")
        ctx = CompileContext()
        p = SetPoolingPass()
        assert p.run(model, ctx).rewrites == 2
        assert p.run(model, ctx).rewrites == 0

    def test_reorder_second_run_is_noop(self):
        model = build_model("lenet5")
        ctx = CompileContext()
        p = ReorderActivationPoolingPass()
        assert p.run(model, ctx).rewrites == 2
        assert not p.applies_to(model)
        assert p.run(model, ctx).rewrites == 0

    def test_fuse_nonstrict_second_run_is_noop(self):
        model = build_model("lenet5", order="pool_act")
        ctx = CompileContext()
        p = FuseConvPoolPass(strict=False)
        assert p.run(model, ctx).rewrites == 2
        assert p.run(model, ctx).rewrites == 0

    def test_quantize_not_applicable_twice(self):
        model = build_model("lenet5")
        ctx = CompileContext()
        p = QuantizePass(8)
        assert p.applies_to(model)
        assert p.run(model, ctx).rewrites > 0
        assert not p.applies_to(model)  # no double-wrapping


class TestFuseStrictness:
    def test_strict_raises_on_unfusable(self):
        model = build_model("vgg16", width_mult=0.125)  # still ReLU+AP
        with pytest.raises(ValueError):
            FuseConvPoolPass(strict=True).run(model, CompileContext())

    def test_nonstrict_tolerates_unfusable(self):
        model = build_model("vgg16", width_mult=0.125)
        result = FuseConvPoolPass(strict=False).run(model, CompileContext())
        assert result.rewrites == 0


class TestReorderDivergenceProbe:
    """The read-only reorder-probe pass (PR 5)."""

    def test_model_left_untouched(self):
        model = build_model("lenet5", seed=0, pooling="avg")
        ctx = CompileContext(seed=0)
        ref = model(Tensor(ctx.probe_batch())).data
        result = ReorderDivergenceProbePass().run(model, ctx)
        assert result.rewrites == 0
        np.testing.assert_array_equal(model(Tensor(ctx.probe_batch())).data, ref)

    def test_populates_ctx_state_and_details(self):
        model = build_model("lenet5", seed=0, pooling="avg")
        ctx = CompileContext(seed=0)
        result = ReorderDivergenceProbePass().run(model, ctx)
        for key in ("end_to_end_max_abs", "top1_flip_rate", "layers"):
            assert key in result.details
        stored = ctx.state["reorder_divergence"]
        assert stored["end_to_end_max_abs"] == result.details["end_to_end_max_abs"]
        assert stored["layers"] == 2
        assert stored["end_to_end_max_abs"] > 0.0  # avg pooling: real divergence

    def test_not_applicable_without_pooled_blocks(self):
        from repro.models.reorder import conv_pool_blocks

        model = build_model("lenet5", seed=0)
        for block in conv_pool_blocks(model):
            block.pool = None
        assert not ReorderDivergenceProbePass().applies_to(model)

    def test_passes_pipeline_validation(self):
        """The probe claims preserves_semantics — the pipeline's own
        probe-batch validation must agree (max|dev| 0)."""
        model = build_model("lenet5", seed=0, pooling="avg")
        pipe = Pipeline([ReorderDivergenceProbePass()], name="probe-only")
        _, report = pipe.run(model, CompileContext(seed=0))
        assert report.records[0].validated

    def test_numerics_pipeline_probes_after_reorder(self):
        names = [p.name for p in numerics_pipeline(8).passes]
        assert names == ["set-pooling", "reorder", "reorder-probe", "quantize"]
        assert "reorder-probe" not in [p.name for p in mlcnn_pipeline(bits=8).passes]
