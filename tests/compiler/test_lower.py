"""The lowering pass: which layers get the fp32 kernel, and when.

``mlcnn_pipeline(lower_bits=32)`` binds ``fused-f32-nhwc`` to every
non-overlapping fused layer and reports that plan; the default
pipeline binds nothing.  The plan cache keys on the pipeline spec, so
a 64-bit compilation can never serve a 32-bit one.
"""

import numpy as np
import pytest

from repro.compiler import (
    CompileContext,
    LowerFusedKernelPass,
    Pipeline,
    clear_plan_cache,
    lowered_kernels,
    mlcnn_pipeline,
)
from repro.core.fusion import FusedConvPool
from repro.models import build_model
from repro.nn.tensor import Tensor, no_grad

#: the end-to-end inference bound: max |y - ref| <= RTOL * max |ref|
RTOL = 1e-4


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def x32():
    return Tensor(np.random.default_rng(3).normal(size=(2, 3, 32, 32)))


def _fused_modules(model):
    return [m for _, m in model.named_modules() if isinstance(m, FusedConvPool)]


def _assert_detached_output_close(model, x, lowered_out):
    """The lowered output is within RTOL of the module's own f64 path."""
    for m in _fused_modules(model):
        m.attach_kernel(None)
    with no_grad():
        ref = model(x).data
    assert float(np.max(np.abs(lowered_out - ref))) <= RTOL * float(np.max(np.abs(ref)))


class TestLoweringAttachment:
    def test_default_pipeline_binds_no_kernel(self):
        model, report = mlcnn_pipeline().run(build_model("lenet5"))
        assert lowered_kernels(model) == []
        with pytest.raises(KeyError):
            report.record_for("lower")

    def test_bits32_selects_nhwc_specialization(self):
        model, report = mlcnn_pipeline(lower_bits=32).run(build_model("lenet5"))
        bound = lowered_kernels(model)
        assert len(bound) == 2
        assert all(k.name == "fused-f32-nhwc" for _, k in bound)
        rec = report.record_for("lower")
        assert rec.ran and rec.rewrites == 2 and rec.validated

    def test_lowered_forward_matches_autograd_path(self, x32):
        model, _ = mlcnn_pipeline(lower_bits=32).run(build_model("lenet5", seed=7))
        with no_grad():
            lowered_out = model(x32).data
        _assert_detached_output_close(model, x32, lowered_out)

    def test_training_forward_ignores_bound_kernel(self, x32):
        model, _ = mlcnn_pipeline(lower_bits=32).run(build_model("lenet5", seed=7))
        out = model(x32)  # grad enabled: must use the autograd path
        out.sum().backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads, "lowered model must stay trainable"

    def test_plan_reported_in_details_and_one_trace_event(self, enabled_tracer):
        model, _ = mlcnn_pipeline(lower_bits=32).run(build_model("lenet5"))
        plans = [e for e in enabled_tracer.events if e.name == "compile.plan"]
        assert len(plans) == 1
        kernels = plans[0].attrs["kernels"]
        assert kernels == {"features.0": "fused-f32-nhwc", "features.1": "fused-f32-nhwc"}
        result = LowerFusedKernelPass().run(model, CompileContext())
        assert result.details["kernels"] == kernels

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="32 or 64"):
            mlcnn_pipeline(lower_bits=16)

    def test_not_applicable_without_fused_modules(self):
        model = build_model("lenet5")  # nothing fused yet
        assert not LowerFusedKernelPass().applies_to(model)
        _, report = Pipeline([LowerFusedKernelPass()]).run(model)
        assert not report.record_for("lower").ran


class TestPlanCacheReplay:
    def test_replayed_model_still_correct(self, x32):
        """A plan-cache hit skips validation, not the lowering itself."""
        mlcnn_pipeline(lower_bits=32).run(build_model("lenet5", seed=1))
        model, report = mlcnn_pipeline(lower_bits=32).run(build_model("lenet5", seed=2))
        assert report.cached
        assert [k.name for _, k in lowered_kernels(model)] == ["fused-f32-nhwc"] * 2
        with no_grad():
            cached_out = model(x32).data
        _assert_detached_output_close(model, x32, cached_out)


class TestPlanCacheInvalidation:
    """Changing bits or architecture changes the key, so a cached
    compilation never stands in for a different one."""

    def test_bits_change_is_a_different_key(self):
        mlcnn_pipeline().run(build_model("lenet5"))
        model, report = mlcnn_pipeline(lower_bits=32).run(build_model("lenet5"))
        assert not report.cached  # the lower pass is in the pipeline spec
        assert all(k.name == "fused-f32-nhwc" for _, k in lowered_kernels(model))

    def test_shape_class_change_is_a_different_key(self):
        """Different architecture (different k/pool per layer) — the
        architecture signature differs, so the cached key is unused."""
        mlcnn_pipeline().run(build_model("lenet5"))
        _, report = mlcnn_pipeline().run(build_model("vgg16", width_mult=0.125))
        assert not report.cached

    def test_spec_strings_differ(self):
        specs = {
            mlcnn_pipeline().spec(),
            mlcnn_pipeline(lower_bits=32).spec(),
            mlcnn_pipeline(overlap=True).spec(),
        }
        assert len(specs) == 3
