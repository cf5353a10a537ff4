"""The lowering pass: which layers get the fp32 kernel, and when.

``mlcnn_pipeline(lower_bits=32)`` binds ``fused-f32-nhwc`` to every
non-overlapping fused layer and ``conv-f32-nhwc`` (the kernel's pool-1
case) to every stride-1 conv whose own forward runs, and reports that
plan; the default pipeline binds nothing.  The plan cache keys on the
pipeline spec, so a 64-bit compilation can never serve a 32-bit one.
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
from repro.core.kernels import F32NHWCKernel
from repro.core.quantize import QuantizedConvBlock
from repro.models import build_model
from repro.models.blocks import ConvBlock, PoolSpec
from repro.nn.layers import Conv2d, Flatten, Linear, Sequential
from repro.nn.tensor import Tensor, no_grad
from repro.obs import collect_counters

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


#: the lowered lenet5: two fused conv-pools and the C5 conv
LENET5_PLAN = {
    "features.0": "fused-f32-nhwc",
    "features.1": "fused-f32-nhwc",
    "features.2.conv": "conv-f32-nhwc",
}


def _assert_detached_output_close(model, x, lowered_out):
    """The lowered output is within RTOL of the modules' own f64 path."""
    modules = dict(model.named_modules())
    for path, _ in lowered_kernels(model):
        modules[path].attach_kernel(None)
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
        assert {path: k.name for path, k in bound} == LENET5_PLAN
        assert all(isinstance(k, F32NHWCKernel) for _, k in bound)
        assert [k.pool for _, k in bound] == [2, 2, 1]
        rec = report.record_for("lower")
        assert rec.ran and rec.rewrites == 3 and rec.validated
        # a lowered conv is still counted: lowering moves no MACs
        assert rec.flop_delta == 0

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
        assert kernels == LENET5_PLAN
        result = LowerFusedKernelPass().run(model, CompileContext())
        assert result.details["kernels"] == kernels

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="32 or 64"):
            mlcnn_pipeline(lower_bits=16)

    def test_not_applicable_without_fused_modules(self):
        """No fused module and no stride-1 conv: nothing to lower."""
        rng = np.random.default_rng(0)
        model = Sequential(
            Conv2d(3, 4, 3, stride=2, rng=rng), Flatten(), Linear(4 * 15 * 15, 2, rng=rng)
        )
        assert not LowerFusedKernelPass().applies_to(model)
        _, report = Pipeline([LowerFusedKernelPass()]).run(model)
        assert not report.record_for("lower").ran
        # an unfused lenet5 still has stride-1 convs the kernel computes
        assert LowerFusedKernelPass().applies_to(build_model("lenet5"))


class TestPlanCacheReplay:
    def test_replayed_model_still_correct(self, x32):
        """A plan-cache hit skips validation, not the lowering itself."""
        mlcnn_pipeline(lower_bits=32).run(build_model("lenet5", seed=1))
        model, report = mlcnn_pipeline(lower_bits=32).run(build_model("lenet5", seed=2))
        assert report.cached
        assert {p: k.name for p, k in lowered_kernels(model)} == LENET5_PLAN
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
        assert {p: k.name for p, k in lowered_kernels(model)} == LENET5_PLAN

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


class TestPlanMatchesExecution:
    """The reported plan names exactly the layers that run their kernel."""

    @pytest.mark.parametrize("bits", [0, 8])
    def test_every_planned_layer_runs_its_kernel_once(self, bits, enabled_tracer, monkeypatch):
        model, _ = mlcnn_pipeline(bits=bits, lower_bits=32).run(build_model("lenet5", seed=3))
        (plan,) = [e.attrs["kernels"] for e in enabled_tracer.events if e.name == "compile.plan"]
        expected = dict(LENET5_PLAN)
        if bits:  # the quantized block calls F.conv2d itself: its conv never runs
            del expected["features.2.conv"]
        assert plan == expected
        modules = dict(model.named_modules())
        quantized = [m for m in modules.values() if isinstance(m, QuantizedConvBlock)]
        assert len(quantized) == (1 if bits else 0)
        assert all(q.block.conv.kernel is None for q in quantized)
        calls = {}
        run_nchw = F32NHWCKernel.run_nchw

        def counting(kernel, *args, **kwargs):
            calls[id(kernel)] = calls.get(id(kernel), 0) + 1
            return run_nchw(kernel, *args, **kwargs)

        monkeypatch.setattr(F32NHWCKernel, "run_nchw", counting)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 32, 32)))
        with no_grad():
            model(x)
        assert calls == {id(modules[path].kernel): 1 for path in plan}

    @pytest.mark.parametrize("bits", [0, 8])
    def test_lowered_forward_records_the_f64_counters(self, bits):
        x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 32, 32)))
        counted = []
        for lower_bits in (64, 32):
            model, _ = mlcnn_pipeline(bits=bits, lower_bits=lower_bits).run(
                build_model("lenet5", seed=3)
            )
            with no_grad(), collect_counters() as oc:
                model(x)
            counted.append((oc.mults, oc.mults_eliminated))
        assert counted[0][0] > 0
        assert counted[1] == counted[0]


def _fused(pool, pool_stride):
    block = ConvBlock(
        3, 4, 3, pool=PoolSpec("avg", pool, stride=pool_stride), order="pool_act",
        rng=np.random.default_rng(0),
    )
    return FusedConvPool(block)


@pytest.mark.parametrize(
    "module, pool",
    [
        (lambda: _fused(3, 2), 2),  # overlapping pool, kernel of the stride
        (lambda: _fused(3, 2), 3),  # overlapping pool, kernel of the pool
        (lambda: _fused(2, 2), 3),  # pool size mismatch
        (lambda: _fused(2, 2), 1),
        (lambda: Conv2d(3, 4, 3, stride=2), 1),  # strided conv
        (lambda: Conv2d(3, 4, (3, 5)), 1),  # non-square kernel
        (lambda: Conv2d(3, 4, 3, padding=(1, 0)), 1),  # non-square padding
        (lambda: Conv2d(3, 4, 3), 2),  # a conv is the pool-1 case
    ],
    ids=[
        "fused-overlap-p2", "fused-overlap-p3", "fused-pool-mismatch", "fused-pool-1",
        "conv-stride-2", "conv-kernel-3x5", "conv-padding-1x0", "conv-pool-2",
    ],
)
def test_attach_kernel_rejects_a_kernel_that_cannot_compute_the_module(module, pool):
    mod = module()
    with pytest.raises(ValueError, match="pool"):
        mod.attach_kernel(F32NHWCKernel(pool))
    assert mod.kernel is None
    mod.attach_kernel(None)  # unbinding is always allowed
