"""Pipeline execution: validation hooks, instrumentation, plan-cache
interplay and determinism."""

import numpy as np
import pytest

from repro.analysis.flops import probe_forward
from repro.compiler import (
    CompileContext,
    FuseConvPoolPass,
    LowerFusedKernelPass,
    PassValidationError,
    Pipeline,
    PrunePass,
    QuantizePass,
    ReorderActivationPoolingPass,
    ReorderDivergenceProbePass,
    SetPoolingPass,
    clear_plan_cache,
    mlcnn_pipeline,
    numerics_pipeline,
)
from repro.compiler.pass_base import Pass
from repro.compiler.context import PROBE_SHAPE, PassResult
from repro.core.opcount import rme_multiplication_reduction
from repro.models import MODEL_REGISTRY, build_model
from repro.models.specs import get_specs
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, no_grad

from tests.conftest import ZOO_WIDTH


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def x32():
    return Tensor(np.random.default_rng(8).normal(size=(2, 3, 32, 32)))


class TestReportInstrumentation:
    def test_records_for_every_ran_pass(self):
        model = build_model("lenet5")
        _, report = mlcnn_pipeline(bits=8).run(model)
        ran = [r for r in report.records if r.ran]
        assert [r.name for r in ran] == ["set-pooling", "reorder", "fuse", "quantize"]
        for r in ran:
            assert r.wall_time_s >= 0.0
            assert r.rewrites >= 0
            assert r.validated
            assert r.flop_delta is not None
        assert report.record_for("fuse").rewrites == 2
        # RME removes 1 - 1/p^2 of each fused conv's dense MACs on the probe
        batch = PROBE_SHAPE[0]
        removed = sum(
            batch * s.out_channels * s.conv_output_size ** 2 * s.in_channels * s.kernel ** 2
            * rme_multiplication_reduction(s.pool)
            for s in get_specs("lenet5")
            if s.is_fusable
        )
        assert report.record_for("fuse").flop_delta == -removed == -889_200
        assert report.record_for("reorder").flop_delta == 0
        assert report.total_time_s > 0.0

    def test_fuse_preserves_probe_outputs(self):
        model = build_model("lenet5", order="pool_act")
        _, report = Pipeline([FuseConvPoolPass()]).run(model)
        dev = report.record_for("fuse").probe_max_dev
        assert dev is not None and dev < 1e-9

    def test_summary_and_experiment_report_render(self):
        model = build_model("lenet5")
        _, report = mlcnn_pipeline().run(model)
        text = report.summary()
        assert "fuse" in text and "rewrites" in text
        rep = report.to_experiment_report()
        assert len(rep.rows) == len(report.records)

    def test_inapplicable_pass_recorded_as_skipped(self):
        model = build_model("lenet5", order="pool_act")  # already reordered
        _, report = Pipeline([ReorderActivationPoolingPass(), FuseConvPoolPass()]).run(model)
        rec = report.record_for("reorder")
        assert not rec.ran and "not applicable" in rec.notes


class TestValidationHooks:
    def test_lying_semantics_pass_is_caught(self):
        class EvilPass(Pass):
            name = "evil"
            preserves_semantics = True  # a lie: it rescales a weight

            def run(self, model, ctx):
                next(iter(model.parameters())).data *= 3.0
                return PassResult(self.name, 1)

        model = build_model("lenet5")
        with pytest.raises(PassValidationError):
            Pipeline([EvilPass()]).run(model)

    def test_lying_param_pass_is_caught(self):
        class GrowPass(Pass):
            name = "grow"
            preserves_params = True  # a lie: it adds a conv

            def run(self, model, ctx):
                from repro.models.blocks import ConvBlock

                model.extra = ConvBlock(3, 3, 1)
                return PassResult(self.name, 1)

        model = build_model("lenet5")
        with pytest.raises(PassValidationError):
            Pipeline([GrowPass()]).run(model)

    def test_nan_already_in_the_model_blames_no_pass(self):
        """A NaN in the weights reaches the probe output before any pass
        runs, so the semantics-preserving passes after it are not at
        fault: both the canonical and the numerics pass lists compile."""
        for pipe in (mlcnn_pipeline(), numerics_pipeline(8)):
            model = build_model("lenet5")
            dict(model.named_parameters())["features.0.conv.weight"].data[0, 0, 0, 0] = np.nan
            _, report = pipe.run(model)
            assert all(r.validated for r in report.records if r.ran)

    def test_nan_written_by_a_semantics_pass_is_caught(self):
        class NaNPass(Pass):
            name = "nan"
            preserves_semantics = True  # a lie: it plants a NaN

            def run(self, model, ctx):
                next(iter(model.parameters())).data.flat[0] = np.nan
                return PassResult(self.name, 1)

        model = build_model("lenet5")
        with pytest.raises(PassValidationError, match="'nan'"):
            Pipeline([NaNPass()]).run(model)

    def test_probe_mismatch_is_tolerated(self):
        # default probe is (2, 3, 32, 32); a 1-channel model can't eat it
        model = build_model("lenet5", in_channels=1)
        _, report = mlcnn_pipeline().run(model)
        assert report.notes and "probe forward failed" in report.notes[0]
        assert report.record_for("fuse").ran  # compilation still completed

    def test_pass_that_breaks_the_forward_is_caught_and_not_cached(self):
        """The probe ran before the pass and raises after it: the pass
        broke the model, whatever it declares, and the failed compile
        leaves no plan-cache key behind."""

        class Raising(Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner  # keeps the parameters: only the forward breaks

            def forward(self, x):
                raise RuntimeError("kernel exploded")

        class BreakPass(Pass):
            name = "break"
            preserves_semantics = True  # a lie: the forward now raises

            def run(self, model, ctx):
                setattr(model.features, "0", Raising(model.features[0]))
                return PassResult(self.name, 1)

        for _ in range(2):  # a failure is never served from the cache
            with pytest.raises(PassValidationError, match="'break'.*kernel exploded"):
                Pipeline([BreakPass()]).run(build_model("lenet5"))


#: every built-in pass, and whether some zoo model, as built, makes it
#: report 0 rewrites
BUILT_IN_PASSES = [
    (SetPoolingPass, True),  # the zoo builds average pools
    (ReorderActivationPoolingPass, False),
    (lambda: FuseConvPoolPass(strict=False), True),  # nothing is pool_act yet
    (lambda: QuantizePass(8), False),
    (LowerFusedKernelPass, False),
    (lambda: PrunePass(0.0), True),
    (ReorderDivergenceProbePass, True),
]


class TestZeroRewriteProbeSkip:
    """A pass that reports 0 rewrites gets no probe forward: the previous
    output and MAC count carry forward."""

    @pytest.mark.parametrize(
        "make, some_zero", BUILT_IN_PASSES, ids=[m().name for m, _ in BUILT_IN_PASSES]
    )
    def test_zero_rewrites_leave_the_probe_bit_identical(self, make, some_zero):
        """Run each built-in pass on every zoo model it applies to: where
        it reports 0 rewrites, the probe output is bit-identical and the
        MAC count unchanged."""
        zero = []
        for name in sorted(MODEL_REGISTRY):
            model = build_model(name, width_mult=ZOO_WIDTH[name], seed=0)
            ctx = CompileContext()
            out, macs = probe_forward(model, ctx.probe_batch())
            p = make()
            if not p.applies_to(model) or p.run(model, ctx).rewrites:
                continue
            zero.append(name)
            out_after, macs_after = probe_forward(model, ctx.probe_batch())
            np.testing.assert_array_equal(out_after, out, err_msg=name)
            assert macs_after == macs, name
        assert bool(zero) == some_zero, zero

    def test_pipeline_skips_the_probe_and_says_so(self, enabled_tracer):
        """vgg16 already has average pools: ``set-pooling`` rewrites
        nothing, so the compile probes once before the passes and once
        after each of ``reorder`` and ``fuse``."""
        model = build_model("vgg16", width_mult=0.125)
        _, report = mlcnn_pipeline().run(model)
        rec = report.record_for("set-pooling")
        assert rec.ran and rec.rewrites == 0 and rec.validated
        assert rec.flop_delta == 0 and rec.probe_max_dev is None
        assert report.notes == ["set-pooling: 0 rewrites, probe skipped"]
        assert "set-pooling: 0 rewrites, probe skipped" in report.summary()
        probes = [ev for ev in enabled_tracer.events if ev.name == "compile.probe"]
        assert len(probes) == 3
        assert [r.rewrites > 0 for r in report.records] == [False, True, True]


class TestDeterminism:
    def test_same_context_seed_bitwise_identical(self, x32):
        outs = []
        for _ in range(2):
            model = build_model("vgg16", width_mult=0.125, seed=9)
            model, _ = mlcnn_pipeline(bits=8).run(model, CompileContext(seed=21))
            with no_grad():
                outs.append(model(x32).data)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestPipelineTracing:
    def test_pass_spans_mirror_records(self, enabled_tracer):
        model = build_model("lenet5")
        _, report = mlcnn_pipeline(bits=8).run(model)
        spans = [ev for ev in enabled_tracer.events if ev.name.startswith("compile.pass.")]
        (pipeline,) = [ev for ev in enabled_tracer.events if ev.name == "compile.pipeline"]
        ran = [r for r in report.records if r.ran]
        assert [ev.name for ev in spans] == [f"compile.pass.{r.name}" for r in ran]
        for ev, record in zip(spans, ran):
            assert ev.attrs["rewrites"] == record.rewrites
            assert ev.parent == pipeline.id

    def test_pipeline_span_attrs(self, enabled_tracer):
        model = build_model("lenet5")
        _, report = mlcnn_pipeline().run(model)
        pipe = next(ev for ev in enabled_tracer.events if ev.name == "compile.pipeline")
        assert pipe.attrs["passes_run"] == report.passes_run
        assert pipe.attrs["rewrites"] == report.total_rewrites
        assert pipe.attrs["cached"] is False
        # validation probes are traced too
        assert any(ev.name == "compile.probe" for ev in enabled_tracer.events)
