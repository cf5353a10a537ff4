"""Pipeline execution: validation hooks, instrumentation, equivalence
with the historical prepare_mlcnn recipe."""

import numpy as np
import pytest

from repro.compiler import (
    CompileContext,
    PassValidationError,
    Pipeline,
    clear_plan_cache,
    mlcnn_pipeline,
)
from repro.compiler.pass_base import Pass
from repro.compiler.context import PROBE_SHAPE, PassResult
from repro.core.opcount import rme_multiplication_reduction
from repro.core.transform import prepare_mlcnn
from repro.models import build_model
from repro.models.specs import get_specs
from repro.nn.tensor import Tensor, no_grad


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def x32():
    return Tensor(np.random.default_rng(8).normal(size=(2, 3, 32, 32)))


class TestMLCNNPipelineEquivalence:
    """Acceptance: prepare_mlcnn(model, bits) == mlcnn_pipeline(bits).run(model)."""

    @pytest.mark.parametrize("name,width", [("lenet5", 1.0), ("vgg16", 0.125)])
    @pytest.mark.parametrize("bits", [0, 8])
    def test_functionally_identical(self, name, width, bits, x32):
        a = build_model(name, width_mult=width, seed=4)
        b = build_model(name, width_mult=width, seed=4)
        prepare_mlcnn(a, quantize_bits=bits)
        b, _report = mlcnn_pipeline(bits=bits).run(b, CompileContext(quant_bits=bits))
        with no_grad():
            ya, yb = a(x32).data, b(x32).data
        np.testing.assert_allclose(ya, yb, atol=1e-12)

    def test_strict_failure_stays_loud(self):
        model = build_model("lenet5")
        prepare_mlcnn(model)
        with pytest.raises(ValueError):
            prepare_mlcnn(model)  # nothing left to fuse


class TestReportInstrumentation:
    def test_records_for_every_ran_pass(self):
        model = build_model("lenet5")
        ctx = CompileContext(quant_bits=8)
        _, report = mlcnn_pipeline(bits=8).run(model, ctx)
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
        _, report = Pipeline(["fuse"]).run(model)
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
        _, report = Pipeline(["reorder", "fuse"]).run(model)
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

                model.extra = ConvBlock(3, 3, 1, rng=ctx.rng)
                return PassResult(self.name, 1)

        model = build_model("lenet5")
        with pytest.raises(PassValidationError):
            Pipeline([GrowPass()]).run(model)

    def test_nan_already_in_the_model_blames_no_pass(self):
        """A NaN in the weights reaches the probe output before any pass
        runs, so the semantics-preserving passes after it are not at
        fault: both the canonical and the numerics pass lists compile."""
        pipelines = [
            (mlcnn_pipeline(), CompileContext()),
            (
                Pipeline(["set-pooling", "reorder", "reorder-probe", "quantize"]),
                CompileContext(quant_bits=8),
            ),
        ]
        for pipe, ctx in pipelines:
            model = build_model("lenet5")
            dict(model.named_parameters())["features.0.conv.weight"].data[0, 0, 0, 0] = np.nan
            _, report = pipe.run(model, ctx)
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

    def test_validation_off_skips_checks(self):
        model = build_model("lenet5")
        _, report = mlcnn_pipeline().run(model, CompileContext(validate=False))
        assert not report.validated
        assert all(not r.validated for r in report.records)

    def test_probe_mismatch_is_tolerated(self):
        # default probe is (2, 3, 32, 32); a 1-channel model can't eat it
        model = build_model("lenet5", in_channels=1)
        _, report = mlcnn_pipeline().run(model)
        assert report.notes and "probe forward failed" in report.notes[0]
        assert report.record_for("fuse").ran  # compilation still completed


class TestDeterminism:
    def test_same_context_seed_bitwise_identical(self, x32):
        outs = []
        for _ in range(2):
            model = build_model("googlenet", width_mult=0.25, seed=9)
            pipe = Pipeline(["set-pooling", "reorder", "to-allconv"])
            model, _ = pipe.run(model, CompileContext(seed=21))
            with no_grad():
                outs.append(model(x32).data)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestPipelineTracing:
    def test_pass_spans_mirror_records(self, enabled_tracer):
        model = build_model("lenet5")
        _, report = mlcnn_pipeline(bits=8).run(model, CompileContext(quant_bits=8))
        spans = [ev for ev in enabled_tracer.events if ev.name.startswith("compile.pass.")]
        ran = [r for r in report.records if r.ran]
        assert [ev.name for ev in spans] == [f"compile.pass.{r.name}" for r in ran]
        for ev, record in zip(spans, ran):
            assert ev.attrs["rewrites"] == record.rewrites
            assert ev.parent == "compile.pipeline"

    def test_pipeline_span_attrs(self, enabled_tracer):
        model = build_model("lenet5")
        _, report = mlcnn_pipeline().run(model)
        pipe = next(ev for ev in enabled_tracer.events if ev.name == "compile.pipeline")
        assert pipe.attrs["passes_run"] == report.passes_run
        assert pipe.attrs["rewrites"] == report.total_rewrites
        assert pipe.attrs["cached"] is False
        # validation probes are traced too
        assert any(ev.name == "compile.probe" for ev in enabled_tracer.events)
