"""Plan cache: architecture signatures and re-validation skipping."""

import numpy as np
import pytest

from repro.compiler import (
    PLAN_CACHE,
    CompileContext,
    architecture_signature,
    clear_plan_cache,
    mlcnn_pipeline,
)
from repro.models import build_model


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestArchitectureSignature:
    def test_weights_do_not_enter_signature(self):
        a = build_model("lenet5", seed=1)
        b = build_model("lenet5", seed=2)  # same arch, different weights
        assert architecture_signature(a) == architecture_signature(b)

    def test_architecture_changes_signature(self):
        a = build_model("lenet5")
        b = build_model("vgg16", width_mult=0.125)
        c = build_model("lenet5", num_classes=100)
        assert architecture_signature(a) != architecture_signature(b)
        assert architecture_signature(a) != architecture_signature(c)

    def test_transforms_change_signature(self):
        a = build_model("lenet5")
        sig_before = architecture_signature(a)
        mlcnn_pipeline().run(a)
        assert architecture_signature(a) != sig_before


class TestPlanCache:
    def test_second_compilation_hits_cache(self):
        m1, report1 = mlcnn_pipeline(bits=8).run(build_model("lenet5", seed=1))
        assert not report1.cached and report1.validated
        m2, report2 = mlcnn_pipeline(bits=8).run(build_model("lenet5", seed=2))
        assert report2.cached and not report2.validated
        assert all(not r.validated for r in report2.records if r.ran)

    def test_different_pipeline_spec_misses(self):
        mlcnn_pipeline(bits=8).run(build_model("lenet5"))
        _, report = mlcnn_pipeline(bits=4).run(build_model("lenet5"))
        assert not report.cached

    def test_different_architecture_misses(self):
        mlcnn_pipeline().run(build_model("lenet5"))
        _, report = mlcnn_pipeline().run(build_model("vgg16", width_mult=0.125))
        assert not report.cached

    def test_different_probe_seed_misses(self):
        mlcnn_pipeline().run(build_model("lenet5"))
        _, report = mlcnn_pipeline().run(build_model("lenet5"), CompileContext(seed=1))
        assert not report.cached and report.validated

    def test_clear_plan_cache(self):
        mlcnn_pipeline().run(build_model("lenet5"))
        assert len(PLAN_CACHE) == 1
        clear_plan_cache()
        assert len(PLAN_CACHE) == 0
        _, report = mlcnn_pipeline().run(build_model("lenet5"))
        assert not report.cached

    def test_cached_compile_is_cheaper(self):
        _, cold = mlcnn_pipeline().run(build_model("lenet5", seed=1))
        _, warm = mlcnn_pipeline().run(build_model("lenet5", seed=2))
        assert warm.total_time_s < cold.total_time_s

    def test_cached_model_still_correct(self):
        from repro.core.transform import fused_blocks

        mlcnn_pipeline().run(build_model("lenet5", seed=1))
        model, report = mlcnn_pipeline().run(build_model("lenet5", seed=2))
        assert report.cached
        assert len(fused_blocks(model)) == 2
