"""Magnitude pruning and MLCNN composition."""

import numpy as np
import pytest

from repro.core.prune import (
    capture_masks,
    combined_reduction,
    magnitude_prune,
    restore_masks,
    sparse_layer_multiplications,
)
from repro.models import build_model
from repro.models.specs import LayerSpec
from repro.nn.tensor import Tensor, no_grad


class TestMagnitudePrune:
    def test_sparsity_achieved(self):
        model = build_model("lenet5", seed=1)
        report = magnitude_prune(model, 0.5)
        assert abs(report.sparsity - 0.5) < 0.02

    def test_zero_sparsity_noop(self):
        model = build_model("lenet5", seed=1)
        before = [p.data.copy() for p in model.parameters()]
        report = magnitude_prune(model, 0.0)
        assert report.pruned_weights == 0
        for b, p in zip(before, model.parameters()):
            np.testing.assert_array_equal(b, p.data)

    def test_prunes_smallest_magnitudes(self):
        model = build_model("lenet5", seed=1)
        mags_before = np.concatenate(
            [np.abs(m.weight.data).ravel() for _, m in model.named_modules()
             if hasattr(m, "weight") and m.weight is not None and m.weight.ndim == 4]
        )
        threshold = np.quantile(mags_before, 0.3)
        magnitude_prune(model, 0.3)
        for _, mod in model.named_modules():
            w = getattr(mod, "weight", None)
            if w is not None and w.ndim == 4:
                surviving = np.abs(w.data[w.data != 0])
                if surviving.size:
                    assert surviving.min() >= threshold - 1e-12

    def test_biases_untouched(self):
        model = build_model("lenet5", seed=1)
        biases_before = {
            n: p.data.copy() for n, p in model.named_parameters() if n.endswith("bias")
        }
        magnitude_prune(model, 0.8)
        for n, p in model.named_parameters():
            if n.endswith("bias"):
                np.testing.assert_array_equal(p.data, biases_before[n])

    def test_model_still_runs(self):
        model = build_model("lenet5", seed=1)
        magnitude_prune(model, 0.7)
        with no_grad():
            out = model(Tensor(np.random.default_rng(0).normal(size=(1, 3, 32, 32))))
        assert np.isfinite(out.data).all()

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            magnitude_prune(build_model("lenet5"), 1.0)

    def test_no_convs_raises(self):
        from repro.nn import Linear, Sequential

        with pytest.raises(ValueError):
            magnitude_prune(Sequential(Linear(4, 2)), 0.5)


class TestMasks:
    def test_capture_and_restore(self, tiny_split):
        from repro.nn import functional as F
        from repro.nn.optim import SGD

        model = build_model("lenet5", num_classes=4, image_size=16, seed=1)
        magnitude_prune(model, 0.5)
        masks = capture_masks(model)
        # one training step moves pruned weights off zero...
        train_set, _ = tiny_split
        opt = SGD(model.parameters(), lr=0.1)
        logits = model(Tensor(train_set.images[:8]))
        F.cross_entropy(logits, train_set.labels[:8]).backward()
        opt.step()
        # ...and restore_masks puts them back
        reset = restore_masks(model, masks)
        assert reset > 0
        for name, mod in model.named_modules():
            if name in masks:
                assert (mod.weight.data[masks[name]] == 0).all()


class TestPruneAfterFusion:
    """A fused layer's conv sits outside the module tree (in
    ``FusedConvPool.source``); pruning must reach it through the fused
    module, which shares the conv's weight Tensor."""

    def test_pipeline_prunes_every_fused_layer(self):
        from repro.compiler import (
            FuseConvPoolPass,
            Pipeline,
            PrunePass,
            ReorderActivationPoolingPass,
            SetPoolingPass,
        )
        from repro.core.fusion import FusedConvPool

        pipe = Pipeline(
            [SetPoolingPass(), ReorderActivationPoolingPass(), FuseConvPoolPass(), PrunePass(0.5)]
        )
        model, report = pipe.run(build_model("lenet5", seed=1))
        fused = [m for _, m in model.named_modules() if isinstance(m, FusedConvPool)]
        assert fused
        for mod in fused:
            assert (mod.weight.data == 0).any()
            assert mod.weight is mod.source.conv.weight
        convs = [p.data for p in model.parameters() if p.ndim == 4]
        zeros = sum(int((w == 0).sum()) for w in convs)
        (prune,) = [r for r in report.records if r.name == "prune"]
        assert prune.rewrites == zeros
        assert zeros / sum(w.size for w in convs) == pytest.approx(0.5, abs=0.02)

    def test_masks_cover_fused_layers(self):
        from repro.core.fusion import FusedConvPool
        from repro.compiler import mlcnn_pipeline

        model, _ = mlcnn_pipeline().run(build_model("lenet5", seed=1))
        magnitude_prune(model, 0.5)
        masks = capture_masks(model)
        fused = {n: m for n, m in model.named_modules() if isinstance(m, FusedConvPool)}
        assert fused and set(fused) <= set(masks)
        for mod in fused.values():
            mod.weight.data[...] = 1.0
        assert restore_masks(model, masks) == sum(int(masks[n].sum()) for n in fused)
        for name, mod in fused.items():
            assert (mod.weight.data[masks[name]] == 0).all()


class TestSparseOpCounts:
    def _spec(self):
        return LayerSpec("c", 8, 8, 16, 3, padding=1, pool=2)

    def test_sparse_mults_scale_linearly(self):
        spec = self._spec()
        full = sparse_layer_multiplications(spec, 0.0, fused=True)
        half = sparse_layer_multiplications(spec, 0.5, fused=True)
        assert half == pytest.approx(full / 2)

    def test_combined_reduction_composes(self):
        """MLCNN (75%) + 50% sparsity -> 87.5% of baseline mults gone."""
        spec = self._spec()
        assert combined_reduction(spec, 0.5) == pytest.approx(0.875, abs=0.01)
        assert combined_reduction(spec, 0.0) == pytest.approx(0.75, abs=0.01)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            sparse_layer_multiplications(self._spec(), 1.5, fused=True)


class TestFusedLayerBaseline:
    def test_never_slower_than_dcnn(self):
        from repro.accel import get_config, simulate_network, simulate_network_layer_fused
        from repro.models import specs

        for model in ("lenet5", "vgg16"):
            layer_specs = specs.get_specs(model)
            cfg = get_config("dcnn-fp32")
            base = simulate_network(layer_specs, cfg)
            alwani = simulate_network_layer_fused(layer_specs, cfg)
            assert alwani.cycles <= base.cycles + 1e-9

    def test_same_arithmetic_as_dcnn(self):
        """Fused-layer execution moves less data but computes the same."""
        from repro.accel import get_config, simulate_network, simulate_network_layer_fused
        from repro.models import specs

        layer_specs = specs.get_specs("lenet5")
        cfg = get_config("dcnn-fp32")
        base = simulate_network(layer_specs, cfg)
        alwani = simulate_network_layer_fused(layer_specs, cfg)
        for b, a in zip(base.layers, alwani.layers):
            assert a.ops == b.ops
            assert a.dram_bytes <= b.dram_bytes

    def test_mlcnn_beats_fused_layer(self):
        """The paper's Section VIII claim: arithmetic elimination beats
        data-movement-only fusion."""
        from repro.accel import (
            get_config,
            simulate_network,
            simulate_network_layer_fused,
        )
        from repro.models import specs

        layer_specs = specs.get_specs("lenet5")
        base = simulate_network(layer_specs, get_config("dcnn-fp32"))
        alwani = simulate_network_layer_fused(layer_specs, get_config("dcnn-fp32"))
        mlcnn = simulate_network(layer_specs, get_config("mlcnn-fp32"))
        assert base.cycles / mlcnn.cycles > base.cycles / alwani.cycles
