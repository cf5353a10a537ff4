"""Cycle/energy simulator: orderings the paper's results depend on."""

import numpy as np
import pytest

from repro.accel.config import get_config
from repro.accel.simulator import compare_networks, simulate_layer, simulate_network
from repro.models.specs import LayerSpec, get_specs


@pytest.fixture
def fusable():
    return LayerSpec("c", in_channels=16, out_channels=32, input_size=16, kernel=3, padding=1, pool=2)


@pytest.fixture
def plain():
    return LayerSpec("c", in_channels=16, out_channels=32, input_size=16, kernel=3, padding=1)


class TestSimulateLayer:
    def test_mlcnn_never_slower_on_fusable(self, fusable):
        base = simulate_layer(fusable, get_config("dcnn-fp32"))
        fused = simulate_layer(fusable, get_config("mlcnn-fp32"))
        assert fused.cycles <= base.cycles
        assert fused.fused and not base.fused

    def test_identical_on_non_fusable(self, plain):
        base = simulate_layer(plain, get_config("dcnn-fp32"))
        ml = simulate_layer(plain, get_config("mlcnn-fp32"))
        assert base.cycles == ml.cycles
        assert base.energy.total_j == pytest.approx(ml.energy.total_j)

    def test_cycles_max_of_compute_memory(self, fusable):
        r = simulate_layer(fusable, get_config("dcnn-fp32"))
        assert r.cycles == max(r.compute_cycles, r.memory_cycles)

    def test_energy_components_positive(self, fusable):
        r = simulate_layer(fusable, get_config("mlcnn-fp32"))
        e = r.energy
        assert e.dram_j > 0 and e.buffer_j > 0 and e.mac_j > 0 and e.static_j > 0

    def test_larger_pool_larger_mult_saving(self):
        small = LayerSpec("s", 8, 8, 17, 2, pool=2)
        big = LayerSpec("b", 8, 8, 17, 2, pool=8)
        def speedup(spec):
            b = simulate_layer(spec, get_config("dcnn-fp32"))
            f = simulate_layer(spec, get_config("mlcnn-fp32"))
            return b.ops.multiplications / f.ops.multiplications
        assert speedup(big) > speedup(small)

    def test_preprocessed_input_reduces_memory_cycles(self, fusable):
        raw = simulate_layer(fusable, get_config("mlcnn-fp32"), input_preprocessed=False)
        pre = simulate_layer(fusable, get_config("mlcnn-fp32"), input_preprocessed=True)
        assert pre.dram_bytes < raw.dram_bytes


class TestSimulateNetwork:
    @pytest.mark.parametrize("model", ["lenet5", "vgg16", "googlenet", "densenet"])
    def test_mlcnn_beats_dcnn_network_wide(self, model):
        specs = get_specs(model)
        base = simulate_network(specs, get_config("dcnn-fp32"))
        fused = simulate_network(specs, get_config("mlcnn-fp32"))
        assert fused.cycles < base.cycles
        assert fused.energy.total_j < base.energy.total_j

    def test_precision_ordering(self):
        """INT8 > FP16 > FP32 in speed (more slices, less traffic)."""
        specs = get_specs("vgg16")
        cycles = {
            name: simulate_network(specs, get_config(name)).cycles
            for name in ("mlcnn-fp32", "mlcnn-fp16", "mlcnn-int8")
        }
        assert cycles["mlcnn-int8"] < cycles["mlcnn-fp16"] < cycles["mlcnn-fp32"]

    def test_network_result_accessors(self):
        specs = get_specs("lenet5")
        res = simulate_network(specs, get_config("dcnn-fp32"))
        assert res.layer("C1").name == "C1"
        with pytest.raises(KeyError):
            res.layer("C99")
        assert res.seconds == pytest.approx(res.cycles / 1e9)


class TestCompare:
    def test_headline_speedups_in_paper_ballpark(self):
        """Average fused-layer FP32 speedup lands in [2.5, 6] (paper:
        3.2x); INT8 in [10, 24] (paper: 12.8x)."""
        speeds = {"mlcnn-fp32": [], "mlcnn-int8": []}
        for model in ("densenet", "vgg16", "googlenet", "lenet5"):
            specs = get_specs(model)
            fused_names = [s.name for s in specs if s.is_fusable]
            for cand in speeds:
                cmp = compare_networks(specs, get_config("dcnn-fp32"), get_config(cand))
                ls = cmp.layer_speedups()
                speeds[cand] += [ls[n] for n in fused_names]
        fp32 = np.mean(speeds["mlcnn-fp32"])
        int8 = np.mean(speeds["mlcnn-int8"])
        assert 2.5 <= fp32 <= 6.0
        assert 10.0 <= int8 <= 24.0
        # precision scaling factor ~4x between FP32 and INT8, as in the paper
        assert 3.0 <= int8 / fp32 <= 5.0

    def test_energy_efficiency_tracks_speedup(self):
        """Paper: 2.9x energy at 3.2x speed (ratio ~0.9); ours stays
        within [0.5, 1.2]."""
        specs = get_specs("googlenet")
        cmp = compare_networks(specs, get_config("dcnn-fp32"), get_config("mlcnn-fp32"))
        ratio = cmp.energy_efficiency / cmp.speedup
        assert 0.5 <= ratio <= 1.2

    def test_googlenet_stage5b_has_best_layer_speedup(self):
        """The paper's C9 (an 8x8-pooled GoogLeNet layer) tops Fig. 13."""
        specs = get_specs("googlenet")
        cmp = compare_networks(specs, get_config("dcnn-fp32"), get_config("mlcnn-fp32"))
        ls = cmp.layer_speedups()
        fused = {s.name: ls[s.name] for s in specs if s.is_fusable}
        best = max(fused, key=fused.get)
        assert best.startswith("5b")
        assert fused[best] > 5.0

    def test_densenet_transitions_speed_up(self):
        """Even with zero addition reuse, RME alone speeds DenseNet's
        transitions (Fig. 13 shows gains for DenseNet)."""
        specs = get_specs("densenet")
        cmp = compare_networks(specs, get_config("dcnn-fp32"), get_config("mlcnn-fp32"))
        ls = cmp.layer_speedups()
        for s in specs:
            if s.is_fusable:
                assert ls[s.name] > 1.5

    def test_layer_energy_ratios_all_ge_one(self):
        specs = get_specs("vgg16")
        cmp = compare_networks(specs, get_config("dcnn-fp32"), get_config("mlcnn-fp32"))
        for name, ratio in cmp.layer_energy_ratios().items():
            assert ratio >= 0.99, name


class TestBatchSimulation:
    def test_batch_amortizes_weight_traffic(self):
        """Per-image cycles shrink with batch on weight-heavy layers."""
        spec = LayerSpec("c", 256, 256, 8, 3, padding=1)  # weights >> activations
        cfg = get_config("dcnn-fp32")
        one = simulate_layer(spec, cfg, batch=1)
        many = simulate_layer(spec, cfg, batch=16)
        assert many.dram_bytes < 16 * one.dram_bytes
        assert many.cycles / 16 <= one.cycles

    def test_compute_scales_linearly(self):
        spec = LayerSpec("c", 16, 16, 16, 3, padding=1, pool=2)
        cfg = get_config("mlcnn-fp32")
        one = simulate_layer(spec, cfg, batch=1)
        four = simulate_layer(spec, cfg, batch=4)
        assert four.ops.multiplications == 4 * one.ops.multiplications

    def test_network_batch_speedup_preserved(self):
        """MLCNN still wins at batch 8 (batching helps both configs)."""
        specs = get_specs("vgg16")
        base = simulate_network(specs, get_config("dcnn-fp32"), batch=8)
        fused = simulate_network(specs, get_config("mlcnn-fp32"), batch=8)
        assert fused.cycles < base.cycles

    def test_invalid_batch(self):
        spec = LayerSpec("c", 4, 4, 8, 3)
        with pytest.raises(ValueError):
            simulate_layer(spec, get_config("dcnn-fp32"), batch=0)


class TestSimulatorTracing:
    def test_per_layer_attribution_events(self, enabled_tracer):
        specs = get_specs("lenet5")
        result = simulate_network(specs, get_config("mlcnn-fp32"))
        layer_events = [ev for ev in enabled_tracer.events if ev.name == "sim.layer"]
        assert len(layer_events) == len(specs) == len(result.layers)
        for ev, layer in zip(layer_events, result.layers):
            assert ev.attrs["layer"] == layer.name
            assert ev.attrs["cycles"] == layer.cycles
            assert ev.attrs["compute_cycles"] == layer.compute_cycles
            assert ev.attrs["memory_cycles"] == layer.memory_cycles
            assert ev.attrs["dram_bytes"] == layer.dram_bytes
            assert ev.attrs["energy_total_j"] == layer.energy.total_j
            assert ev.attrs["bound"] in ("compute", "memory")
            assert ev.attrs["config"] == "mlcnn-fp32"

    def test_network_span_wraps_layer_events(self, enabled_tracer):
        simulate_network(get_specs("lenet5"), get_config("dcnn-fp32"))
        net = next(ev for ev in enabled_tracer.events if ev.name == "sim.network")
        assert net.attrs["cycles"] > 0
        for ev in enabled_tracer.events:
            if ev.name == "sim.layer":
                assert ev.parent == net.id

    def test_compare_networks_span(self, enabled_tracer):
        compare_networks(
            get_specs("lenet5"), get_config("dcnn-fp32"), get_config("mlcnn-fp32")
        )
        names = [ev.name for ev in enabled_tracer.events]
        assert names.count("sim.compare") == 1
        assert names.count("sim.network") == 2

    def test_untraced_by_default(self):
        from repro.obs import get_tracer

        before = len(get_tracer().events)
        simulate_network(get_specs("lenet5"), get_config("mlcnn-fp32"))
        assert len(get_tracer().events) == before
