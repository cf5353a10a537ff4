"""NumericsCollector end-to-end: the instrumented NaN/inf watchdog,
quantized-path attribution, the exports, and the reorder-divergence
probe.
"""

import json
import logging

import numpy as np
import pytest

from repro.core.quantize import QuantConfig, quantize_activations, quantize_model
from repro.models.registry import build_model
from repro.models.reorder import conv_pool_blocks, set_pooling
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.obs.instrument import deinstrument_model, instrument_model
from repro.obs.numerics import (
    NumericsCollector,
    NumericsError,
    active_collectors,
    record_quant_event,
    reorder_divergence,
)


@pytest.fixture
def lenet():
    return build_model("lenet5", seed=0)


@pytest.fixture
def probe():
    return np.random.default_rng(0).normal(size=(2, 3, 32, 32))


def _forward_backward(model, probe):
    logits = model(Tensor(probe))
    loss = F.cross_entropy(logits, np.zeros(len(probe), dtype=np.int64))
    loss.backward()
    return logits


class TestCollection:
    def test_nan_and_inf_counted_exactly(self):
        col = NumericsCollector()
        arr = np.arange(12, dtype=np.float64)
        arr[[2, 5, 7]] = [np.nan, np.inf, -np.inf]
        with col:
            col.observe("layer", "forward", np.zeros(4))  # finite: no anomaly
            assert col.first_anomaly is None
            col.observe("layer", "forward", arr)
        assert col.first_anomaly["nan"] == 1
        assert col.first_anomaly["inf"] == 2
        assert (col.first_anomaly["layer"], col.first_anomaly["kind"]) == ("layer", "forward")

    def test_backward_nan_reported_at_fc_out(self, lenet, probe):
        """A clean forward, then a NaN upstream gradient into the logits:
        the first non-finite array is the backward of the output layer."""
        col = NumericsCollector()
        instrument_model(lenet, numerics=col)
        with col:
            logits = lenet(Tensor(probe))
            assert col.first_anomaly is None
            logits.backward(np.full(logits.shape, np.nan))
        anomaly = col.first_anomaly
        assert (anomaly["layer"], anomaly["kind"]) == ("fc_out", "backward")
        assert anomaly["nan"] == logits.data.size and anomaly["inf"] == 0

    def test_disabled_collector_records_nothing(self, lenet, probe):
        col = NumericsCollector()
        instrument_model(lenet, numerics=col)
        lenet.features[0].conv.weight.data[0, 0, 0, 0] = np.nan
        _forward_backward(lenet, probe)  # NaN everywhere, never enabled
        assert col.first_anomaly is None and col.quant == {}
        col.observe("x", "forward", np.array([np.nan]))  # direct call, still disabled
        assert col.first_anomaly is None and col.quant == {}

    def test_deinstrument_restores_forward(self, lenet, probe):
        col = NumericsCollector()
        ref = lenet(Tensor(probe)).data
        instrument_model(lenet, numerics=col)
        deinstrument_model(lenet)
        with col:
            out = lenet(Tensor(probe)).data
            lenet(Tensor(np.full_like(probe, np.nan)))  # nothing watches it now
        np.testing.assert_array_equal(out, ref)
        assert col.first_anomaly is None

    def test_report_and_jsonl_shapes(self, probe):
        model = build_model("lenet5", seed=0)
        set_pooling(model, "avg")
        quantize_model(model, QuantConfig(8, 8))
        col = NumericsCollector()
        instrument_model(model, numerics=col)
        reorder_divergence(model, probe, collector=col)
        with col:
            model(Tensor(probe))
        rep = col.summary_report()
        assert rep.headers == ["name", "clipped", "total", "rate"]
        assert [row[0] for row in rep.rows] == sorted(col.quant)
        assert any("reorder divergence" in note for note in rep.notes)
        assert "no NaN/inf" in rep.notes[-1]
        rows = [json.loads(line) for line in col.to_jsonl(model="lenet5").splitlines()]
        types = ["quant_clip"] * len(col.quant) + ["reorder_divergence"]
        assert [row["type"] for row in rows] == types
        assert all(row["model"] == "lenet5" for row in rows)
        name = rows[0]["name"]
        assert rows[0] == {"type": "quant_clip", "model": "lenet5", "name": name,
                           **col.quant[name].as_dict()}
        with col:
            col.observe("fc_out", "forward", np.array([np.inf]))
        last = json.loads(col.to_jsonl().splitlines()[-1])
        assert last["type"] == "anomaly" and last["inf"] == 1
        assert "ANOMALY: fc_out.forward (0 NaN, 1 inf)" in col.summary_report().notes[-1]

    def test_enable_disable_registry(self):
        col = NumericsCollector()
        assert col not in active_collectors()
        with col:
            assert col in active_collectors()
            assert col.enabled
        assert col not in active_collectors()
        assert not col.enabled


class TestWatchdog:
    def test_raise_policy_names_layer_and_batch(self, lenet, probe):
        col = NumericsCollector(watchdog="raise")
        instrument_model(lenet, numerics=col)
        # inject a NaN into the first conv's weights: the forward output
        # of that layer is the first non-finite tensor the model produces
        lenet.features[0].conv.weight.data[0, 0, 0, 0] = np.nan
        with col, pytest.raises(NumericsError) as err:
            col.set_context(epoch=3, batch=7)
            lenet(Tensor(probe))
        assert "features.0" in str(err.value)
        assert "epoch 3" in str(err.value)
        assert "batch 7" in str(err.value)
        assert err.value.layer.endswith("features.0.conv")
        assert err.value.kind == "forward"

    def test_record_policy_stores_first_anomaly(self, lenet, probe):
        col = NumericsCollector(watchdog="record")
        instrument_model(lenet, numerics=col)
        lenet.features[0].conv.weight.data[0, 0, 0, 0] = np.nan
        with col:
            lenet(Tensor(probe))  # must not raise
        assert col.first_anomaly is not None
        assert col.first_anomaly["layer"].endswith("features.0.conv")
        assert col.first_anomaly["nan"] > 0

    def test_warn_policy_logs_once_per_stream(self, lenet, probe, caplog):
        col = NumericsCollector(watchdog="warn")
        instrument_model(lenet, numerics=col)
        lenet.features[0].conv.weight.data[0, 0, 0, 0] = np.nan
        with caplog.at_level(logging.WARNING, logger="repro.obs.numerics"), col:
            lenet(Tensor(probe))
            lenet(Tensor(probe))  # second pass: same streams, no new warning
        conv_warnings = [
            r for r in caplog.records if "features.0.conv" in r.getMessage()
        ]
        assert len(conv_warnings) == 1

    def test_check_value_scalar(self):
        col = NumericsCollector(watchdog="raise")
        with col:
            col.check_value("train", "loss", 1.5)  # finite: fine
            with pytest.raises(NumericsError) as err:
                col.check_value("train", "loss", float("nan"))
        assert "train.loss" in str(err.value)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            NumericsCollector(watchdog="explode")


class TestQuantAttribution:
    def test_events_attributed_to_running_layer(self, probe):
        model = build_model("lenet5", seed=0)
        set_pooling(model, "avg")
        quantize_model(model, QuantConfig(8, 8))
        col = NumericsCollector()
        instrument_model(model, numerics=col)
        with col:
            model.eval()
            from repro.nn.tensor import no_grad

            with no_grad():
                model(Tensor(probe))
        attributed = [k for k in col.quant if "/" in k]
        assert any(k.endswith("dorefa.weight_sat") for k in attributed)
        assert any(k.endswith("dorefa.act_clip") for k in attributed)
        for counter in col.quant.values():
            assert 0.0 <= counter.rate <= 1.0
            assert counter.clipped <= counter.total

    def test_unattributed_events_without_instrumentation(self):
        col = NumericsCollector()
        with col:
            quantize_activations(np.array([-0.5, 0.5, 1.5]), 8)
        assert "dorefa.act_clip" in col.quant
        counter = col.quant["dorefa.act_clip"]
        assert counter.clipped == 2
        assert counter.low == 1 and counter.high == 1
        assert counter.total == 3

    def test_record_quant_event_noop_when_nothing_enabled(self):
        assert active_collectors() == []
        record_quant_event("dorefa.act_clip", 1, 10)  # must not blow up

    def test_clip_rate_aggregation(self):
        col = NumericsCollector()
        with col:
            col.record_quant("a/dorefa.act_clip", clipped=1, total=10)
            col.record_quant("b/dorefa.act_clip", clipped=3, total=10)
            col.record_quant("b/dorefa.weight_sat", clipped=9, total=10)
        assert col.clip_rate("dorefa.act_clip") == pytest.approx(0.2)
        assert col.clip_rate("dorefa.weight_sat") == pytest.approx(0.9)
        assert col.clip_rate("nonexistent") == 0.0


class TestReorderDivergence:
    def test_max_pooling_diverges_exactly_zero(self, probe):
        """ReLU and max-pool commute: the reorder is *exact* for max
        pooling — the probe must report 0 everywhere."""
        model = build_model("lenet5", seed=0)
        set_pooling(model, "max")
        result = reorder_divergence(model, probe)
        assert result["layers"] == 2
        assert result["end_to_end_max_abs"] == 0.0
        assert result["top1_flip_rate"] == 0.0
        assert all(v == 0.0 for v in result["per_layer"].values())

    def test_avg_pooling_genuinely_diverges(self, probe):
        """ReLU(avg(x)) != avg(ReLU(x)) whenever a window mixes signs
        (Jensen): avg-pool LeNet must show nonzero divergence."""
        model = build_model("lenet5", seed=0)
        set_pooling(model, "avg")
        result = reorder_divergence(model, probe)
        assert result["end_to_end_max_abs"] > 0.0
        assert all(v > 0.0 for v in result["per_layer"].values())

    def test_model_state_fully_restored(self, probe):
        model = build_model("lenet5", seed=0)
        set_pooling(model, "avg")
        orders_before = [b.order for b in conv_pool_blocks(model)]
        model.train()
        ref = None
        reorder_divergence(model, probe)
        assert [b.order for b in conv_pool_blocks(model)] == orders_before
        assert model.training
        # forward is byte-identical to an untouched model
        model.eval()
        out = model(Tensor(probe)).data
        fresh = build_model("lenet5", seed=0)
        set_pooling(fresh, "avg")
        fresh.eval()
        np.testing.assert_array_equal(out, fresh(Tensor(probe)).data)

    def test_quantized_model_supported(self, probe):
        model = build_model("lenet5", seed=0)
        set_pooling(model, "avg")
        quantize_model(model, QuantConfig(8, 8))
        col = NumericsCollector()
        result = reorder_divergence(model, probe, collector=col)
        assert result["layers"] == 2
        assert result["end_to_end_max_abs"] > 0.0
        assert col.divergence is result

    def test_composes_with_instrumentation(self, probe):
        """The probe's temporary capture hooks must not clobber
        instrument_model wrappers."""
        model = build_model("lenet5", seed=0)
        set_pooling(model, "avg")
        col = NumericsCollector()
        instrument_model(model, numerics=col)
        reorder_divergence(model, probe)
        with col:
            model(Tensor(np.full_like(probe, np.nan)))
        assert col.first_anomaly["kind"] == "forward"

    def test_model_without_pooled_blocks(self, probe):
        model = build_model("lenet5", seed=0)
        for b in conv_pool_blocks(model):
            b.pool = None
        result = reorder_divergence(model, probe)
        assert result["layers"] == 0
        assert result["end_to_end_max_abs"] == 0.0
