"""FLOP auditing and report formatting."""

import numpy as np
import pytest

from repro.analysis.flops import count_model_macs, layer_table, model_flops
from repro.analysis.report import ExperimentReport, format_percent, format_table
from repro.compiler import mlcnn_pipeline
from repro.models import build_model, specs
from repro.obs import get_recorder


class TestModelFlops:
    def test_fused_less_than_dense(self):
        layer_specs = specs.get_specs("vgg16")
        assert model_flops(layer_specs, fused=True) < model_flops(layer_specs, fused=False)

    def test_positive_for_all_models(self):
        for model in specs.MODEL_SPECS:
            assert model_flops(specs.get_specs(model)) > 0


class TestCountModelMacs:
    def test_counts_known_conv(self):
        from repro.nn import Conv2d, Sequential

        model = Sequential(Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0)))
        macs = count_model_macs(model, (1, 3, 16, 16))
        assert macs == 16 * 16 * 8 * 3 * 9

    def test_counts_linear(self):
        from repro.nn import Flatten, Linear, Sequential

        model = Sequential(Flatten(), Linear(12, 5, rng=np.random.default_rng(0)))
        macs = count_model_macs(model, (2, 3, 2, 2))
        assert macs == 12 * 5 * 2

    def test_stops_collecting_on_error(self):
        model = build_model("lenet5")
        with pytest.raises(Exception):
            count_model_macs(model, (1, 3, 7))  # bad shape triggers error
        assert not get_recorder().enabled

    def test_scales_with_batch(self):
        model = build_model("lenet5")
        m1 = count_model_macs(model, (1, 3, 32, 32))
        m4 = count_model_macs(model, (4, 3, 32, 32))
        assert m4 == 4 * m1

    def test_fused_count_is_rme_reduced_and_lowering_keeps_it(self):
        """A compiled lenet5 performs the dense MACs minus 1 - 1/p^2 of
        its fused convs' MACs, whichever kernel runs the layers."""
        dense = count_model_macs(build_model("lenet5"), (1, 3, 32, 32))
        assert dense == 651_720
        fused_conv_macs = 592_800  # the two 2x2-pooled convs, dense
        counts = {}
        for bits in (32, 64):
            model, _ = mlcnn_pipeline(lower_bits=bits).run(build_model("lenet5"))
            counts[bits] = count_model_macs(model, (1, 3, 32, 32))
        assert counts[32] == counts[64] == dense - fused_conv_macs * 3 // 4 == 207_120


class TestLayerTable:
    def test_row_per_layer(self):
        layer_specs = specs.get_specs("lenet5")
        rows = layer_table(layer_specs)
        assert len(rows) == len(layer_specs)
        assert {r["layer"] for r in rows} == {s.name for s in layer_specs}

    def test_non_fusable_rows_report_zero_reduction(self):
        rows = layer_table(specs.get_specs("lenet5"))
        c3 = next(r for r in rows if r["layer"] == "C3")
        assert not c3["fusable"]
        assert c3["mult_reduction"] == 0.0

    def test_fusable_rows_report_75_percent_mults(self):
        rows = layer_table(specs.get_specs("lenet5"))
        c1 = next(r for r in rows if r["layer"] == "C1")
        assert c1["fusable"]
        assert abs(c1["mult_reduction"] - 0.75) < 0.02


class TestReportFormatting:
    def test_format_percent(self):
        assert format_percent(0.755) == "75.5%"
        assert format_percent(0.5, digits=0) == "50%"

    def test_format_table_aligned(self):
        text = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l.rstrip()) for l in lines[:2])) >= 1
        assert "333" in lines[3]

    def test_experiment_report_render(self):
        rep = ExperimentReport("Table X", "demo", headers=["col"])
        rep.add_row("val")
        rep.add_note("a note")
        text = rep.render()
        assert "Table X" in text and "val" in text and "a note" in text

    def test_show_prints(self, capsys):
        rep = ExperimentReport("T", "d", headers=["c"])
        rep.add_row(1)
        rep.show()
        assert "T" in capsys.readouterr().out
