"""The ``--numerics`` CLI surface: one command, full health report.

``python -m repro.experiments --numerics`` must produce a per-layer
report covering forward *and* backward statistics, quantized-path clip
rates, and the measured reorder divergence — and with ``--obs`` it must
persist that report as ``numerics.jsonl`` rows tagged with ``model`` and
``bits``.
"""

import json

import pytest

from repro.experiments.__main__ import main


@pytest.fixture(autouse=True)
def _clean_global_recorders():
    yield
    from repro.obs import get_tracer

    get_tracer().disable()
    get_tracer().clear()


def _rows(run_dir):
    return [json.loads(line) for line in (run_dir / "numerics.jsonl").read_text().splitlines()]


class TestNumericsCLI:
    def test_lenet_report_json(self, tmp_path, capsys):
        rc = main(["--numerics", "lenet5", "--obs", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "lenet5" in printed
        rows = _rows(tmp_path)
        kinds = {row["kind"] for row in rows if row["type"] == "numerics"}
        assert kinds == {"forward", "backward"}
        clips = [row["name"] for row in rows if row["type"] == "quant_clip"]
        assert any(k.endswith("dorefa.act_clip") for k in clips)
        assert any(k.endswith("dorefa.weight_sat") for k in clips)
        (div,) = [row for row in rows if row["type"] == "reorder_divergence"]
        assert div["layers"] == 2
        assert div["end_to_end_max_abs"] > 0.0  # avg pooling genuinely diverges
        assert not [row for row in rows if row["type"] == "anomaly"]

    def test_jsonl_rows_typed_and_model_tagged(self, tmp_path):
        rc = main(["--numerics", "lenet5", "--obs", str(tmp_path)])
        assert rc == 0
        rows = _rows(tmp_path)
        types = {row["type"] for row in rows}
        assert {"numerics", "quant_clip", "reorder_divergence"} <= types
        assert all(row["model"] == "lenet5" and row["bits"] == 8 for row in rows)

    def test_honours_bits(self, tmp_path):
        rc = main(["--numerics", "lenet5", "--bits", "4", "--obs", str(tmp_path)])
        assert rc == 0
        assert {row["bits"] for row in _rows(tmp_path)} == {4}

    def test_unknown_model_rejected(self, capsys):
        rc = main(["--numerics", "resnet999"])
        assert rc == 2
        assert "unknown model" in capsys.readouterr().err
