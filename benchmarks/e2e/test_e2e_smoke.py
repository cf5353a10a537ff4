"""Smoke test of the end-to-end benchmark: short windows on every workload.

Run from the repository root (takes a few minutes)::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SHORT = ("--duration", "0.5", "--min-ops", "3")
#: per-layer metric prefixes of the layers each workload runs: all must be > 0
INFER = ("models.", "data.", "compiler.", "core.", "nn.")
RUNS = {
    "lenet5-infer": INFER,
    "vgg16-infer-b1": INFER,
    "vgg16-infer-b16": INFER,
    "lenet5-train": INFER + ("train.",),
    "accel-sweep": ("data.", "accel."),
}


def bench(tmp_path, *args, env=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--out", str(tmp_path / "out"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_no_failures(tmp_path, workload, seed):
    proc = bench(tmp_path, "--workload", workload, "--seed", str(seed), *SHORT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = result(proc)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert re.search(r"^  failed_frac\s+0\s+ratio", proc.stdout, re.M)
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0
    layers = {}
    for m in SPEC["per_layer"]:
        pattern = rf"^  {re.escape(m['name'])}\s+(\S+) {re.escape(m['unit'])}$"
        found = re.search(pattern, proc.stdout, re.M)
        assert found, m["name"]
        layers[m["name"]] = float(found.group(1))
    for name, value in layers.items():
        if name.startswith(RUNS[workload]):
            assert value > 0, name
    assert layers["trace.coverage"] >= 0.95
    assert (tmp_path / "out" / workload / "trace.jsonl").stat().st_size > 0


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_holds_exactly_the_listed_metrics(tmp_path, trace, kind):
    proc = bench(tmp_path, "--workload", "lenet5-infer", "--trace", trace, *SHORT)
    assert proc.returncode == 0, proc.stderr
    line = result(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    units = {name: m["unit"] for name, m in line["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}


def test_wrong_kernel_output_is_counted_and_fails_the_run(tmp_path):
    inject = tmp_path / "inject"
    inject.mkdir()
    # Loaded at start-up by every process the benchmark starts.
    (inject / "sitecustomize.py").write_text(textwrap.dedent("""
        from repro.core.kernels.nhwc import F32NHWCKernel

        _run_nchw = F32NHWCKernel.run_nchw

        def _wrong(self, *args, **kwargs):
            return _run_nchw(self, *args, **kwargs) * 1.5

        F32NHWCKernel.run_nchw = _wrong
    """))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(inject), str(ROOT / "src")]))
    proc = bench(tmp_path, "--workload", "lenet5-infer", "--trace", "0", *SHORT, env=env)
    assert proc.returncode == 1, proc.stderr
    line = result(proc)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] > 0
    assert "FAILED: input" in proc.stdout


def test_repeat_reports_spread(tmp_path):
    proc = bench(tmp_path, "--workload", "lenet5-infer", "--repeat", "2", "--trace", "0", *SHORT)
    assert proc.returncode == 0, proc.stderr
    assert "== spread over 2 repeats" in proc.stdout
    assert re.search(r"^  lenet5-infer\s+images_per_s\s", proc.stdout, re.M)


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lenet5-infer",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
