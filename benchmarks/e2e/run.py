"""End-to-end benchmark of the MLCNN reproduction: five closed-loop workloads.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py                              # every workload
    python3 benchmarks/e2e/run.py --workload lenet5-infer --seed 1
    python3 benchmarks/e2e/run.py --workload accel-sweep --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --repeat 3                   # noise calibration

Each workload runs in fresh Python processes, one after another, so all
load comes from one process at a time:

1. a reference process computes the oracle's expected outputs with no
   compiler (accel-sweep design points are checked against
   ``expected_accel.json``);
2. two set-up-only processes repeat the set-up, so ``setup_s`` is the
   median of three;
3. the measured process sets up, warms up and runs the untraced window,
   then, unless ``--trace 0``, a separate traced window whose spans go to
   ``<out>/<workload>/trace.jsonl``.

Every op's output is checked.  The command prints every metric by name with
its unit, then one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` puts the end-to-end metrics of
``BENCHMARK.json`` in it, ``--trace 1`` the per-layer ones.  It exits 1 when
a check failed and 2 when the benchmark could not run.
"""

from time import perf_counter

T_START = perf_counter()  # process start for setup_s: before numpy and repro load

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: workload -> default window seconds
WORKLOADS = {
    "lenet5-infer": 20,
    "vgg16-infer-b1": 20,
    "vgg16-infer-b16": 25,
    "lenet5-train": 20,
    "accel-sweep": 20,
}
#: ops an untraced window runs at least, so that p90 has 10 samples beyond it
MIN_OPS = 100
#: the traced window is at most this long
TRACE_SECONDS = 5.0
#: set-ups per run whose median is setup_s
SETUPS = 3
#: a workload's processes together must end within this many seconds
WORKLOAD_TIMEOUT = 170.0
#: BLAS/OpenMP thread pools are pinned to the cores this process may use
THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: gated end-to-end metric -> key of one run's result
GATED = {
    "setup_s": "norm_setup_s",
    "norm_throughput": "norm_throughput",
    "norm_latency_p50_ms": "norm_latency_p50_ms",
    "norm_latency_p90_ms": "norm_latency_p90_ms",
    "peak_rss_mb": "peak_rss_mb",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0, help="input seed (1 is the held-out seed)")
    p.add_argument("--seconds", "--duration", dest="seconds", type=float, default=None,
                   help="untraced window length (default: per workload)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: untraced window only; 1: report the traced window's "
                        "per-layer metrics (default: run and print both)")
    p.add_argument("--min-ops", type=int, default=MIN_OPS,
                   help=f"ops an untraced window runs at least (default {MIN_OPS})")
    p.add_argument("--repeat", type=int, default=1, help="run the suite N times and report spreads")
    p.add_argument("--out", type=Path, default=HERE / "out", help="directory for traces and references")
    p.add_argument("--record-accel", action="store_true",
                   help="re-record expected_accel.json from the current simulator and exit")
    p.add_argument("--role", choices=("reference", "setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--refs", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--trace-seconds", type=float, default=0.0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def import_checked(module: str):
    """Import a benchmark module, making sure ``repro`` comes from this checkout."""
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"repro imported from {where}, not from {SRC}")
    return __import__(module)


def child_main(args) -> None:
    name = args.workload[0]
    measure = import_checked("measure")
    import numpy as np

    if args.role == "reference":
        refs = measure.make(name, args.seed).reference()
        args.refs.parent.mkdir(parents=True, exist_ok=True)
        with open(args.refs, "wb") as fh:
            np.savez(fh, **refs)
        out = {}
    else:
        refs = dict(np.load(args.refs))
        if args.role == "setup":
            out = measure.setup_only(name, args.seed, refs, T_START)
        else:
            out = measure.measure(
                name,
                args.seed,
                refs,
                seconds=args.seconds,
                min_ops=args.min_ops,
                trace_seconds=args.trace_seconds,
                trace_path=args.out / name / "trace.jsonl",
                t_start=T_START,
            )
            out["blas_threads"] = os.environ.get("OMP_NUM_THREADS")
    print(json.dumps(out))


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(role: str, name: str, args, refs: Path, deadline: float, extra=()) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role, "--workload", name,
        "--seed", str(args.seed), "--refs", str(refs), "--out", str(args.out), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: {role} process timed out after {exc.timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{name}: {role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args) -> dict:
    """Reference, set-ups and the measured process of one workload."""
    deadline = perf_counter() + WORKLOAD_TIMEOUT
    seconds = args.seconds if args.seconds is not None else WORKLOADS[name]
    trace_seconds = min(seconds, TRACE_SECONDS) if args.trace != 0 else 0.0
    refs = args.out / name / f"refs-seed{args.seed}.npz"
    spawn("reference", name, args, refs, deadline)
    if args.trace == 1:
        # Only per-layer metrics are reported: a short untraced window is
        # the overhead baseline, and setup_s needs no repeats.
        seconds, min_ops, setups = trace_seconds, 1, []
    else:
        min_ops = args.min_ops
        setups = [spawn("setup", name, args, refs, deadline) for _ in range(SETUPS - 1)]
    res = spawn(
        "measure", name, args, refs, deadline,
        ("--seconds", str(seconds), "--min-ops", str(min_ops), "--trace-seconds", str(trace_seconds)),
    )
    setups.append({k: res[k] for k in ("setup_s", "norm_setup_s")})
    res["setup_samples"] = [s["setup_s"] for s in setups]
    for key in ("setup_s", "norm_setup_s"):
        res[key] = statistics.median(s[key] for s in setups)
    return res


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def metric_values(res: dict, per_layer: bool) -> dict:
    """The values of the metrics BENCHMARK.json lists, from one run's result."""
    if per_layer:
        return dict(res["traced"]["layers"])
    return {metric: res[key] for metric, key in GATED.items()}


def print_run(res: dict, spec: dict) -> None:
    n = res["latency_n"]
    tail = "" if n >= MIN_OPS else "; fewer than 10 samples beyond p90"
    print(
        f"== {res['workload']}  seed {res['seed']}  window {res['window_s']:.1f} s  "
        f"ops {res['ops']}  blas_threads {res['blas_threads']}  "
        f"host.calib_ratio {res['calib_ratio']:.3f}"
    )
    print(f"  {'metric':<22} {'raw':>12} {'normalized':>12} {'unit':<10} note")
    rows = [
        ("setup_s", res["setup_s"], res["norm_setup_s"], "s",
         "median of " + ", ".join(f"{s:.3f}" for s in res["setup_samples"])),
        *((metric, value, None, unit, note) for metric, (value, unit, note) in res["report"].items()),
        ("latency_p50_ms", res["latency_p50_ms"], res["norm_latency_p50_ms"], "ms", f"per op, n={n}"),
        ("latency_p90_ms", res["latency_p90_ms"], res["norm_latency_p90_ms"], "ms", f"per op, n={n}{tail}"),
        ("throughput", res["throughput"], res["norm_throughput"], "items/s",
         f"= {next(iter(res['report']))}"),
        ("peak_rss_mb", res["peak_rss_mb"], None, "MB", "ru_maxrss of the measured process"),
        ("failed_frac", res["failed"] / res["attempted"], None, "ratio",
         f"{res['failed']} of {res['attempted']} checked ops"),
    ]
    for metric, raw, norm, unit, note in rows:
        norm_s = "" if norm is None else f"{norm:.6g}"
        print(f"  {metric:<22} {raw:>12.6g} {norm_s:>12} {unit:<10} {note}")
    for err in res["errors"]:
        print(f"  FAILED: {err}")
    if "traced" in res:
        print_trace(res["traced"], spec)


def print_trace(tr: dict, spec: dict) -> None:
    layers, table = tr["layers"], tr["table"]
    n_ops, wall = tr["ops"], table["wall_s"]
    print(
        f"  traced window {tr['window_s']:.1f} s, {n_ops} ops, trace.coverage "
        f"{layers['trace.coverage']:.3f}, trace.overhead_pct {layers['trace.overhead_pct']:.1f} %"
    )
    print(f"  {'self time per op':<46} {'calls/op':>9} {'ms/op':>10} {'share':>7}")
    rows = [(f"{name} {layer}", calls, self_s) for name, layer, calls, self_s in table["rows"][:15]]
    rest = table["rows"][15:]
    if rest:
        rows.append((f"({len(rest)} more rows)", sum(r[2] for r in rest), sum(r[3] for r in rest)))
    rows.append(("residual (op time outside layer spans)", n_ops, table["residual_s"]))
    for label, calls, self_s in rows:
        print(f"  {label:<46} {calls / n_ops:>9.2f} {self_s / n_ops * 1e3:>10.4f} {self_s / wall:>7.1%}")
    total = sum(r[3] for r in table["rows"]) + table["residual_s"]
    print(f"  {'= rows + residual':<46} {'':>9} {total / n_ops * 1e3:>10.4f} "
          f"(op wall {wall / n_ops * 1e3:.4f})")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<36} {layers[m['name']]:>14.6g} {m['unit']}")


def spread(values: list) -> tuple:
    """(median, IQR / median, max relative deviation) of a sample."""
    med = statistics.median(values)
    if not med:
        return med, 0.0, 0.0
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return med, (q[2] - q[0]) / med, max(abs(v - med) for v in values) / med


def print_repeats(runs: list, repeats: int) -> None:
    print(f"== spread over {repeats} repeats")
    print(f"  {'workload':<16} {'metric':<22} {'median':>12} {'IQR/med':>8} {'maxdev':>8} {'n':>3}")
    by_workload = {}
    for res in runs:
        by_workload.setdefault(res["workload"], []).append(res)
    for name, rs in by_workload.items():
        series = {m: [metric_values(r, False)[m] for r in rs] for m in GATED}
        for key in ("throughput", "latency_p50_ms", "latency_p90_ms"):
            series["raw " + key] = [r[key] for r in rs]
        for metric in rs[0]["report"]:
            series[metric] = [r["report"][metric][0] for r in rs]
        for metric, values in series.items():
            med, iqr, dev = spread(values)
            print(f"  {name:<16} {metric:<22} {med:>12.6g} {iqr:>8.2%} {dev:>8.2%} {len(values):>3}")


def result_line(runs: list, spec: dict, per_layer: bool) -> dict:
    """The final JSON object; metrics are medians over repeats."""
    units = {m["name"]: m["unit"] for m in spec["per_layer" if per_layer else "end_to_end"]}
    by_workload = {}
    for res in runs:
        by_workload.setdefault(res["workload"], []).append(metric_values(res, per_layer))
    metrics = {}
    for name, values in by_workload.items():
        prefix = "" if len(by_workload) == 1 else f"{name}/"
        for metric, unit in units.items():
            metrics[prefix + metric] = {
                "value": statistics.median(v[metric] for v in values),
                "unit": unit,
            }
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role:
        child_main(args)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.record_accel:
        expected = import_checked("workloads").record_expected_accel()
        print(f"recorded {len(expected['points'])} design points")
        return 0
    args.out = args.out.resolve()  # children run from the repository root
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(GATED) != {m["name"] for m in spec["end_to_end"]}:
        print("error: BENCHMARK.json end_to_end metrics differ from the ones run.py gates", file=sys.stderr)
        return 2
    runs = []
    try:
        for _ in range(args.repeat):
            for name in args.workload or list(WORKLOADS):
                res = run_workload(name, args)
                print_run(res, spec)
                runs.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.repeat > 1:
        print_repeats(runs, args.repeat)
    line = result_line(runs, spec, per_layer=args.trace == 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
