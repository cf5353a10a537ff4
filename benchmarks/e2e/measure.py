"""The measured windows: the closed loop, host-speed normalization, metrics.

Host speed on a shared VM drifts by tens of percent within a minute, the
same across every workload, so raw times from two runs minutes apart are
not comparable.  Each window therefore interleaves short probes of host
speed with its ops, and every time metric is reported twice: raw, and
normalized to a fixed reference host (the op's time multiplied by the host
speed index measured around it).  The gated end-to-end metrics are the
normalized ones; the raw ones are printed beside them.
"""

from __future__ import annotations

import resource
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple

import numpy as np

from tracing import Recorder
from workloads import RTL_WEIGHTS, Accel, Op, Train, Workload, make

#: The reference host of normalized times: its probe runs the Python loop
#: at 2.0e7 iterations/s, a 256x256 f64 GEMM at 80 GFLOP/s and a copy
#: between two 8 MB buffers at 20 GB/s (about what the probe reads on the
#: 2-vCPU Xeon VM the benchmark was sized on when its host is quiet).
PROBE_REF = (2.0e7, 80.0, 20.0)
#: probe seconds at the start and the end of each window
PROBE_LONG = 0.5
#: probe seconds interleaved through the window, one every PROBE_EVERY s
PROBE_SHORT = 0.045
PROBE_EVERY = 0.5


class HostProbe:
    """Host speed index: the geometric mean of three speeds over ``PROBE_REF``.

    The three parts load what the workloads load: the interpreter, BLAS and
    memory bandwidth.  An index of 1.2 means the host currently runs 20%
    faster than the reference host.
    """

    def __init__(self) -> None:
        self.a = np.random.default_rng(0).standard_normal((256, 256))
        self.src = np.ones(2 ** 21, dtype=np.float32)
        self.dst = np.empty_like(self.src)

    @staticmethod
    def _loop() -> None:
        acc = 0
        for i in range(2000):
            acc += i * i

    def __call__(self, seconds: float) -> float:
        parts = (
            (self._loop, 2000.0),
            (lambda: self.a @ self.a, 2 * 256 ** 3 / 1e9),
            (lambda: np.copyto(self.dst, self.src), 2 * self.src.nbytes / 1e9),
        )
        index = 1.0
        for (fn, work), ref in zip(parts, PROBE_REF):
            n = 0
            t0 = perf_counter()
            while perf_counter() - t0 < seconds / 3:
                fn()
                n += 1
            index *= n * work / (perf_counter() - t0) / ref
        return index ** (1 / 3)


class Window(NamedTuple):
    """The ops of one window, when they started, and the host speed samples."""

    ops: List[Op]
    starts: np.ndarray  # op start, seconds after the window's first probe began
    seconds: float  # wall time from the first op to the end of the last
    probe_s: float  # part of ``seconds`` spent in interleaved probes
    probes: np.ndarray  # rows of (time, host speed index)

    def times(self, kind: str):
        """(items, raw op seconds, normalized op seconds) of the ops of ``kind``."""
        sel = np.array([o.kind == kind for o in self.ops], dtype=bool)
        raw = np.array([o.seconds for o in self.ops])[sel]
        speed = np.interp(self.starts[sel], self.probes[:, 0], self.probes[:, 1])
        return sum(o.items for o in self.ops if o.kind == kind), raw, raw * speed

    @property
    def calib_ratio(self) -> float:
        """Host speed at the window's end over its speed at the start."""
        return float(self.probes[-1, 1] / self.probes[0, 1])


def run_window(wl: Workload, seconds: float, min_ops: int, probe: HostProbe) -> Window:
    """Closed loop with one caller: the next op starts when the last returns."""
    ops: List[Op] = []
    starts: List[float] = []
    probes = []
    rec = wl.rec
    t0 = perf_counter()

    def sample(duration: float) -> float:
        t = perf_counter() - t0
        probes.append((t + duration / 2, probe(duration)))
        return perf_counter() - t0 - t

    sample(PROBE_LONG)
    first = perf_counter()
    next_probe = first + PROBE_EVERY
    probe_s = 0.0
    while True:
        if perf_counter() >= next_probe:
            probe_s += sample(PROBE_SHORT)
            next_probe = perf_counter() + PROBE_EVERY
        if rec is not None:
            rec.op = len(ops)
        starts.append(perf_counter() - t0)
        try:
            op = wl.step()
        except Exception as exc:  # a failed op is counted, not fatal
            op = Op("error", 0.0, 0, False)
            wl._fail(f"{type(exc).__name__}: {exc}")
        ops.append(op)
        if perf_counter() - first >= seconds and len(ops) >= min_ops and wl.at_boundary():
            break
    elapsed = perf_counter() - first
    sample(PROBE_LONG)
    return Window(ops, np.array(starts), elapsed, probe_s, np.array(probes))


def summarize(wl: Workload, win: Window) -> Dict[str, object]:
    """End-to-end metrics of an untraced window, raw and normalized."""
    items, raw, norm = win.times(wl.kind)
    out: Dict[str, object] = {
        "ops": len(win.ops),
        "latency_n": len(raw),
        "window_s": win.seconds,
        "calib_ratio": win.calib_ratio,
        "report": {k: list(v) for k, v in wl.report(win.ops).items()},
    }
    for prefix, times in (("", raw), ("norm_", norm)):
        p50, p90 = np.percentile(times, [50, 90]) * 1e3 if len(times) else (0.0, 0.0)
        out[prefix + "throughput"] = items / times.sum() if times.sum() else 0.0
        out[prefix + "latency_p50_ms"] = float(p50)
        out[prefix + "latency_p90_ms"] = float(p90)
    return out


def layer_metrics(wl: Workload, rec: Recorder, win: Window, untraced_norm_rate: float) -> Dict[str, float]:
    """Per-layer metrics of a traced window (0 where a layer does not run)."""
    agg = rec.aggregate()

    def count(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def dur(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    def per_call_ms(name):
        return self_s(name) / count(name) * 1e3 if count(name) else 0.0

    def share(name):
        return self_s(name) / op_wall if op_wall else 0.0

    op_wall = dur("op")
    n_ops = count("op")
    roots = count("model.train") + count("model.eval")
    m: Dict[str, float] = {
        "core.fused.self_ms_per_call": per_call_ms("core.fused"),
        "core.fused.calls_per_op": count("core.fused") / n_ops if n_ops else 0.0,
        "core.fused.share": share("core.fused"),
        "nn.conv.self_ms_per_call": per_call_ms("nn.conv"),
        "nn.conv.share": share("nn.conv"),
        "nn.linear.self_ms_per_call": per_call_ms("nn.linear"),
        "nn.other.self_ms_per_call": per_call_ms("nn.other"),
        # the root model span's self time: dispatch and Tensor wrapping
        "nn.residual_ms_per_call": (
            (self_s("model.train") + self_s("model.eval")) / roots * 1e3 if roots else 0.0
        ),
        "train.forward_ms_per_batch": 0.0,
        "train.optim_ms_per_batch": 0.0,
        "train.eval_ms_per_epoch": 0.0,
        "train.residual_ms_per_batch": 0.0,
        "accel.network_ms_per_point": 0.0,
        "accel.plan_tiling_us_per_layer": 0.0,
        "accel.simulate_layer_us_per_layer": 0.0,
        "accel.tiling_share": 0.0,
        "accel.tiling_repeat_frac": 0.0,
        "accel.rtl_ms_per_pass": 0.0,
        "accel.rtl_cycles_per_pass": 0.0,
    }
    batches = count("model.train")
    if isinstance(wl, Train) and batches:
        fwd, optim, ev = dur("model.train"), dur("train.optimizer"), dur("model.eval")
        m["train.forward_ms_per_batch"] = fwd / batches * 1e3
        m["train.optim_ms_per_batch"] = optim / batches * 1e3
        m["train.eval_ms_per_epoch"] = ev / n_ops * 1e3
        m["train.residual_ms_per_batch"] = (op_wall - fwd - optim - ev) / batches * 1e3
    if isinstance(wl, Accel):
        points = [o.seconds for o in win.ops if o.kind == "point"]
        rtl = [o for o in win.ops if o.kind == "rtl"]
        layers = count("accel.simulate_layer")
        if points:
            m["accel.network_ms_per_point"] = sum(points) / len(points) * 1e3
        if layers:
            m["accel.plan_tiling_us_per_layer"] = dur("accel.plan_tiling") / layers * 1e6
            m["accel.simulate_layer_us_per_layer"] = dur("accel.simulate_layer") / layers * 1e6
            m["accel.tiling_share"] = dur("accel.plan_tiling") / dur("accel.simulate_layer")
        if wl.tiling_calls:
            m["accel.tiling_repeat_frac"] = wl.tiling_repeats / wl.tiling_calls
        if rtl:
            # one pass streams one (output, input) channel pair through the datapath
            passes = len(rtl) * RTL_WEIGHTS[0] * RTL_WEIGHTS[1]
            m["accel.rtl_ms_per_pass"] = sum(o.seconds for o in rtl) / passes * 1e3
            m["accel.rtl_cycles_per_pass"] = sum(o.cycles for o in rtl) / passes
    items, _, norm = win.times(wl.kind)
    traced_norm_rate = items / norm.sum() if norm.sum() else 0.0
    # share of the loop's time (interleaved probes excluded) inside op spans
    loop_s = win.seconds - win.probe_s
    m["trace.coverage"] = op_wall / loop_s if loop_s else 0.0
    m["trace.overhead_pct"] = (
        (untraced_norm_rate / traced_norm_rate - 1.0) * 100 if traced_norm_rate else 0.0
    )
    return m


def setup_only(name: str, seed: int, refs: Dict[str, np.ndarray], t_start: float) -> Dict[str, float]:
    """Set up and warm up, then probe the host; for the median of setup_s."""
    wl = make(name, seed)
    wl.setup(refs)
    wl.warmup()
    setup_s = perf_counter() - t_start
    return {"setup_s": setup_s, "norm_setup_s": setup_s * HostProbe()(PROBE_LONG)}


def measure(
    name: str,
    seed: int,
    refs: Dict[str, np.ndarray],
    seconds: float,
    min_ops: int,
    trace_seconds: float,
    trace_path: Path,
    t_start: float,
) -> Dict[str, object]:
    """Set up, warm up, run the untraced window and optionally the traced one."""
    wl = make(name, seed)
    wl.setup(refs)
    warm = wl.warmup()
    setup_s = perf_counter() - t_start
    probe = HostProbe()
    win = run_window(wl, seconds, min_ops, probe)
    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "norm_setup_s": setup_s * win.probes[0, 1],
        # includes the 16 MB of the host probe's copy buffers
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **summarize(wl, win),
    }
    checked = warm + win.ops
    if trace_seconds > 0:
        rec = Recorder()
        undo = wl.instrument(rec)
        wl.rec = rec
        try:
            traced = run_window(wl, trace_seconds, 1, probe)
        finally:
            wl.rec = None
            undo()
        checked += traced.ops
        layers = layer_metrics(wl, rec, traced, result["norm_throughput"])
        layers.update(wl.timings)
        layers["compiler.compile_warm_ms"] = wl.compile_warm_ms()
        layers["host.calib_ratio"] = float(traced.probes[-1, 1] / win.probes[0, 1])
        rows, residual, wall = rec.table()
        rec.write_jsonl(trace_path, rec.spans[0][2] if rec.spans else 0.0)
        result["traced"] = {
            "window_s": traced.seconds,
            "ops": len(traced.ops),
            "layers": layers,
            "table": {"rows": rows, "residual_s": residual, "wall_s": wall},
        }
    result["attempted"] = len(checked) + wl.failed_checks
    result["failed"] = sum(not o.ok for o in checked) + wl.failed_checks
    result["errors"] = wl.errors
    return result
