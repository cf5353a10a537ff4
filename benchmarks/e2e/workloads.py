"""The five workloads of the end-to-end benchmark.

Each workload owns its seeded inputs, its set-up (what ``setup_s`` times),
one closed-loop op, the oracle that checks every op's output against
references computed in a separate process, and the instrumentation of its
traced window.  The program receives only the generated inputs; the seed
stays in the benchmark.

This module imports ``repro`` and is only imported by the child processes
``run.py`` starts.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import repro.accel.simulator as simulator
from repro import build_model, mlcnn_pipeline, reorder_activation_pooling, set_pooling
from repro.accel import RTLFusedConvPoolLayer, get_config, simulate_network
from repro.core.fusion import FusedConvPool, fused_conv_pool
from repro.data import synth_cifar10, train_val_split
from repro.experiments.accelerator import EVALUATED_MODELS, FIG13_15_PAPER
from repro.models.specs import get_specs
from repro.nn.layers import Conv2d, Linear
from repro.nn.tensor import Tensor, no_grad
from repro.train import TrainConfig, Trainer

from tracing import Recorder, instrument_attrs, instrument_model

EXPECTED_ACCEL = Path(__file__).resolve().parent / "expected_accel.json"

#: warm-up ops before the window; they count toward ``setup_s``
WARMUP_OPS = 3
#: inference oracle: max |y - ref| <= INFER_RTOL * max |ref|
INFER_RTOL = 1e-4
#: training oracle: the first fit's losses match the reference fit
TRAIN_RTOL = 1e-6
#: RTL oracle: absolute tolerance against the reference composition
RTL_ATOL = 1e-9
#: error messages kept per run
MAX_ERRORS = 5


class Op(NamedTuple):
    """One completed op of the closed loop."""

    kind: str
    seconds: float
    items: int
    ok: bool
    cycles: int = 0


def rate(ops: List[Op], kind: str) -> float:
    """Items per second of op time (benchmark glue between ops excluded)."""
    busy = sum(o.seconds for o in ops if o.kind == kind)
    return sum(o.items for o in ops if o.kind == kind) / busy if busy else 0.0


class Workload:
    """Base class: timing, warm-up, compile bookkeeping, failure notes."""

    kind = ""
    rate_metric = ("", "")  # (name, unit) of the workload's own throughput

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rec: Optional[Recorder] = None
        self.timings: Dict[str, float] = {
            "models.build_ms": 0.0,
            "data.synth_ms": 0.0,
            "compiler.compile_cold_ms": 0.0,
            "compiler.rewrites": 0,
            "compiler.fused_layers": 0,
        }
        self.errors: List[str] = []
        #: failed checks that belong to no single op
        self.failed_checks = 0
        self._recompile: Optional[Tuple[str, Callable]] = None

    # -- helpers ---------------------------------------------------------------

    def _call(self, kind: str, fn: Callable, *args):
        """Time ``fn(*args)``; inside a traced window it is the op span."""
        rec = self.rec
        sid = rec.begin("op", kind) if rec is not None else None
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            dt = perf_counter() - t0
            if sid is not None:
                rec.end(sid)
        return out, dt

    def _fail(self, message: str) -> None:
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def _build_and_compile(self, model_name: str, pipeline: Callable) -> None:
        t0 = perf_counter()
        model = build_model(model_name, seed=self.seed)
        self.timings["models.build_ms"] = (perf_counter() - t0) * 1e3
        t0 = perf_counter()
        model, report = pipeline().run(model)
        self.timings["compiler.compile_cold_ms"] = (perf_counter() - t0) * 1e3
        self.timings["compiler.rewrites"] = report.total_rewrites
        self.timings["compiler.fused_layers"] = sum(
            isinstance(m, FusedConvPool) for _, m in model.named_modules()
        )
        self.model = model
        self._recompile = (model_name, pipeline)

    def compile_warm_ms(self) -> float:
        """Time one more compile of a freshly built model: a plan-cache hit."""
        if self._recompile is None:
            return 0.0
        model_name, pipeline = self._recompile
        model = build_model(model_name, seed=self.seed)
        t0 = perf_counter()
        pipeline().run(model)
        return (perf_counter() - t0) * 1e3

    # -- interface ---------------------------------------------------------------

    def reference(self) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def setup(self, refs: Dict[str, np.ndarray]) -> None:
        raise NotImplementedError

    def step(self) -> Op:
        raise NotImplementedError

    def warmup(self) -> List[Op]:
        return [self.step() for _ in range(WARMUP_OPS)]

    def at_boundary(self) -> bool:
        """True where the window may end (the accel sweep ends on whole passes)."""
        return True

    def instrument(self, rec: Recorder) -> Callable[[], None]:
        raise NotImplementedError

    def report(self, ops: List[Op]) -> Dict[str, Tuple[float, str, str]]:
        """Workload-specific end-to-end metrics: name -> (value, unit, note)."""
        name, unit = self.rate_metric
        return {name: (rate(ops, self.kind), unit, "over op time")}


def layer_category(mod) -> str:
    if isinstance(mod, FusedConvPool):
        return "core.fused"
    if isinstance(mod, Conv2d):
        return "nn.conv"
    if isinstance(mod, Linear):
        return "nn.linear"
    return "nn.other"


def reference_model(model_name: str, seed: int):
    """The seeded model with no compiler: reordered avg-pool, f64 ``nn`` path."""
    return reorder_activation_pooling(set_pooling(build_model(model_name, seed=seed), "avg"))


class Infer(Workload):
    """One ``model(x)`` under ``no_grad`` on an fp32-lowered compiled model.

    Inputs come from a pool in which every batch size appears equally
    often; calls walk seeded permutations of the pool, so each call's
    batch size is a seeded uniform draw and every seed sees the same mix.
    """

    kind = "infer"
    rate_metric = ("images_per_s", "img/s")

    def __init__(self, seed: int, model: str, batch_sizes, copies: int) -> None:
        super().__init__(seed)
        self.model_name = model
        self.batch_sizes = tuple(batch_sizes)
        self.copies = copies

    def _inputs(self) -> List[np.ndarray]:
        rng = np.random.default_rng([self.seed, 1])
        sizes = rng.permutation(np.repeat(self.batch_sizes, self.copies))
        return [rng.standard_normal((int(b), 3, 32, 32)) for b in sizes]

    def _order(self):
        rng = np.random.default_rng([self.seed, 2])
        while True:
            yield from rng.permutation(len(self.inputs)).tolist()

    def reference(self) -> Dict[str, np.ndarray]:
        model = reference_model(self.model_name, self.seed).eval()
        with no_grad():
            return {f"logits_{i}": model(Tensor(x)).data for i, x in enumerate(self._inputs())}

    def setup(self, refs: Dict[str, np.ndarray]) -> None:
        t0 = perf_counter()
        self.inputs = self._inputs()
        self.timings["data.synth_ms"] = (perf_counter() - t0) * 1e3
        self._build_and_compile(
            self.model_name, lambda: mlcnn_pipeline(strict=False, lower_bits=32)
        )
        self.model.eval()
        self.refs = [refs[f"logits_{i}"] for i in range(len(self.inputs))]
        self.order = self._order()

    def _infer(self, x: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.model(Tensor(x)).data

    def step(self) -> Op:
        i = next(self.order)
        x = self.inputs[i]
        y, dt = self._call(self.kind, self._infer, x)
        ref = self.refs[i]
        bound = INFER_RTOL * float(np.max(np.abs(ref)))
        err = float(np.max(np.abs(y - ref))) if y.shape == ref.shape else math.inf
        ok = err <= bound
        if not ok:
            self._fail(f"input {i}: max|y - ref| = {err:.3g} > {bound:.3g}")
        return Op(self.kind, dt, x.shape[0], ok)

    def instrument(self, rec: Recorder) -> Callable[[], None]:
        return instrument_model(rec, self.model, layer_category)


class Train(Workload):
    """One ``Trainer.fit()`` of one epoch, continuing training each op."""

    kind = "fit"
    rate_metric = ("train_samples_per_s", "samples/s")

    def _data(self):
        data = synth_cifar10(samples_per_class=48, seed=self.seed)
        return train_val_split(data, val_fraction=0.25, seed=self.seed)

    def _config(self) -> TrainConfig:
        return TrainConfig(epochs=1, batch_size=32, lr=2e-3, optimizer="adam", seed=self.seed)

    def reference(self) -> Dict[str, np.ndarray]:
        train_set, val_set = self._data()
        model = reference_model("lenet5", self.seed)
        stats = Trainer(model, train_set, val_set, self._config()).fit()[-1]
        return {"train_loss": np.array(stats.train_loss), "val_loss": np.array(stats.val_loss)}

    def setup(self, refs: Dict[str, np.ndarray]) -> None:
        t0 = perf_counter()
        train_set, val_set = self._data()
        self.timings["data.synth_ms"] = (perf_counter() - t0) * 1e3
        self._build_and_compile("lenet5", mlcnn_pipeline)
        self.trainer = Trainer(self.model, train_set, val_set, self._config())
        self.samples = len(train_set)
        self.ref = (float(refs["train_loss"]), float(refs["val_loss"]))
        self.first = True

    def step(self) -> Op:
        history, dt = self._call(self.kind, self.trainer.fit)
        losses = (history[-1].train_loss, history[-1].val_loss)
        ok = all(math.isfinite(v) for v in losses)
        if not ok:
            self._fail(f"fit {len(history)}: non-finite loss {losses}")
        elif self.first and not all(
            math.isclose(v, r, rel_tol=TRAIN_RTOL) for v, r in zip(losses, self.ref)
        ):
            ok = False
            self._fail(f"first fit: losses {losses} != reference {self.ref}")
        self.first = False
        return Op(self.kind, dt, self.samples, ok)

    def instrument(self, rec: Recorder) -> Callable[[], None]:
        undo_model = instrument_model(rec, self.model, layer_category)
        undo_optim = instrument_attrs(
            rec, self.trainer.optimizer, {"step": "train.optimizer", "zero_grad": "train.optimizer"}
        )

        def undo() -> None:
            undo_optim()
            undo_model()

        return undo


ACCEL_MODELS = ("lenet5", "vgg16", "vgg19", "googlenet", "densenet", "resnet18")
ACCEL_CONFIGS = ("dcnn-fp32", "mlcnn-fp32", "mlcnn-fp16", "mlcnn-int8")
ACCEL_GRID = [
    (m, c, b, i)
    for m in ACCEL_MODELS
    for c in ACCEL_CONFIGS
    for b in (1, 4, 16)
    for i in (32, 64)
]
#: one RTL layer run after every this many design points
RTL_EVERY = 48
RTL_RUNS_PER_PASS = len(ACCEL_GRID) // RTL_EVERY
PASS_OPS = len(ACCEL_GRID) + RTL_RUNS_PER_PASS
#: the lenet5-C2 shape: 16x6x5x5 weights over a 14x14 input
RTL_WEIGHTS = (16, 6, 5, 5)
RTL_INPUT = (6, 14, 14)


def point_key(model: str, config: str, batch: int, image: int) -> str:
    return f"{model}/{config}/b{batch}/{image}px"


class Accel(Workload):
    """Design points of the accelerator model, and the RTL datapath.

    A pass walks a seeded permutation of the whole grid (6 models x 4
    Table VII configs x batch {1,4,16} x image {32,64}); after every 48
    points one RTL layer run follows.  The window ends on a whole pass, so
    every seed measures the same mix of points.
    """

    kind = "point"
    rate_metric = ("sim_layers_per_s", "layers/s")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pos = 0
        self.fused_layers: Dict[Tuple, List[Tuple[float, float, bool]]] = {}
        self.tiling_seen: set = set()
        self.tiling_calls = 0
        self.tiling_repeats = 0

    def _rtl_data(self):
        rng = np.random.default_rng([self.seed, 3])
        weights = rng.standard_normal(RTL_WEIGHTS)
        bias = rng.standard_normal(RTL_WEIGHTS[0])
        images = [rng.standard_normal(RTL_INPUT) for _ in range(RTL_RUNS_PER_PASS)]
        return weights, bias, images

    def reference(self) -> Dict[str, np.ndarray]:
        weights, bias, images = self._rtl_data()
        return {
            f"rtl_{k}": fused_conv_pool(
                Tensor(x[None]), Tensor(weights), Tensor(bias), pool=2, impl="reference"
            ).data[0]
            for k, x in enumerate(images)
        }

    def setup(self, refs: Dict[str, np.ndarray]) -> None:
        t0 = perf_counter()
        weights, bias, self.images = self._rtl_data()
        self.timings["data.synth_ms"] = (perf_counter() - t0) * 1e3
        self.expected = json.loads(EXPECTED_ACCEL.read_text())
        self.rtl = RTLFusedConvPoolLayer(weights, bias)
        self.refs = [refs[f"rtl_{k}"] for k in range(RTL_RUNS_PER_PASS)]
        self.order = np.random.default_rng([self.seed, 4])

    def simulate(self, idx: int):
        model, config, batch, image = ACCEL_GRID[idx]
        result, dt = self._call(
            self.kind, lambda: simulate_network(get_specs(model, image), get_config(config), batch)
        )
        if config in ("dcnn-fp32", "mlcnn-fp32") and (batch, image) == (1, 32):
            self.fused_layers.setdefault(
                (model, batch, image, config),
                [(l.cycles, l.energy.total_j, l.fused) for l in result.layers],
            )
        totals = [result.cycles, result.energy.total_j, sum(l.dram_bytes for l in result.layers)]
        return result, totals, dt

    def _point(self, idx: int) -> Op:
        result, totals, dt = self.simulate(idx)
        key = point_key(*ACCEL_GRID[idx])
        ok = totals == self.expected["points"][key]
        if not ok:
            self._fail(f"{key}: (cycles, energy J, DRAM bytes) {totals} != {self.expected['points'][key]}")
        return Op(self.kind, dt, len(result.layers), ok)

    def _rtl_run(self, k: int) -> Op:
        report, dt = self._call("rtl", self.rtl.run, self.images[k])
        err = float(np.max(np.abs(report.outputs - self.refs[k])))
        ok = err <= RTL_ATOL
        if not ok:
            self._fail(f"RTL run {k}: max|out - ref| = {err:.3g} > {RTL_ATOL}")
        return Op("rtl", dt, 1, ok, report.total_cycles_serial)

    def warmup(self) -> List[Op]:
        # Outside the pass stream, so the window starts on a pass boundary.
        return [self._point(int(i)) for i in self.order.choice(len(ACCEL_GRID), WARMUP_OPS)]

    def step(self) -> Op:
        pos = self.pos % PASS_OPS
        if pos == 0:
            self.perm = self.order.permutation(len(ACCEL_GRID))
            self.tiling_seen.clear()
        self.pos += 1
        block, r = divmod(pos, RTL_EVERY + 1)
        if r == RTL_EVERY:
            return self._rtl_run(block)
        return self._point(int(self.perm[block * RTL_EVERY + r]))

    def at_boundary(self) -> bool:
        return self.pos % PASS_OPS == 0

    def sim_ratios(self) -> Optional[Tuple[float, float]]:
        """Mean per-fused-layer speedup and energy efficiency, mlcnn-fp32 vs dcnn-fp32.

        Taken over the points the paper evaluates (Figs. 13 and 15: its four
        models at batch 1, 32x32), so the paper's averages compare directly.
        """
        speed, energy = [], []
        for model in EVALUATED_MODELS:
            base = self.fused_layers.get((model, 1, 32, "dcnn-fp32"))
            cand = self.fused_layers.get((model, 1, 32, "mlcnn-fp32"))
            if base is None or cand is None:
                return None
            for (bc, be, _), (cc, ce, fused) in zip(base, cand):
                if fused:
                    speed.append(bc / cc)
                    energy.append(be / ce)
        return math.fsum(speed) / len(speed), math.fsum(energy) / len(energy)

    def instrument(self, rec: Recorder) -> Callable[[], None]:
        names = {
            attr: span
            for attr, span in (
                ("simulate_layer", "accel.simulate_layer"),
                ("plan_tiling", "accel.plan_tiling"),
            )
            if hasattr(simulator, attr)
        }
        undo = instrument_attrs(rec, simulator, names)
        if "plan_tiling" in names:
            traced = simulator.plan_tiling

            def plan_tiling(spec, *args, **kwargs):
                key = (dataclasses.replace(spec, name=""), args, tuple(kwargs.items()))
                self.tiling_calls += 1
                if key in self.tiling_seen:
                    self.tiling_repeats += 1
                else:
                    self.tiling_seen.add(key)
                return traced(spec, *args, **kwargs)

            simulator.plan_tiling = plan_tiling
        return undo

    def report(self, ops: List[Op]) -> Dict[str, Tuple[float, str, str]]:
        rtl = [o for o in ops if o.kind == "rtl"]
        rtl_s = sum(o.seconds for o in rtl)
        out = {
            "sim_layers_per_s": (rate(ops, self.kind), "layers/s", "host time of design points"),
            "rtl_cycles_per_s": (
                sum(o.cycles for o in rtl) / rtl_s if rtl_s else 0.0,
                "cycles/s",
                f"simulated cycles per host second, {len(rtl)} RTL runs",
            ),
        }
        ratios = self.sim_ratios()
        if ratios is None:
            return out
        for metric, value, paper in zip(
            ("sim_speedup_fp32", "sim_energy_eff_fp32"), ratios, FIG13_15_PAPER["mlcnn-fp32"]
        ):
            out[metric] = (
                value,
                "x",
                f"unvalidated model vs dcnn-fp32; paper {paper}x, error {100 * (value / paper - 1):+.1f}%",
            )
            if value != self.expected[metric]:
                self.failed_checks += 1
                self._fail(f"{metric} {value!r} != expected {self.expected[metric]!r}")
        return out


def make(name: str, seed: int) -> Workload:
    if name == "lenet5-infer":
        return Infer(seed, "lenet5", range(1, 17), copies=4)
    if name == "vgg16-infer-b1":
        return Infer(seed, "vgg16", (1,), copies=8)
    if name == "vgg16-infer-b16":
        return Infer(seed, "vgg16", (16,), copies=4)
    if name == "lenet5-train":
        return Train(seed)
    if name == "accel-sweep":
        return Accel(seed)
    raise KeyError(f"unknown workload {name!r}")


def record_expected_accel() -> Dict[str, object]:
    """Simulate the whole accel grid at this commit and write the oracle file."""
    wl = Accel(seed=0)
    points = {}
    for idx, point in enumerate(ACCEL_GRID):
        _, totals, _ = wl.simulate(idx)
        points[point_key(*point)] = totals
    speedup, energy = wl.sim_ratios()
    expected = {"points": points, "sim_speedup_fp32": speedup, "sim_energy_eff_fp32": energy}
    EXPECTED_ACCEL.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return expected
