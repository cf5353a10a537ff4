"""Weight-input-reuse dataflow schedule (Section VI, Fig. 8).

Generates the explicit tile-level schedule the MLCNN controller
executes and models its double-buffered timeline:

* weights are loaded into PE registers and *not replaced until they
  have been multiplied with every input of their tile* (weight reuse);
* input-channel tiles are visited consecutively for one output tile so
  partial sums stay in the output buffer (``I1 -> I2, I3 -> I4``);
* loads of the next tile overlap with compute on the current one
  (multi-bank buffer double buffering), so the layer's makespan is
  ``max(total_load, total_compute) + first_load``.

The schedule is consumed by tests that check the paper's ordering
invariants and by :func:`timeline` for makespan estimates consistent
with :mod:`repro.accel.simulator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Literal, Optional, Sequence, Tuple

from repro.accel.tiling import TilingPlan
from repro.models.specs import LayerSpec
from repro.nn.counters import get_recorder

StepKind = Literal["load_weights", "load_input", "compute", "store_output"]


@dataclass(frozen=True)
class ScheduleStep:
    """One controller action over a tile.

    Indices identify the tile: ``m`` output-channel tile, ``n``
    input-channel tile, ``r``/``c`` spatial tile.  ``cost`` is in
    cycles (loads: bytes / bandwidth; compute: MACs / slices).
    """

    kind: StepKind
    m: int = -1
    n: int = -1
    r: int = -1
    c: int = -1
    cost: float = 0.0


def weight_input_reuse_schedule(
    spec: LayerSpec,
    plan: TilingPlan,
    bytes_per_element: float = 4.0,
    dram_bytes_per_cycle: float = 16.0,
    mac_slices: int = 32,
) -> List[ScheduleStep]:
    """Enumerate the tile schedule for one layer.

    Loop order (outer to inner): spatial tile (r, c) -> output-channel
    tile (m) -> input-channel tile (n).  Weights for (m, n) load once
    per visit and serve the whole input tile; the output tile stores
    once after the last input-channel tile (partial sums accumulate on
    chip).
    """
    tm_trips, tn_trips, tr_trips, tc_trips = plan.trips(spec)
    k, s = spec.kernel, spec.stride
    in_tile_elems = plan.tn * (plan.tr * s + k - 1) * (plan.tc * s + k - 1)
    w_tile_elems = plan.tm * plan.tn * k * k
    out_tile_elems = plan.tm * plan.tr * plan.tc
    macs_per_tile = plan.tm * plan.tn * plan.tr * plan.tc * k * k

    load_in = in_tile_elems * bytes_per_element / dram_bytes_per_cycle
    load_w = w_tile_elems * bytes_per_element / dram_bytes_per_cycle
    store_out = out_tile_elems * bytes_per_element / dram_bytes_per_cycle
    compute = macs_per_tile / mac_slices

    steps: List[ScheduleStep] = []
    for r in range(tr_trips):
        for c in range(tc_trips):
            for m in range(tm_trips):
                for n in range(tn_trips):
                    steps.append(ScheduleStep("load_weights", m=m, n=n, r=r, c=c, cost=load_w))
                    steps.append(ScheduleStep("load_input", m=m, n=n, r=r, c=c, cost=load_in))
                    steps.append(ScheduleStep("compute", m=m, n=n, r=r, c=c, cost=compute))
                steps.append(ScheduleStep("store_output", m=m, r=r, c=c, cost=store_out))
    return steps


def validate_schedule(steps: Sequence[ScheduleStep], plan_trips: Tuple[int, int, int, int]) -> None:
    """Check the paper's ordering invariants; raises on violation.

    * every compute is immediately preceded by the loads of its tile;
    * each (m, r, c) output tile is stored exactly once, after all its
      input-channel tiles have been computed;
    * weights are never reused across input tiles without a reload
      (weight-stationary within a tile only).
    """
    tm, tn, tr, tc = plan_trips
    stored = set()
    computed: dict = {}
    loaded_w: Optional[Tuple[int, int, int, int]] = None
    loaded_i: Optional[Tuple[int, int, int, int]] = None
    for step in steps:
        key = (step.m, step.n, step.r, step.c)
        if step.kind == "load_weights":
            loaded_w = key
        elif step.kind == "load_input":
            loaded_i = key
        elif step.kind == "compute":
            if loaded_w != key or loaded_i != key:
                raise ValueError(f"compute on {key} before its loads")
            out_key = (step.m, step.r, step.c)
            if out_key in stored:
                raise ValueError(f"compute for already-stored output tile {out_key}")
            computed[out_key] = computed.get(out_key, 0) + 1
        elif step.kind == "store_output":
            out_key = (step.m, step.r, step.c)
            if computed.get(out_key, 0) != tn:
                raise ValueError(
                    f"output tile {out_key} stored after {computed.get(out_key, 0)} "
                    f"of {tn} input tiles"
                )
            if out_key in stored:
                raise ValueError(f"output tile {out_key} stored twice")
            stored.add(out_key)
    expected = {(m, r, c) for m in range(tm) for r in range(tr) for c in range(tc)}
    missing = expected - stored
    if missing:
        raise ValueError(f"output tiles never stored: {sorted(missing)[:4]}...")


@dataclass
class Timeline:
    """Makespan decomposition of a schedule."""

    load_cycles: float
    compute_cycles: float
    store_cycles: float
    makespan: float

    @property
    def compute_bound(self) -> bool:
        return self.compute_cycles >= self.load_cycles + self.store_cycles


def timeline(steps: Sequence[ScheduleStep]) -> Timeline:
    """Double-buffered makespan: memory and compute streams overlap;
    the slower stream dominates, plus the first load (pipeline fill)."""
    load = sum(s.cost for s in steps if s.kind in ("load_weights", "load_input"))
    compute = sum(s.cost for s in steps if s.kind == "compute")
    store = sum(s.cost for s in steps if s.kind == "store_output")
    first_load = next((s.cost for s in steps if s.kind.startswith("load")), 0.0)
    makespan = max(load + store, compute) + first_load
    get_recorder().record(
        sched_load_cycles=load, sched_compute_cycles=compute, sched_store_cycles=store
    )
    return Timeline(load, compute, store, makespan)
