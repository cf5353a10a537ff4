"""Register/FIFO-accurate micro-simulator of the MLCNN datapath.

The paper prototypes MLCNN at RTL (Verilog) to validate the AR-unit /
MAC-slice dataflow of Fig. 7(b), Fig. 10 and Fig. 11.  This module
plays that role: a cycle-stepped structural model with explicit FIFOs,
shift registers, a 3-stage multiplier pipeline and an accumulator,
executing the fused convolution-pooling kernel for one input channel /
one output channel at 2x2 pooling.

What it validates (and the tests assert):

* functional equivalence — a layer of streamed passes produces the
  pooled outputs of the unfused conv -> average pool -> ReLU
  composition (``tests/core/test_oracle.py`` holds it to that golden);
* bounded storage — FIFO high-water marks never exceed their declared
  depths (the paper sizes two FIFOs per MAC slice);
* reuse — each input element is read from the stream exactly once;
  every half addition is computed once (LAR) and every ``I_Acc`` value
  once (GAR), matching the op counts of
  :func:`repro.core.fusion.fused_conv_pool_counted`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np


class Fifo:
    """A bounded FIFO with occupancy tracking (models the HW queues)."""

    def __init__(self, depth: int, name: str = "fifo") -> None:
        if depth < 1:
            raise ValueError("FIFO depth must be >= 1")
        self.depth = depth
        self.name = name
        self._q: Deque[float] = deque()
        self.high_water = 0
        self.pushes = 0
        self.pops = 0

    def push(self, value: float) -> None:
        if len(self._q) >= self.depth:
            raise OverflowError(f"{self.name}: push into full FIFO (depth {self.depth})")
        self._q.append(value)
        self.pushes += 1
        self.high_water = max(self.high_water, len(self._q))

    def pop(self) -> float:
        if not self._q:
            raise IndexError(f"{self.name}: pop from empty FIFO")
        self.pops += 1
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)

    @property
    def full(self) -> bool:
        return len(self._q) >= self.depth

    @property
    def empty(self) -> bool:
        return not self._q


class ShiftRegister:
    """A fixed-length shift register with tap reads (GAR storage)."""

    def __init__(self, length: int, name: str = "sreg") -> None:
        if length < 1:
            raise ValueError("shift register length must be >= 1")
        self.length = length
        self.name = name
        self._data: Deque[float] = deque(maxlen=length)
        self.shifts = 0

    def shift_in(self, value: float) -> None:
        self._data.append(value)
        self.shifts += 1

    def tap(self, index: int) -> float:
        """Read tap ``index`` counted from the oldest live entry."""
        if index < 0 or index >= len(self._data):
            raise IndexError(f"{self.name}: tap {index} outside live window {len(self._data)}")
        return self._data[index]

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class ARUnitStats:
    half_additions: int = 0
    full_additions: int = 0
    cycles_busy: int = 0


class ARUnit:
    """The addition-reuse unit of Fig. 7(b) for 2x2 pooling.

    Each cycle it accepts one vertical input pair ``(I[i,j], I[i+1,j])``,
    produces the half addition, and — once the previous column's half
    addition is resident in its register — emits the full addition
    (the ``I_Acc`` value) for the previous column.  One addition unit
    computes the HA, the second the FA; both fire in the same cycle,
    matching the two-adder design.
    """

    def __init__(self, out_fifo: Fifo) -> None:
        self.out_fifo = out_fifo
        self._prev_ha: Optional[float] = None
        self.stats = ARUnitStats()

    def start_row(self) -> None:
        """Reset column state at the start of an input row pair."""
        self._prev_ha = None

    def tick(self, pair: Optional[Tuple[float, float]]) -> None:
        """Advance one cycle with an optional incoming vertical pair."""
        if pair is None:
            return
        a, b = pair
        ha = a + b
        self.stats.half_additions += 1
        self.stats.cycles_busy += 1
        if self._prev_ha is not None:
            fa = self._prev_ha + ha
            self.stats.full_additions += 1
            self.out_fifo.push(fa)
        self._prev_ha = ha


@dataclass
class MACSliceStats:
    multiplications: int = 0
    accumulations: int = 0
    outputs: int = 0
    cycles_busy: int = 0


class MACSlice:
    """One MAC slice: weight registers, 3-stage multiplier, accumulator.

    Consumes ``I_Acc`` values gathered from its line buffers (the two
    shift-register sets of Fig. 11), multiplies them by the resident
    weights and accumulates ``K^2`` products per pooled output.  The
    multiplier is a 3-stage pipeline: a result issued at cycle ``t``
    retires at ``t + 3``; with back-to-back issue the pipeline stays
    full, so a pooled output costs ``K^2`` issue cycles.
    """

    PIPELINE_DEPTH = 3

    def __init__(self, weights: np.ndarray, bias: float = 0.0) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValueError(f"MACSlice expects a square KxK weight tile, got {weights.shape}")
        self.weights = weights
        self.bias = float(bias)
        self.k = weights.shape[0]
        self._pipe: Deque[float] = deque()
        self._acc = 0.0
        self._count = 0
        self.stats = MACSliceStats()

    def issue(self, iacc_value: float, ki: int, kj: int) -> None:
        """Issue one multiply into the pipeline."""
        self._pipe.append(iacc_value * self.weights[ki, kj])
        self.stats.multiplications += 1
        self.stats.cycles_busy += 1

    def retire(self) -> None:
        """Retire the oldest pipeline product into the accumulator."""
        if self._pipe:
            v = self._pipe.popleft()
            if self._count:
                self.stats.accumulations += 1
            self._acc += v
            self._count += 1

    def drain(self) -> None:
        while self._pipe:
            self.retire()

    def finish_output(self, pool: int = 2, relu: bool = True) -> float:
        """Scale (shift), add bias, apply ReLU; reset the accumulator.

        ``relu=False`` returns the pre-activation value — used when
        channel partial sums are combined outside the slice.
        """
        self.drain()
        if self._count != self.k * self.k:
            raise RuntimeError(
                f"output finished after {self._count} products, expected {self.k * self.k}"
            )
        val = self._acc / (pool * pool) + self.bias
        self._acc = 0.0
        self._count = 0
        self.stats.outputs += 1
        return max(val, 0.0) if relu else val


@dataclass(frozen=True)
class TraceEvent:
    """One datapath event: (cycle, unit, action, value)."""

    cycle: int
    unit: str  # "ar" | "mac" | "out"
    action: str  # "ha" | "fa" | "issue" | "retire-row" | "output"
    value: float

    def format(self) -> str:
        return f"@{self.cycle:06d} {self.unit:>3} {self.action:<10} {self.value:+.6f}"


@dataclass
class RTLRunReport:
    """Cycle-level report of one fused-layer execution."""

    cycles: int
    outputs: np.ndarray
    ar_stats: ARUnitStats
    mac_stats: MACSliceStats
    fifo_high_water: int
    input_reads: int
    trace: Optional[List[TraceEvent]] = None


class RTLFusedConvPool:
    """Drive the AR unit + MAC slice over one channel of a fused layer.

    Two phases share the cycle counter, mirroring the decoupled
    producer/consumer structure (the FIFO between AR unit and MAC
    slice): the AR unit streams the input plane band by band, the MAC
    slice gathers KxK windows from its line buffers with stride p.
    """

    def __init__(
        self,
        weights: np.ndarray,
        bias: float = 0.0,
        fifo_depth: Optional[int] = None,
        relu: bool = True,
    ):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)
        self.k = self.weights.shape[0]
        self.fifo_depth = fifo_depth
        self.relu = relu

    def run(self, image: np.ndarray, pool: int = 2, record_trace: bool = False) -> RTLRunReport:
        """Stream one channel through the datapath.

        ``record_trace`` collects a :class:`TraceEvent` per datapath
        action (half/full additions, multiply issues, outputs) — a
        textual stand-in for an RTL waveform dump.
        """
        x = np.asarray(image, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("RTLFusedConvPool runs one channel at a time")
        h, w = x.shape
        if h != w:
            # the output is sized from H alone
            raise ValueError(f"the RTL datapath needs a square input (H == W), got {h}x{w}")
        if pool != 2:
            raise ValueError("the RTL datapath is instantiated for 2x2 pooling")
        trace: Optional[List[TraceEvent]] = [] if record_trace else None
        k = self.k
        co = h - k + 1
        po = (co - pool) // pool + 1
        if po < 1:
            raise ValueError(f"input {h}x{w} too small for K={k}, pool={pool}")

        # The FIFO holds one I_Acc row band; depth = one padded row.
        depth = self.fifo_depth or (w + k)
        fifo = Fifo(depth, name="ar-to-mac")
        ar = ARUnit(fifo)
        mac = MACSlice(self.weights, self.bias)

        cycles = 0
        input_reads = 0
        # Line buffers: I_Acc rows live in shift registers until the
        # band of K rows needed by the current output row is complete.
        iacc_rows: List[List[float]] = []
        outputs = np.zeros((po, po))

        n_iacc_rows = h - 1  # vertical pairs
        for i in range(n_iacc_rows):
            ar.start_row()
            row_sr = ShiftRegister(w - 1, name=f"iacc-row-{i}")
            for j in range(w):
                before_fa = ar.stats.full_additions
                ar.tick((x[i, j], x[i + 1, j]))
                input_reads += 2
                cycles += 1
                if trace is not None:
                    trace.append(TraceEvent(cycles, "ar", "ha", x[i, j] + x[i + 1, j]))
                while not fifo.empty:
                    fa_val = fifo.pop()
                    if trace is not None and ar.stats.full_additions > before_fa:
                        trace.append(TraceEvent(cycles, "ar", "fa", fa_val))
                    row_sr.shift_in(fa_val)
            iacc_rows.append([row_sr.tap(t) for t in range(len(row_sr))])

            # Once rows [2r .. 2r + K - 1] exist (i == 2r + K - 1),
            # output row r can fire.
            r = (i - k + 1) // 2 if (i - k + 1) >= 0 and (i - k + 1) % 2 == 0 else None
            if r is not None and r < po:
                for q in range(po):
                    for ki in range(k):
                        for kj in range(k):
                            val = iacc_rows[2 * r + ki][2 * q + kj]
                            mac.issue(val, ki, kj)
                            cycles += 1
                            if trace is not None:
                                trace.append(TraceEvent(cycles, "mac", "issue", val))
                            if len(mac._pipe) >= MACSlice.PIPELINE_DEPTH:
                                mac.retire()
                    outputs[r, q] = mac.finish_output(pool, relu=self.relu)
                    if trace is not None:
                        trace.append(TraceEvent(cycles, "out", "output", outputs[r, q]))
                cycles += MACSlice.PIPELINE_DEPTH  # drain bubble per row

        return RTLRunReport(
            cycles=cycles,
            outputs=outputs,
            ar_stats=ar.stats,
            mac_stats=mac.stats,
            fifo_high_water=fifo.high_water,
            input_reads=input_reads,
            trace=trace,
        )


@dataclass
class RTLLayerReport:
    """Aggregate report of a multi-channel fused-layer execution."""

    outputs: np.ndarray
    total_cycles_serial: int
    cycles_parallel: int
    mac_slices_used: int
    multiplications: int
    half_additions: int
    full_additions: int


class RTLFusedConvPoolLayer:
    """A full fused layer on an array of single-channel datapaths.

    Each (output-channel, input-channel) pair streams through one
    :class:`RTLFusedConvPool` pass; channel partial sums combine in the
    output buffer (adder tree), then one bias addition and ReLU per
    pooled output — matching how the MAC-slice array of Fig. 7(a)
    schedules a multi-channel layer.

    ``mac_slices`` models spatial parallelism: per-pass cycle counts
    are summed and divided across the slice array (passes are
    independent), giving the parallel makespan estimate.
    """

    def __init__(self, weights: np.ndarray, bias: Optional[np.ndarray] = None, mac_slices: int = 1):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 4:
            raise ValueError(f"expected (M, C, K, K) weights, got {weights.shape}")
        kh, kw = weights.shape[2:]
        if kh != kw:
            raise ValueError(f"the RTL datapath needs a square kernel (KH == KW), got {kh}x{kw}")
        if mac_slices < 1:
            raise ValueError("need at least one MAC slice")
        self.weights = weights
        self.bias = np.zeros(weights.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias.shape != (weights.shape[0],):
            raise ValueError(f"bias shape {self.bias.shape} != ({weights.shape[0]},)")
        self.mac_slices = mac_slices

    def run(self, image: np.ndarray, pool: int = 2) -> RTLLayerReport:
        x = np.asarray(image, dtype=np.float64)
        m, c, k, _ = self.weights.shape
        if x.ndim != 3:
            raise ValueError(f"the RTL layer takes one (C, H, W) image, got shape {x.shape}")
        if x.shape[0] != c:
            raise ValueError(f"channel mismatch: input {x.shape[0]}, weight {c}")
        h = x.shape[1]
        po = ((h - k + 1) - pool) // pool + 1
        if po < 1:
            raise ValueError(f"input {h}x{x.shape[2]} too small for K={k}, pool={pool}")

        outputs = np.zeros((m, po, po))
        total_cycles = 0
        mults = ha = fa = 0
        for to in range(m):
            acc = np.zeros((po, po))
            for ti in range(c):
                dp = RTLFusedConvPool(self.weights[to, ti], bias=0.0, relu=False)
                rep = dp.run(x[ti], pool=pool)
                acc += rep.outputs
                total_cycles += rep.cycles
                mults += rep.mac_stats.multiplications
                ha += rep.ar_stats.half_additions
                fa += rep.ar_stats.full_additions
            outputs[to] = np.maximum(acc + self.bias[to], 0.0)

        # Independent (to, ti) passes spread across the slice array; the
        # makespan is the serial total divided by the slices, rounded up
        # to the longest single pass.
        passes = m * c
        per_pass = total_cycles / passes
        waves = -(-passes // self.mac_slices)
        cycles_parallel = int(waves * per_pass)
        return RTLLayerReport(
            outputs=outputs,
            total_cycles_serial=total_cycles,
            cycles_parallel=cycles_parallel,
            mac_slices_used=min(self.mac_slices, passes),
            multiplications=mults,
            half_additions=ha,
            full_additions=fa,
        )
