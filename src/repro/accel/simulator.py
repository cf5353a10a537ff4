"""Per-layer and whole-network cycle/energy simulation (Figs. 13 & 15).

The model is an accelerator-level roofline with explicit event counts:

* **Compute** — each MAC slice retires one multiply-accumulate per
  cycle (the 3-stage FP pipeline is kept full by the FIFOs, Fig. 11).
  Pooling additions (DCNN) and small-accumulation additions (MLCNN) run
  on the addition units / AR units concurrently with the MACs, so
  compute cycles are ``max(mac_cycles, add_cycles)`` plus pipeline fill.
* **Memory** — DRAM bytes follow the tiling plan of
  :mod:`repro.accel.tiling`; the multi-bank input-weight buffer streams
  tiles, so a layer costs ``traffic / bandwidth`` cycles plus one
  initial-latency charge.  Compute and memory overlap (double
  buffering): the layer takes the max of the two.
* **Energy** — dynamic energy per event (MAC ops, buffer accesses,
  DRAM bytes) plus leakage over the execution time, split into the
  DRAM / Buffer / MAC components of Fig. 15.

Operation counts come from :mod:`repro.core.opcount`; MLCNN executes
fusable layers with the fused kernel (RME/LAR/GAR) and other layers
identically to the DCNN baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.accel.config import AcceleratorConfig
from repro.accel.energy import ENERGY_45NM, EnergyBreakdown, dynamic_energy, static_energy
from repro.accel.tiling import TilingPlan, dram_traffic, plan_tiling
from repro.core.opcount import LayerOps, dcnn_layer_ops, mlcnn_layer_ops
from repro.models.specs import LayerSpec
from repro.nn.counters import get_recorder
from repro.obs.tracer import get_tracer


def _emit_layer_event(result: "LayerResult", config: AcceleratorConfig) -> None:
    """Per-layer compute/memory/energy attribution as a structured event."""
    tracer = get_tracer()
    if not tracer.enabled:
        return
    e = result.energy
    tracer.event(
        "sim.layer",
        category="accel",
        layer=result.name,
        config=config.name,
        fused=result.fused,
        cycles=result.cycles,
        compute_cycles=result.compute_cycles,
        memory_cycles=result.memory_cycles,
        bound="compute" if result.compute_cycles >= result.memory_cycles else "memory",
        multiplications=result.ops.multiplications,
        additions=result.ops.additions,
        preprocessing_additions=result.ops.preprocessing_additions,
        dram_bytes=result.dram_bytes,
        buffer_accesses=result.buffer_accesses,
        energy_total_j=e.total_j,
        energy_dram_j=e.dram_j,
        energy_buffer_j=e.buffer_j,
        energy_mac_j=e.mac_j,
        # hardware shape, so attribution/forensics over a trace can
        # tell a config change from a workload change
        mac_slices=config.mac_slices,
        frequency_hz=config.frequency_hz,
    )

#: cycles to fill the 3-stage multiplier pipeline per tile pass
PIPELINE_FILL_CYCLES = 3


@dataclass
class LayerResult:
    """Simulation outcome for one layer on one configuration."""

    name: str
    fused: bool
    cycles: float
    compute_cycles: float
    memory_cycles: float
    ops: LayerOps
    dram_bytes: float
    buffer_accesses: float
    energy: EnergyBreakdown
    tiling: TilingPlan

    @property
    def seconds(self) -> float:
        return self.cycles  # populated later by NetworkResult scaling


@dataclass
class NetworkResult:
    """Aggregate of per-layer results for one configuration."""

    config: AcceleratorConfig
    layers: List[LayerResult] = field(default_factory=list)

    @property
    def cycles(self) -> float:
        return sum(l.cycles for l in self.layers)

    @property
    def seconds(self) -> float:
        return self.cycles / self.config.frequency_hz

    @property
    def energy(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for l in self.layers:
            total = total + l.energy
        return total

    def layer(self, name: str) -> LayerResult:
        for l in self.layers:
            if l.name == name:
                return l
        raise KeyError(f"no layer named {name!r}")


def _buffer_accesses(spec: LayerSpec, ops: LayerOps, plan: TilingPlan, fused: bool) -> float:
    """SRAM buffer access count for one layer execution.

    Inputs stream through the FIFO/shift-register network, which reuses
    each fetched operand across the filter row (factor K); weights are
    read from the buffer once per register refill (once per trip of the
    enclosing loops); partial sums are read+written per input-channel
    tile; the AR unit's preprocessing additions each read one fresh
    operand.
    """
    k = max(spec.kernel, 1)
    input_reads = ops.multiplications / k
    tm_trips, tn_trips, tr_trips, tc_trips = plan.trips(spec)
    weight_reads = tm_trips * tn_trips * tr_trips * tc_trips * (plan.tm * plan.tn * k * k)
    out_elems = spec.output_size ** 2 * spec.out_channels
    output_rw = out_elems * 2 * tn_trips
    pre_reads = ops.preprocessing_additions if fused else 0
    return input_reads + weight_reads + output_rw + pre_reads


def simulate_layer(
    spec: LayerSpec,
    config: AcceleratorConfig,
    input_preprocessed: bool = False,
    output_preprocessed: bool = False,
    batch: int = 1,
) -> LayerResult:
    """Simulate one layer on ``config``; returns cycles and energy.

    ``batch`` images share one weight fetch: compute and input/output
    traffic scale with the batch, weight traffic does not (the weights
    stay resident across the batch under the weight-input-reuse
    dataflow).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    fused = config.fused and spec.is_fusable
    ops_one = mlcnn_layer_ops(spec) if fused else dcnn_layer_ops(spec)
    ops = LayerOps(
        ops_one.multiplications * batch,
        ops_one.additions * batch,
        ops_one.preprocessing_additions * batch,
    )

    # --- compute ---------------------------------------------------------
    mac_adds = min(ops.additions, ops.multiplications)  # fused mult+acc pairs
    extra_adds = ops.additions - mac_adds + ops.preprocessing_additions
    mac_cycles = ops.multiplications / config.mac_slices
    adders = config.ar_units if (fused and config.ar_units) else config.mac_slices
    add_cycles = extra_adds / adders
    compute_cycles = max(mac_cycles, add_cycles) + PIPELINE_FILL_CYCLES

    # --- memory ----------------------------------------------------------
    buffer_bytes = config.onchip_memory_kb * 1024
    plan = plan_tiling(spec, buffer_bytes, config.bytes_per_element)
    dram_one = dram_traffic(
        spec,
        plan,
        config.bytes_per_element,
        input_preprocessed=input_preprocessed and fused,
        output_preprocessed=output_preprocessed,
    )
    if batch > 1:
        tm_trips, tn_trips, tr_trips, tc_trips = plan.trips(spec)
        k = spec.kernel
        weight_bytes = (
            tm_trips * tn_trips * tr_trips * tc_trips
            * plan.tm * plan.tn * k * k * config.bytes_per_element
        )
        dram_bytes = weight_bytes + batch * (dram_one - weight_bytes)
    else:
        dram_bytes = dram_one
    memory_cycles = dram_bytes / config.dram_bytes_per_cycle + config.dram_latency_cycles

    cycles = max(compute_cycles, memory_cycles)

    # --- energy ----------------------------------------------------------
    table = ENERGY_45NM[config.bitwidth]
    accesses = _buffer_accesses(spec, ops, plan, fused)
    energy = dynamic_energy(
        table,
        ops.multiplications,
        ops.additions + ops.preprocessing_additions,
        accesses,
        dram_bytes,
    )
    energy.static_j = static_energy(table, cycles / config.frequency_hz)

    recorder = get_recorder()
    if recorder.enabled:
        recorder.record(buffer_accesses=accesses, dram_bytes=dram_bytes)

    return LayerResult(
        name=spec.name,
        fused=fused,
        cycles=cycles,
        compute_cycles=compute_cycles,
        memory_cycles=memory_cycles,
        ops=ops,
        dram_bytes=dram_bytes,
        buffer_accesses=accesses,
        energy=energy,
        tiling=plan,
    )


def simulate_network(
    specs: Sequence[LayerSpec], config: AcceleratorConfig, batch: int = 1
) -> NetworkResult:
    """Simulate all layers of a network on ``config``.

    On the MLCNN configurations, a fused layer's input arrives
    preprocessed: the preprocessing stage (Fig. 9, selector S2) adds
    column pairs of the *previous* layer's output before writing to
    DRAM whenever the consumer is fused, halving both that write and
    this read.  The first layer always reads the raw image.
    """
    result = NetworkResult(config)
    spec_list = list(specs)
    with get_tracer().span(
        "sim.network", category="accel", config=config.name, layers=len(spec_list)
    ) as sp:
        for i, spec in enumerate(spec_list):
            next_fused = (
                config.fused and i + 1 < len(spec_list) and spec_list[i + 1].is_fusable
            )
            layer_result = simulate_layer(
                spec,
                config,
                input_preprocessed=config.fused and i > 0,
                output_preprocessed=next_fused,
                batch=batch,
            )
            result.layers.append(layer_result)
            _emit_layer_event(layer_result, config)
        sp.set(cycles=result.cycles, energy_j=result.energy.total_j)
    return result


@dataclass
class Comparison:
    """Speedup / energy-efficiency of a config against a baseline."""

    baseline: NetworkResult
    candidate: NetworkResult

    @property
    def speedup(self) -> float:
        return self.baseline.cycles / self.candidate.cycles

    @property
    def energy_efficiency(self) -> float:
        return self.baseline.energy.total_j / self.candidate.energy.total_j

    def layer_speedups(self) -> Dict[str, float]:
        return {
            b.name: b.cycles / c.cycles
            for b, c in zip(self.baseline.layers, self.candidate.layers)
        }

    def layer_energy_ratios(self) -> Dict[str, float]:
        return {
            b.name: b.energy.total_j / c.energy.total_j
            for b, c in zip(self.baseline.layers, self.candidate.layers)
        }


def compare_networks(
    specs: Sequence[LayerSpec],
    baseline: AcceleratorConfig,
    candidate: AcceleratorConfig,
) -> Comparison:
    """Run both configurations over ``specs`` and compare."""
    with get_tracer().span(
        "sim.compare", category="accel", baseline=baseline.name, candidate=candidate.name
    ):
        return Comparison(
            baseline=simulate_network(specs, baseline),
            candidate=simulate_network(specs, candidate),
        )


def simulate_network_layer_fused(
    specs: Sequence[LayerSpec], config: AcceleratorConfig
) -> NetworkResult:
    """Alwani-style fused-layer execution (related-work baseline [27]).

    Consecutive layers are fused *for data movement only*: when a
    layer's output fits on chip alongside the next layer's working set,
    the intermediate feature map never travels to DRAM — but every
    multiplication and addition is still performed.  The paper contrasts
    this (≈1.5×) with MLCNN's arithmetic elimination (≈3.2×).
    """
    result = NetworkResult(config)
    spec_list = list(specs)
    buffer_bytes = config.onchip_memory_kb * 1024
    for i, spec in enumerate(spec_list):
        base = simulate_layer(spec, config)
        # Output stays on chip when it (and the next input halo) fits
        # in half the buffer (the other half double-buffers weights).
        out_bytes = spec.output_size ** 2 * spec.out_channels * config.bytes_per_element
        keep_out = i + 1 < len(spec_list) and out_bytes <= buffer_bytes / 2
        keep_in = i > 0 and (
            spec.input_size ** 2 * spec.in_channels * config.bytes_per_element
            <= buffer_bytes / 2
        )
        dram_bytes = base.dram_bytes
        if keep_out:
            dram_bytes -= out_bytes
        if keep_in:
            # the producer already kept it on chip; drop this layer's
            # compulsory input fetch share (one copy of the input)
            in_bytes = spec.input_size ** 2 * spec.in_channels * config.bytes_per_element
            dram_bytes = max(dram_bytes - in_bytes, 0.0)
        memory_cycles = dram_bytes / config.dram_bytes_per_cycle + config.dram_latency_cycles
        cycles = max(base.compute_cycles, memory_cycles)
        table = ENERGY_45NM[config.bitwidth]
        energy = dynamic_energy(
            table,
            base.ops.multiplications,
            base.ops.additions + base.ops.preprocessing_additions,
            base.buffer_accesses,
            dram_bytes,
        )
        energy.static_j = static_energy(table, cycles / config.frequency_hz)
        layer_result = LayerResult(
            name=spec.name,
            fused=False,
            cycles=cycles,
            compute_cycles=base.compute_cycles,
            memory_cycles=memory_cycles,
            ops=base.ops,
            dram_bytes=dram_bytes,
            buffer_accesses=base.buffer_accesses,
            energy=energy,
            tiling=base.tiling,
        )
        result.layers.append(layer_result)
        _emit_layer_event(layer_result, config)
    return result
