"""repro.accel — MLCNN accelerator cycle/energy/area model (Section VI).

The paper evaluates MLCNN with an accelerator-level cycle and energy
model plus an RTL prototype.  This package provides the equivalent:

* :mod:`repro.accel.config` — accelerator configurations (Table VII).
* :mod:`repro.accel.area` — 45nm-style area model deriving how many MAC
  slices fit the 1.52 mm^2 budget at each precision.
* :mod:`repro.accel.energy` — per-operation / per-access energy tables
  and the static+dynamic energy model (DRAM / Buffer / MAC breakdown of
  Fig. 15).
* :mod:`repro.accel.tiling` — loop tiling ``<Tm, Tn, Tr, Tc>`` and the
  DRAM traffic it implies.
* :mod:`repro.accel.simulator` — per-layer and whole-network cycle and
  energy estimates for DCNN vs MLCNN (Figs. 13 & 15); its DRAM and
  buffer terms are the package's one memory model.
* :mod:`repro.accel.rtl` — a register/FIFO-accurate micro-simulator of
  the AR unit + MAC slice datapath (the RTL prototype's role).
"""

from repro.accel.config import AcceleratorConfig, TABLE7_CONFIGS, get_config
from repro.accel.area import MacSliceArea, slices_for_budget, AREA_45NM
from repro.accel.energy import EnergyTable, ENERGY_45NM, EnergyBreakdown
from repro.accel.tiling import TilingPlan, plan_tiling, dram_traffic
from repro.accel.simulator import (
    LayerResult,
    NetworkResult,
    simulate_layer,
    simulate_network,
    simulate_network_layer_fused,
    compare_networks,
)
from repro.accel.rtl import (
    Fifo,
    ShiftRegister,
    ARUnit,
    MACSlice,
    RTLFusedConvPool,
    RTLFusedConvPoolLayer,
    TraceEvent,
)

__all__ = [
    "AcceleratorConfig",
    "TABLE7_CONFIGS",
    "get_config",
    "MacSliceArea",
    "slices_for_budget",
    "AREA_45NM",
    "EnergyTable",
    "ENERGY_45NM",
    "EnergyBreakdown",
    "TilingPlan",
    "plan_tiling",
    "dram_traffic",
    "LayerResult",
    "NetworkResult",
    "simulate_layer",
    "simulate_network",
    "simulate_network_layer_fused",
    "compare_networks",
    "Fifo",
    "ShiftRegister",
    "ARUnit",
    "MACSlice",
    "RTLFusedConvPool",
    "RTLFusedConvPoolLayer",
    "TraceEvent",
]
