"""Loop tiling ``<Tm, Tn, Tr, Tc>`` and DRAM traffic (Section VI).

The MLCNN accelerator tiles the convolution loops to fit the multi-bank
input-weight buffer and the output buffer (134 kB total), following the
FPGA tiling formulation the paper cites [18], [26]:

* output channels ``M`` -> ``ceil(M / Tm)`` tiles,
* input channels ``N`` -> ``ceil(N / Tn)`` tiles,
* output rows/cols ``R x C`` -> ``ceil(R/Tr) x ceil(C/Tc)`` tiles.

Under the weight-input-reuse dataflow, every (m, r, c) tile iterates
over all input-channel tiles while partial sums stay in the output
buffer, so outputs travel to DRAM once; inputs and weights are
re-fetched once per trip through their enclosing loops.

:func:`plan_tiling` scores its whole candidate grid as one array
expression, the same one :func:`dram_traffic` evaluates for one plan.
A tiling problem depends on the layer's shape, the buffer and the
element width, not on the layer's name, so each distinct problem is
searched once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Optional, Tuple

import numpy as np

from repro.models.specs import LayerSpec


@dataclass(frozen=True)
class TilingPlan:
    """A concrete tile-size assignment for one layer.

    The fields may also be broadcastable integer arrays: such a plan is
    a grid of candidates, which :meth:`trips`, :meth:`buffer_elements`
    and :func:`dram_traffic` evaluate element-wise (``-(-a // b)`` is
    ceil division on ints and arrays alike).
    """

    tm: int  # output-channel tile
    tn: int  # input-channel tile
    tr: int  # output-row tile
    tc: int  # output-column tile

    def trips(self, spec: LayerSpec) -> Tuple[int, int, int, int]:
        """Loop trip counts (m, n, r, c) for ``spec``."""
        out = spec.conv_output_size
        return (
            -(-spec.out_channels // self.tm),
            -(-spec.in_channels // self.tn),
            -(-out // self.tr),
            -(-out // self.tc),
        )

    def buffer_elements(self, spec: LayerSpec) -> int:
        """On-chip elements the plan holds at once (input+weight+output)."""
        k, s = spec.kernel, spec.stride
        in_tile = self.tn * (self.tr * s + k - 1) * (self.tc * s + k - 1)
        w_tile = self.tm * self.tn * k * k
        out_tile = self.tm * self.tr * self.tc
        return in_tile + w_tile + out_tile


def _candidates(n: int) -> np.ndarray:
    vals = {1, 2, 4, 8, 16, 32, 64, n, n // 2, n // 4}
    return np.array(sorted(v for v in vals if 1 <= v <= n), dtype=np.int64)


def _search(spec: LayerSpec, capacity: int, bytes_per_element: float) -> Optional[TilingPlan]:
    """The least-traffic plan of at most ``capacity`` elements; None if none fits."""
    tm, tn, tr = np.ix_(
        _candidates(spec.out_channels),
        _candidates(spec.in_channels),
        _candidates(spec.conv_output_size),
    )
    grid = TilingPlan(tm, tn, tr, tr)
    fits = grid.buffer_elements(spec) <= capacity
    if not fits.any():
        return None
    traffic = np.where(fits, dram_traffic(spec, grid, bytes_per_element), np.inf)
    i, j, k = np.unravel_index(np.argmin(traffic), traffic.shape)
    return TilingPlan(int(tm[i, 0, 0]), int(tn[0, j, 0]), int(tr[0, 0, k]), int(tr[0, 0, k]))


#: what a tiling problem depends on: every LayerSpec field but the name
_shape = attrgetter(*(f.name for f in fields(LayerSpec) if f.name != "name"))
_PLANS: Dict[Tuple[tuple, float, float], Optional[TilingPlan]] = {}


def plan_tiling(spec: LayerSpec, buffer_bytes: int, bytes_per_element: float) -> TilingPlan:
    """Pick tile sizes that fit the buffer and minimize DRAM traffic.

    An exhaustive search over ``Tm x Tn x Tr`` (``Tc = Tr``), each drawn
    from ``{1, 2, 4, ..., 64, n, n/2, n/4}`` up to its loop bound ``n``,
    scored as one array expression.  Ties go to the first candidate in
    (Tm, Tn, Tr) ascending order.  The answer is cached per (shape
    without the name, ``buffer_bytes``, ``bytes_per_element``), so
    same-shape layers share one plan object and each distinct problem is
    searched once per process.
    """
    key = (_shape(spec), buffer_bytes, bytes_per_element)
    if key not in _PLANS:
        _PLANS[key] = _search(spec, int(buffer_bytes / bytes_per_element), bytes_per_element)
    plan = _PLANS[key]
    if plan is None:
        raise ValueError(f"buffer of {buffer_bytes} B cannot hold even a unit tile of {spec.name}")
    return plan


def dram_traffic(
    spec: LayerSpec,
    plan: TilingPlan,
    bytes_per_element: float,
    input_preprocessed: bool = False,
    output_preprocessed: bool = False,
) -> float:
    """Total DRAM bytes moved for one execution of ``spec``.

    * inputs: the input tile is fetched once per (m, r, c, n) trip —
      reuse across output-channel tiles is lost once ``Tm < M``;
    * weights: fetched once per (m, n, r, c) trip;
    * outputs: written once (partial sums accumulate on chip).

    ``input_preprocessed`` halves input bytes: MLCNN's preprocessing
    stores column-pair half additions instead of raw features (Fig. 9),
    so a fused consumer reads half the volume.  ``output_preprocessed``
    likewise halves the written volume when the *next* layer is fused.
    """
    k, s = spec.kernel, spec.stride
    tm_trips, tn_trips, tr_trips, tc_trips = plan.trips(spec)
    in_tile = plan.tn * (plan.tr * s + k - 1) * (plan.tc * s + k - 1)
    w_tile = plan.tm * plan.tn * k * k
    input_bytes = tm_trips * tn_trips * tr_trips * tc_trips * in_tile * bytes_per_element
    weight_bytes = tm_trips * tn_trips * tr_trips * tc_trips * w_tile * bytes_per_element
    out_elems = spec.output_size ** 2 * spec.out_channels
    output_bytes = out_elems * bytes_per_element
    if input_preprocessed:
        input_bytes *= 0.5
    if output_preprocessed:
        output_bytes *= 0.5
    return input_bytes + weight_bytes + output_bytes
