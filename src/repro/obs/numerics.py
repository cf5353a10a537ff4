"""Numerics health: the evidence behind the paper's two accuracy claims.

The tracer (:mod:`repro.obs.tracer`) answers *where time goes*, the
measured counters (:mod:`repro.nn.counters`) answer *what work
happened*; this module answers *where numerical damage happens*.  The
paper claims the ``Conv→ReLU→AvgPool`` → ``Conv→AvgPool→ReLU`` swap is
benign (Fig. 3) and INT8 DoReFa quantization stays accuracy-equivalent
(Fig. 12); the gated ``numerics.*`` metrics read the two quantities
below.

* **The collector** — :class:`NumericsCollector`.  The quantized
  execution paths (:mod:`repro.core.quantize`,
  :mod:`repro.core.fixedpoint`) report clip/saturation/overflow events
  into every *enabled* collector via :func:`record_quant_event`;
  attached with ``instrument_model(model, numerics=collector)``, each
  event is attributed to the layer currently executing, and every
  module's forward output and backward gradient passes a NaN/inf
  **watchdog** (``record`` / ``warn`` / ``raise``) that names the
  first offending layer, epoch and batch.
* **The reorder-divergence probe** — :func:`reorder_divergence` runs a
  network in *both* activation orders on a probe batch and reports
  per-layer and end-to-end max-abs divergence plus the top-1 flip
  rate.  :class:`repro.compiler.passes.ReorderDivergenceProbePass`
  exposes it as a compiler validation step.

``to_jsonl()`` writes the clip counters, the divergence and the first
anomaly as typed rows (the ``numerics.jsonl`` of an ``--obs`` run
directory), and ``summary_report()`` is the table ``--numerics``
prints and the dashboard renders.  Disabled collectors cost one
attribute check per call (guarded by ``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ClipCounter",
    "NumericsError",
    "NumericsCollector",
    "WATCHDOG_POLICIES",
    "record_quant_event",
    "active_collectors",
    "reorder_divergence",
]

logger = logging.getLogger("repro.obs.numerics")

#: valid NaN/inf watchdog policies
WATCHDOG_POLICIES = ("record", "warn", "raise")


# ---------------------------------------------------------------------------
# Quantization clip / saturation / overflow counters
# ---------------------------------------------------------------------------

@dataclass
class ClipCounter:
    """Accumulated clip/saturation events for one quantized path."""

    clipped: int = 0
    total: int = 0
    low: int = 0
    high: int = 0

    @property
    def rate(self) -> float:
        return self.clipped / self.total if self.total else 0.0

    def add(self, clipped: int, total: int, low: int = 0, high: int = 0) -> None:
        self.clipped += int(clipped)
        self.total += int(total)
        self.low += int(low)
        self.high += int(high)

    def as_dict(self) -> Dict[str, float]:
        return {
            "clipped": self.clipped,
            "total": self.total,
            "low": self.low,
            "high": self.high,
            "rate": self.rate,
        }


#: enabled collectors that quantized execution paths report into
_ACTIVE: List["NumericsCollector"] = []
_ACTIVE_LOCK = threading.Lock()


def active_collectors() -> List["NumericsCollector"]:
    """Snapshot of the collectors currently receiving quant events."""
    with _ACTIVE_LOCK:
        return list(_ACTIVE)


def record_quant_event(
    name: str, clipped: int, total: int, low: int = 0, high: int = 0
) -> None:
    """Report a clip/saturation/overflow observation from a quantized path.

    No-op (one truthiness check) unless a collector is enabled.  Events
    are attributed to the layer currently executing when the reporting
    code runs under an instrumented module's forward.
    """
    if not _ACTIVE:
        return
    for collector in active_collectors():
        collector.record_quant(name, clipped=clipped, total=total, low=low, high=high)


# ---------------------------------------------------------------------------
# The collector
# ---------------------------------------------------------------------------

class NumericsError(RuntimeError):
    """The NaN/inf watchdog tripped (policy ``raise``)."""

    def __init__(self, layer: str, kind: str, nan: int, inf: int,
                 epoch: Optional[int] = None, batch: Optional[int] = None) -> None:
        self.layer = layer
        self.kind = kind
        self.nan = nan
        self.inf = inf
        self.epoch = epoch
        self.batch = batch
        where = ""
        if epoch is not None or batch is not None:
            where = f" at epoch {epoch if epoch is not None else '?'}, batch {batch if batch is not None else '?'}"
        super().__init__(
            f"non-finite values in {layer}.{kind} ({nan} NaN, {inf} inf){where}"
        )


class NumericsCollector:
    """Clip counters and a NaN/inf watchdog behind one switch.

    Attach with ``instrument_model(model, numerics=collector)``; enable
    with :meth:`enable` or as a context manager.  While enabled it
    receives clip/saturation events from the quantized execution paths
    (:func:`record_quant_event`) and checks every observed array for
    non-finite values.  Disabled, instrumented forwards pay one
    attribute check.

    ``watchdog`` is ``"record"`` (remember the first anomaly),
    ``"warn"`` (also log a warning once per ``(layer, kind)``), or
    ``"raise"`` (raise :class:`NumericsError` naming the layer and
    batch).
    """

    def __init__(self, watchdog: str = "record") -> None:
        if watchdog not in WATCHDOG_POLICIES:
            raise ValueError(
                f"unknown watchdog policy {watchdog!r}; valid: {WATCHDOG_POLICIES}"
            )
        self.watchdog = watchdog
        self.enabled = False
        self.quant: Dict[str, ClipCounter] = {}
        self.divergence: Optional[Dict[str, Any]] = None
        self.first_anomaly: Optional[Dict[str, Any]] = None
        self.epoch: Optional[int] = None
        self.batch: Optional[int] = None
        self._warned: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- lifecycle -----------------------------------------------------------
    def enable(self) -> "NumericsCollector":
        self.enabled = True
        with _ACTIVE_LOCK:
            if self not in _ACTIVE:
                _ACTIVE.append(self)
        return self

    def disable(self) -> "NumericsCollector":
        self.enabled = False
        with _ACTIVE_LOCK:
            if self in _ACTIVE:
                _ACTIVE.remove(self)
        return self

    def __enter__(self) -> "NumericsCollector":
        return self.enable()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.disable()
        return False

    def set_context(self, epoch: Optional[int] = None, batch: Optional[int] = None) -> None:
        """Stamp subsequent anomalies with the training position."""
        self.epoch = epoch
        self.batch = batch

    # -- layer attribution (set by the instrument wrappers) ------------------
    def _layer_stack(self) -> List[str]:
        stack = getattr(self._local, "layers", None)
        if stack is None:
            stack = []
            self._local.layers = stack
        return stack

    def _push_layer(self, label: str) -> None:
        self._layer_stack().append(label)

    def _pop_layer(self) -> None:
        stack = self._layer_stack()
        if stack:
            stack.pop()

    def current_layer(self) -> Optional[str]:
        stack = self._layer_stack()
        return stack[-1] if stack else None

    # -- observation ---------------------------------------------------------
    def observe(self, layer: str, kind: str, arr: np.ndarray) -> None:
        """Watchdog check for one ``(layer, kind)`` array.

        May raise :class:`NumericsError` under the ``raise`` policy.
        """
        if not self.enabled or np.isfinite(arr).all():
            return
        nan = int(np.count_nonzero(np.isnan(arr)))
        inf = int(np.count_nonzero(np.isinf(arr)))
        self._handle_anomaly(layer, kind, nan, inf)

    def record_quant(
        self, name: str, clipped: int, total: int, low: int = 0, high: int = 0
    ) -> None:
        """Accumulate a clip/saturation event, attributed to the current layer."""
        if not self.enabled:
            return
        layer = self.current_layer()
        key = f"{layer}/{name}" if layer else name
        with self._lock:
            counter = self.quant.get(key)
            if counter is None:
                counter = ClipCounter()
                self.quant[key] = counter
            counter.add(clipped, total, low, high)

    def check_value(self, layer: str, kind: str, value: float) -> None:
        """Watchdog check for a scalar (e.g. the training loss)."""
        if not self.enabled or np.isfinite(value):
            return
        nan = int(np.isnan(value))
        self._handle_anomaly(layer, kind, nan, 1 - nan)

    def _handle_anomaly(self, layer: str, kind: str, nan: int, inf: int) -> None:
        if self.first_anomaly is None:
            self.first_anomaly = {
                "layer": layer,
                "kind": kind,
                "nan": nan,
                "inf": inf,
                "epoch": self.epoch,
                "batch": self.batch,
            }
        if self.watchdog == "warn":
            key = (layer, kind)
            if key not in self._warned:
                self._warned.add(key)
                logger.warning(
                    "non-finite values in %s.%s (%d NaN, %d inf)", layer, kind, nan, inf
                )
        elif self.watchdog == "raise":
            raise NumericsError(layer, kind, nan, inf, self.epoch, self.batch)

    # -- aggregation ---------------------------------------------------------
    def clip_rate(self, suffix: str) -> float:
        """Aggregate clip rate over every counter whose name ends with
        ``suffix`` (e.g. ``"dorefa.act_clip"``); 0.0 when none matched."""
        clipped = total = 0
        with self._lock:
            for key, counter in self.quant.items():
                if key.endswith(suffix):
                    clipped += counter.clipped
                    total += counter.total
        return clipped / total if total else 0.0

    # -- export --------------------------------------------------------------
    def to_jsonl(self, **tags: Any) -> str:
        """One JSON object per clip counter, probe result and anomaly;
        every row carries ``tags`` (e.g. ``model="lenet5", bits=8``)."""
        with self._lock:
            quant = sorted(self.quant.items())
        rows = [
            {"type": "quant_clip", **tags, "name": key, **counter.as_dict()}
            for key, counter in quant
        ]
        if self.divergence is not None:
            rows.append({"type": "reorder_divergence", **tags, **self.divergence})
        if self.first_anomaly is not None:
            rows.append({"type": "anomaly", **tags, **self.first_anomaly})
        return "".join(json.dumps(row) + "\n" for row in rows)

    def summary_report(self):
        """One row per clip counter, the divergence and the watchdog's
        verdict as notes: a :class:`repro.analysis.report.ExperimentReport`."""
        from repro.analysis.report import ExperimentReport, format_percent

        rep = ExperimentReport(
            "Numerics",
            "quantized-path clip counters, reorder divergence, NaN/inf watchdog",
            headers=["name", "clipped", "total", "rate"],
        )
        with self._lock:
            quant = sorted(self.quant.items())
        for key, counter in quant:
            rep.add_row(key, counter.clipped, counter.total, format_percent(counter.rate, 2))
        if self.divergence is not None:
            d = self.divergence
            rep.add_note(
                f"reorder divergence: end-to-end max|dev| {d['end_to_end_max_abs']:.4g}, "
                f"top-1 flips {100 * d['top1_flip_rate']:.1f}% over {d['layers']} pooled layer(s)"
            )
        a = self.first_anomaly
        rep.add_note(
            "watchdog: no NaN/inf" if a is None else
            f"ANOMALY: {a['layer']}.{a['kind']} ({a['nan']} NaN, {a['inf']} inf) "
            f"at epoch {a['epoch']}, batch {a['batch']}"
        )
        return rep


# ---------------------------------------------------------------------------
# Reorder-divergence probe
# ---------------------------------------------------------------------------

def _pooled_units(model) -> List[Tuple[str, Any]]:
    """Outermost modules whose forward realizes one pool+activation pair."""
    from repro.core.quantize import QuantizedConvBlock
    from repro.models.blocks import ConvBlock, PooledInception

    units: List[Tuple[str, Any]] = []
    selected: List[str] = []
    for name, mod in model.named_modules():
        if any(name == p or name.startswith(p + ".") for p in selected if p):
            continue
        pooled = False
        if isinstance(mod, QuantizedConvBlock):
            pooled = mod.block.pool is not None
        elif isinstance(mod, (ConvBlock, PooledInception)):
            pooled = mod.pool is not None
        if pooled:
            units.append((name or type(mod).__name__.lower(), mod))
            selected.append(name)
    return units


def reorder_divergence(
    model,
    probe: np.ndarray,
    collector: Optional[NumericsCollector] = None,
) -> Dict[str, Any]:
    """Run ``model`` in both activation orders; report the divergence.

    Executes the network on ``probe`` with every pooled block set to
    ``act_pool`` (conventional ``ReLU→Pool``) and again with
    ``pool_act`` (the MLCNN reordering), capturing each pooled block's
    output both times.  Returns::

        {"per_layer": {name: max_abs_dev},
         "end_to_end_max_abs": float,
         "top1_flip_rate": float,    # fraction of probe rows whose argmax flips
         "layers": int}

    The model is fully restored afterwards (orders, train/eval mode);
    exact for max pooling (ReLU and max commute), nonzero for average
    pooling — the quantity the paper's Fig. 3 retraining argument is
    about.  Works on plain and DoReFa-quantized models.
    """
    from repro.models.reorder import conv_pool_blocks
    from repro.nn.tensor import Tensor, no_grad

    units = _pooled_units(model)
    blocks = conv_pool_blocks(model)
    result: Dict[str, Any] = {
        "per_layer": {},
        "end_to_end_max_abs": 0.0,
        "top1_flip_rate": 0.0,
        "layers": len(units),
    }
    if not units or not blocks:
        if collector is not None:
            collector.divergence = result
        return result

    saved_orders = [(b, b.order) for b in blocks]
    was_training = model.training
    model.eval()

    def run(order: str) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        for b in blocks:
            b.order = order
        captured: Dict[str, np.ndarray] = {}
        previous = []
        for name, mod in units:
            prev = mod.__dict__.get("forward")
            orig = mod.forward

            def wrapped(*args, _orig=orig, _name=name, **kwargs):
                out = _orig(*args, **kwargs)
                captured[_name] = np.array(out.data, copy=True)
                return out

            object.__setattr__(mod, "forward", wrapped)
            previous.append((mod, prev))
        try:
            with no_grad():
                final = np.array(model(Tensor(np.asarray(probe))).data, copy=True)
        finally:
            for mod, prev in previous:
                if prev is None:
                    del mod.__dict__["forward"]
                else:
                    object.__setattr__(mod, "forward", prev)
        return captured, final

    try:
        outs_a, final_a = run("act_pool")
        outs_b, final_b = run("pool_act")
    finally:
        for b, order in saved_orders:
            b.order = order
        model.train(was_training)

    per_layer: Dict[str, float] = {}
    for name, _ in units:
        a, b = outs_a.get(name), outs_b.get(name)
        if a is None or b is None or a.shape != b.shape:
            per_layer[name] = float("inf")
        else:
            per_layer[name] = float(np.max(np.abs(a - b)))
    result["per_layer"] = per_layer
    if final_a.shape == final_b.shape:
        result["end_to_end_max_abs"] = float(np.max(np.abs(final_a - final_b)))
        if final_a.ndim >= 2:
            flips = np.argmax(final_a, axis=1) != np.argmax(final_b, axis=1)
            result["top1_flip_rate"] = float(np.mean(flips))
    else:
        result["end_to_end_max_abs"] = float("inf")
    if collector is not None:
        collector.divergence = result
    return result
