"""Per-layer numerics health monitoring (the third observability axis).

The tracer (:mod:`repro.obs.tracer`) answers *where time goes*, the
measured counters (:mod:`repro.nn.counters`) answer *what work
happened*; this module answers *where numerical damage happens* — the
evidence behind the paper's two accuracy claims (the
``Conv→ReLU→AvgPool`` → ``Conv→AvgPool→ReLU`` swap is benign, and INT8
DoReFa quantization stays accuracy-equivalent).

Three layers:

* **Streaming estimators** — :class:`Welford` (count/mean/std/min/max
  in one pass, mergeable across shards) and :class:`P2Quantile` (the
  P² algorithm: approximate percentiles from five markers, no sample
  retention).  :class:`TensorStats` composes them with NaN/inf/zero
  accounting over a stream of arrays; memory is O(1) per stream no
  matter how many batches flow through.
* **The collector** — :class:`NumericsCollector` holds one
  :class:`TensorStats` per ``(layer, kind)`` stream.  Attach it with
  ``instrument_model(model, numerics=collector)`` and every module's
  forward output and backward gradient is observed; the quantized
  execution paths (:mod:`repro.core.quantize`,
  :mod:`repro.core.fixedpoint`) report clip/saturation/overflow events
  into every *enabled* collector via :func:`record_quant_event`,
  attributed to the layer currently executing.  A configurable NaN/inf
  **watchdog** (``record`` / ``warn`` / ``raise``) fires on the first
  non-finite value, naming the offending layer and batch.
* **The reorder-divergence probe** — :func:`reorder_divergence` runs a
  network in *both* activation orders on a probe batch and reports
  per-layer and end-to-end max-abs divergence plus the top-1 flip
  rate.  :class:`repro.compiler.passes.ReorderDivergenceProbePass`
  exposes it as a compiler validation step.

Everything exports through the existing surfaces: ``report()`` is a
JSON document, ``to_jsonl()`` a greppable event log (the
``numerics.jsonl`` of an ``--obs`` run directory), and
``summary_report()`` the standard table the dashboard renders.
Disabled collectors cost one attribute check per call (guarded by
``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Welford",
    "P2Quantile",
    "TensorStats",
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
# Streaming estimators
# ---------------------------------------------------------------------------

class Welford:
    """Streaming count / mean / variance / min / max (Welford's method).

    ``update`` consumes whole arrays (batched Chan/parallel update, no
    Python-level loop); ``merge`` combines two independently-built
    estimators exactly, so per-shard statistics can be reduced to a
    global one.  Variance is the population variance (``ddof=0``),
    matching ``numpy.std``'s default.
    """

    __slots__ = ("n", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def update(self, values: np.ndarray) -> None:
        """Fold a batch of finite values into the running statistics."""
        values = np.asarray(values, dtype=np.float64).ravel()
        nb = values.size
        if nb == 0:
            return
        mb = float(values.mean())
        m2b = float(((values - mb) ** 2).sum())
        self._combine(nb, mb, m2b)
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))

    def merge(self, other: "Welford") -> "Welford":
        """Fold ``other``'s statistics into self (exact); returns self."""
        if other.n:
            self._combine(other.n, other.mean, other._m2)
            self.minimum = min(self.minimum, other.minimum)
            self.maximum = max(self.maximum, other.maximum)
        return self

    def _combine(self, nb: int, mb: float, m2b: float) -> None:
        na = self.n
        total = na + nb
        delta = mb - self.mean
        self.mean += delta * nb / total
        self._m2 += m2b + delta * delta * na * nb / total
        self.n = total

    @property
    def variance(self) -> float:
        return self._m2 / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


class P2Quantile:
    """The P² algorithm (Jain & Chlamtac 1985): one streaming quantile.

    Five markers track the target quantile ``q`` with parabolic
    (fallback linear) height adjustment — O(1) memory, no sample
    retention.  Exact while fewer than five observations have been
    seen.  Accuracy degrades gracefully on pathological distributions;
    ``tests/obs/test_numerics.py`` pins the behaviour on constant,
    bimodal and heavy-tailed streams.
    """

    __slots__ = ("q", "n", "_heights", "_pos", "_want", "_inc")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.n = 0
        self._heights: List[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._want = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._inc = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def add(self, x: float) -> None:
        """Observe one value."""
        x = float(x)
        self.n += 1
        if self.n <= 5:
            self._heights.append(x)
            self._heights.sort()
            return
        h = self._heights
        # locate the cell, extending the extremes when needed
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._pos[i] += 1.0
        for i in range(5):
            self._want[i] += self._inc[i]
        # adjust the three interior markers
        for i in (1, 2, 3):
            d = self._want[i] - self._pos[i]
            if (d >= 1.0 and self._pos[i + 1] - self._pos[i] > 1.0) or (
                d <= -1.0 and self._pos[i - 1] - self._pos[i] < -1.0
            ):
                step = 1.0 if d > 0 else -1.0
                cand = self._parabolic(i, step)
                if not h[i - 1] < cand < h[i + 1]:
                    cand = self._linear(i, step)
                h[i] = cand
                self._pos[i] += step

    def update(self, values: Sequence[float]) -> None:
        """Observe a batch of values."""
        for v in np.asarray(values, dtype=np.float64).ravel():
            self.add(v)

    def _parabolic(self, i: int, d: float) -> float:
        h, p = self._heights, self._pos
        return h[i] + d / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, p = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (p[j] - p[i])

    @property
    def value(self) -> float:
        """Current quantile estimate (NaN before any observation)."""
        if self.n == 0:
            return float("nan")
        if self.n <= 5:
            return float(np.quantile(self._heights, self.q))
        return self._heights[2]


class TensorStats:
    """Streaming health statistics for one stream of arrays.

    Tracks count, NaN/inf/zero counts, and — over the *finite* values
    only, so one stray inf cannot poison the distribution view —
    Welford mean/std/min/max plus P² percentile estimates.  Percentile
    estimators see at most ``sample_limit`` evenly-strided values per
    update (the P² inner loop is per-observation Python); the moment
    statistics always see every finite value.
    """

    __slots__ = ("count", "nan_count", "inf_count", "zero_count",
                 "moments", "quantiles", "sample_limit")

    def __init__(
        self,
        percentiles: Sequence[float] = (0.01, 0.5, 0.99),
        sample_limit: int = 256,
    ) -> None:
        self.count = 0
        self.nan_count = 0
        self.inf_count = 0
        self.zero_count = 0
        self.moments = Welford()
        self.quantiles: Dict[float, P2Quantile] = {
            float(q): P2Quantile(float(q)) for q in percentiles
        }
        self.sample_limit = int(sample_limit)

    def update(self, arr: np.ndarray) -> Tuple[int, int]:
        """Fold one array in; returns this update's (nan, inf) counts."""
        arr = np.asarray(arr)
        n = arr.size
        if n == 0:
            return 0, 0
        self.count += n
        finite_mask = np.isfinite(arr)
        n_finite = int(np.count_nonzero(finite_mask))
        nan = inf = 0
        if n_finite != n:
            nan = int(np.count_nonzero(np.isnan(arr)))
            inf = n - n_finite - nan
            self.nan_count += nan
            self.inf_count += inf
            finite = np.asarray(arr[finite_mask], dtype=np.float64).ravel()
        else:
            finite = np.asarray(arr, dtype=np.float64).ravel()
        self.zero_count += int(np.count_nonzero(finite == 0.0))
        if finite.size:
            self.moments.update(finite)
            if self.quantiles:
                if finite.size > self.sample_limit:
                    step = finite.size // self.sample_limit
                    sample = finite[::step][: self.sample_limit]
                else:
                    sample = finite
                for est in self.quantiles.values():
                    est.update(sample)
        return nan, inf

    @property
    def finite_count(self) -> int:
        return self.count - self.nan_count - self.inf_count

    @property
    def zero_fraction(self) -> float:
        return self.zero_count / self.finite_count if self.finite_count else 0.0

    def percentile(self, q: float) -> float:
        return self.quantiles[float(q)].value

    def as_dict(self) -> Dict[str, float]:
        doc: Dict[str, float] = {
            "count": self.count,
            "nan": self.nan_count,
            "inf": self.inf_count,
            "zero_fraction": self.zero_fraction,
            "mean": self.moments.mean,
            "std": self.moments.std,
            "min": self.moments.minimum if self.moments.n else float("nan"),
            "max": self.moments.maximum if self.moments.n else float("nan"),
        }
        for q in sorted(self.quantiles):
            doc[f"p{q * 100:g}"] = self.quantiles[q].value
        return doc


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
    """Per-layer numerics health: streaming stats, clip counters, watchdog.

    Attach with ``instrument_model(model, numerics=collector)``; enable
    with :meth:`enable` or as a context manager.  While enabled it also
    receives clip/saturation events from the quantized execution paths
    (:func:`record_quant_event`).  Disabled, instrumented forwards pay
    one attribute check.

    Parameters
    ----------
    percentiles:
        Quantiles estimated per stream via P² (empty tuple disables the
        per-observation estimator loop entirely — the cheap mode for
        training-time monitoring).
    watchdog:
        ``"record"`` (remember the first anomaly), ``"warn"`` (log a
        warning once per stream), or ``"raise"`` (raise
        :class:`NumericsError` naming the layer and batch).
    sample_limit:
        Max values per update fed to each percentile estimator.
    """

    def __init__(
        self,
        percentiles: Sequence[float] = (0.01, 0.5, 0.99),
        watchdog: str = "record",
        sample_limit: int = 256,
    ) -> None:
        if watchdog not in WATCHDOG_POLICIES:
            raise ValueError(
                f"unknown watchdog policy {watchdog!r}; valid: {WATCHDOG_POLICIES}"
            )
        self.percentiles = tuple(float(q) for q in percentiles)
        self.watchdog = watchdog
        self.sample_limit = sample_limit
        self.enabled = False
        self.stats: "Dict[Tuple[str, str], TensorStats]" = {}
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
        """Fold one array into the ``(layer, kind)`` stream.

        May raise :class:`NumericsError` under the ``raise`` policy.
        """
        if not self.enabled:
            return
        key = (layer, kind)
        with self._lock:
            stats = self.stats.get(key)
            if stats is None:
                stats = TensorStats(self.percentiles, self.sample_limit)
                self.stats[key] = stats
            nan, inf = stats.update(arr)
        if nan or inf:
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
    def report(self) -> Dict[str, Any]:
        """The full health report as one JSON-ready document."""
        with self._lock:
            layers = [
                {"layer": layer, "kind": kind, **stats.as_dict()}
                for (layer, kind), stats in self.stats.items()
            ]
            quant = {key: counter.as_dict() for key, counter in self.quant.items()}
        return {
            "layers": layers,
            "quant": quant,
            "divergence": self.divergence,
            "anomaly": self.first_anomaly,
        }

    def to_jsonl(self, **tags: Any) -> str:
        """One JSON object per stream / clip counter / probe result;
        every row carries ``tags`` (e.g. ``model="lenet5", bits=8``)."""
        lines: List[str] = []
        doc = self.report()
        for row in doc["layers"]:
            lines.append(json.dumps({"type": "numerics", **tags, **row}))
        for key, counter in sorted(doc["quant"].items()):
            lines.append(json.dumps({"type": "quant_clip", **tags, "name": key, **counter}))
        if doc["divergence"] is not None:
            lines.append(json.dumps({"type": "reorder_divergence", **tags, **doc["divergence"]}))
        if doc["anomaly"] is not None:
            lines.append(json.dumps({"type": "anomaly", **tags, **doc["anomaly"]}))
        return "\n".join(lines) + ("\n" if lines else "")

    def write_report(self, path: str) -> str:
        """Write the report to ``path`` (JSONL for ``.jsonl``, else JSON)."""
        with open(path, "w") as fh:
            if path.endswith(".jsonl"):
                fh.write(self.to_jsonl())
            else:
                json.dump(self.report(), fh, indent=2)
                fh.write("\n")
        return path

    def summary_report(self):
        """Per-layer table as a :class:`repro.analysis.report.ExperimentReport`."""
        from repro.analysis.report import ExperimentReport

        headers = ["layer", "kind", "count", "mean", "std", "min", "max", "zero%", "nan", "inf"]
        headers += [f"p{q * 100:g}" for q in sorted(self.percentiles)]
        rep = ExperimentReport("Numerics", "per-layer value-distribution health", headers=headers)
        with self._lock:
            items = list(self.stats.items())
        for (layer, kind), stats in items:
            d = stats.as_dict()
            row = [
                layer,
                kind,
                int(d["count"]),
                f"{d['mean']:.4g}",
                f"{d['std']:.4g}",
                f"{d['min']:.4g}",
                f"{d['max']:.4g}",
                f"{100 * d['zero_fraction']:.1f}",
                int(d["nan"]),
                int(d["inf"]),
            ]
            row += [f"{d[f'p{q * 100:g}']:.4g}" for q in sorted(self.percentiles)]
            rep.add_row(*row)
        with self._lock:
            quant = sorted(self.quant.items())
        for key, counter in quant:
            rep.add_note(
                f"quant {key}: {counter.clipped}/{counter.total} clipped "
                f"({100 * counter.rate:.2f}%)"
            )
        if self.divergence is not None:
            d = self.divergence
            rep.add_note(
                f"reorder divergence: end-to-end max|dev| {d['end_to_end_max_abs']:.4g}, "
                f"top-1 flips {100 * d['top1_flip_rate']:.1f}% over {d['layers']} pooled layer(s)"
            )
        if self.first_anomaly is not None:
            a = self.first_anomaly
            rep.add_note(
                f"ANOMALY: {a['layer']}.{a['kind']} ({a['nan']} NaN, {a['inf']} inf) "
                f"at epoch {a['epoch']}, batch {a['batch']}"
            )
        return rep

    def summary(self) -> str:
        """Rendered text of :meth:`summary_report`."""
        return self.summary_report().render()


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
