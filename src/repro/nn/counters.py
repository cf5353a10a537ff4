"""Measured op counters: the one record of multiplications performed.

:class:`OpCounters` are collected by a process-wide
:class:`CounterRecorder` (disabled by default, same design as
:class:`repro.obs.tracer.Tracer`).  Every kernel records what it
performs when it performs it:

* :func:`repro.nn.functional.conv2d` and :func:`~repro.nn.functional.linear`
  their multiply-accumulates;
* the fused float kernels (vectorized, fp32 NHWC, and the reference
  composition) their RME-reduced ``mults`` and ``mults_eliminated``
  through :func:`repro.core.kernels.fused.record_rme_counters`;
* the counted loop nests in :mod:`repro.core.fusion` the whole
  :class:`OpCounters` they return: multiplications, half/full/major/bias
  additions and LAR/GAR reuse hits;
* the accelerator simulator (:func:`repro.accel.simulator.simulate_layer`)
  its memory events: SRAM buffer accesses and DRAM bytes.

Counts are forward-only.  Unlike the closed-form
:mod:`repro.core.opcount` formulas, these numbers come from real
executions, so the analytic claims are auditable
(``tests/core/test_oracle.py`` requires the two to be equal)::

    from repro.obs import collect_counters

    with collect_counters() as oc:
        fused_conv_pool_counted(x, w, b, pool=2)
        simulate_network(specs, get_config("mlcnn-fp32"))
    print(oc.mults_eliminated, oc.dram_bytes)

This module imports only the standard library, so the kernels in
:mod:`repro.nn` can record without importing :mod:`repro.obs`;
:mod:`repro.obs` re-exports its four names.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Dict, Iterator, List, Mapping

__all__ = ["OpCounters", "CounterRecorder", "get_recorder", "collect_counters"]


@dataclass
class OpCounters:
    """Measured event counts from instrumented executions.

    Arithmetic fields are filled by the kernels; memory fields by the
    accelerator simulator.  All fields are additive, so one collection can
    span a whole run (many kernels + a simulation) and still decompose
    meaningfully.
    """

    # -- arithmetic (kernels) ---------------------------------------------
    #: multiplications actually performed
    mults: int = 0
    #: multiplications a dense execution of the same geometry would have
    #: performed but RME eliminated (0 for dense executions)
    mults_eliminated: int = 0
    half_additions: int = 0
    full_additions: int = 0
    major_additions: int = 0
    bias_additions: int = 0
    #: additions avoided because a half addition was found in the LAR cache
    lar_reuse_hits: int = 0
    #: additions avoided because a full box sum was found in the GAR cache
    gar_reuse_hits: int = 0

    # -- memory (accelerator simulator) -----------------------------------
    #: SRAM accesses attributed by the cycle simulator's buffer model
    buffer_accesses: float = 0.0
    #: bytes moved per the simulator's tiling-derived traffic model
    dram_bytes: float = 0.0

    @property
    def additions(self) -> int:
        """All additions actually performed by instrumented kernels."""
        return (
            self.half_additions
            + self.full_additions
            + self.major_additions
            + self.bias_additions
        )

    @property
    def reuse_hits(self) -> int:
        """All additions avoided by LAR + GAR caches."""
        return self.lar_reuse_hits + self.gar_reuse_hits

    def merge(self, other: "OpCounters") -> "OpCounters":
        """Add ``other``'s counts into self (returns self)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @classmethod
    def from_dict(cls, doc: Mapping[str, float]) -> "OpCounters":
        """Rebuild from :meth:`as_dict` output (or any field mapping).

        Tolerates the derived keys (``additions``, ``reuse_hits``) and
        any unknown keys, so a serialized :meth:`as_dict` document with
        derived totals round-trips.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})

    def as_dict(self, include_derived: bool = True) -> Dict[str, float]:
        doc: Dict[str, float] = asdict(self)
        if include_derived:
            doc["additions"] = self.additions
            doc["reuse_hits"] = self.reuse_hits
        return doc


class CounterRecorder:
    """Process-wide sink stack for :class:`OpCounters`.

    Disabled (zero overhead beyond one attribute check) until a
    collection is active; :func:`collect_counters` pushes a fresh
    :class:`OpCounters` and nested collections each receive every
    record, so an outer scope sees the totals of its inner scopes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sinks: List[OpCounters] = []

    @property
    def enabled(self) -> bool:
        return bool(self._sinks)

    def record(self, **counts: float) -> None:
        """Add the named field increments into every active sink."""
        if not self._sinks:
            return
        with self._lock:
            for sink in self._sinks:
                for name, value in counts.items():
                    setattr(sink, name, getattr(sink, name) + value)

    def _push(self, sink: OpCounters) -> None:
        with self._lock:
            self._sinks.append(sink)

    def _pop(self, sink: OpCounters) -> None:
        # by identity: nested sinks that saw the same records compare equal
        with self._lock:
            self._sinks = [s for s in self._sinks if s is not sink]


_RECORDER = CounterRecorder()


def get_recorder() -> CounterRecorder:
    """The process-wide counter recorder (inactive unless collecting)."""
    return _RECORDER


@contextmanager
def collect_counters() -> Iterator[OpCounters]:
    """Collect measured counters from everything executed in the body."""
    sink = OpCounters()
    _RECORDER._push(sink)
    try:
        yield sink
    finally:
        _RECORDER._pop(sink)
