"""DRAM timing model: row-buffer locality and burst transfers.

The cycle model in :mod:`repro.accel.simulator` treats DRAM as a
bandwidth/latency pair; this component model refines that for studies
of the *streaming* behaviour the MLCNN dataflow depends on: tile
transfers are long sequential bursts, so row-buffer hits dominate and
the effective bandwidth approaches the peak.  Random access (the
pattern a naive untiled execution would produce) pays a row activation
per access.

The parameters are typical of DDR3-1600 scaled to cycles of a 1 GHz
accelerator clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nn.counters import get_recorder


@dataclass
class DramConfig:
    row_size_bytes: int = 2048
    #: cycles to activate (open) a row after a miss
    row_activate_cycles: int = 14
    #: cycles for column access on an open row
    cas_cycles: int = 14
    #: bytes transferred per cycle once streaming
    bytes_per_cycle: float = 16.0

    def __post_init__(self) -> None:
        if self.row_size_bytes <= 0 or self.bytes_per_cycle <= 0:
            raise ValueError("row size and bandwidth must be positive")


@dataclass
class DramStats:
    accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0
    bytes_transferred: int = 0
    cycles: int = 0

    @property
    def hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


class DramModel:
    """A single-rank open-page DRAM with one row buffer."""

    def __init__(self, config: DramConfig | None = None) -> None:
        self.config = config or DramConfig()
        self.stats = DramStats()
        self._open_row: int | None = None

    def reset(self) -> None:
        self.stats = DramStats()
        self._open_row = None

    def access(self, address: int, nbytes: int) -> int:
        """Transfer ``nbytes`` starting at ``address``; returns cycles.

        A transfer spanning multiple rows pays one activation per new
        row; within a row, data streams at the configured bandwidth.
        """
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        if address < 0:
            raise ValueError("address must be non-negative")
        cfg = self.config
        cycles = 0
        accesses = hits = misses = 0
        remaining = nbytes
        addr = address
        while remaining > 0:
            row = addr // cfg.row_size_bytes
            accesses += 1
            if row == self._open_row:
                hits += 1
                cycles += cfg.cas_cycles
            else:
                misses += 1
                cycles += cfg.row_activate_cycles + cfg.cas_cycles
                self._open_row = row
            in_row = min(remaining, cfg.row_size_bytes - addr % cfg.row_size_bytes)
            cycles += int(np_ceil(in_row / cfg.bytes_per_cycle))
            addr += in_row
            remaining -= in_row
        self.stats.accesses += accesses
        self.stats.row_hits += hits
        self.stats.row_misses += misses
        self.stats.bytes_transferred += nbytes
        self.stats.cycles += cycles
        get_recorder().record(
            dram_accesses=accesses,
            dram_row_hits=hits,
            dram_row_misses=misses,
            dram_cycles=cycles,
            dram_bytes=nbytes,
        )
        return cycles

    def stream(self, address: int, nbytes: int, chunk: int = 64) -> int:
        """Sequential transfer in ``chunk``-byte requests (tile DMA)."""
        total = 0
        for off in range(0, nbytes, chunk):
            total += self.access(address + off, min(chunk, nbytes - off))
        return total

    def effective_bandwidth(self) -> float:
        """Observed bytes per cycle over every access so far."""
        return self.stats.bytes_transferred / self.stats.cycles if self.stats.cycles else 0.0


def np_ceil(x: float) -> int:
    """Integer ceiling without importing numpy for one call."""
    n = int(x)
    return n if n == x else n + 1
