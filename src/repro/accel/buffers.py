"""Multi-bank on-chip buffer model (the input-weight buffer of Fig. 7).

The MLCNN accelerator hides DRAM latency behind a *multi-bank
input-weight buffer*; multiple AR units and MAC slices read it every
cycle, so bank conflicts matter.  This model checks that the word
interleaving sustains the required parallel reads and counts conflicts
when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from repro.nn.counters import get_recorder


@dataclass
class BufferStats:
    cycles: int = 0
    reads: int = 0
    writes: int = 0
    conflicts: int = 0

    @property
    def conflict_rate(self) -> float:
        total = self.reads + self.writes
        return self.conflicts / total if total else 0.0


class MultiBankBuffer:
    """Word-interleaved SRAM with one read/write port per bank.

    Addresses are in words; word ``a`` lives in bank ``a % num_banks``.
    :meth:`cycle` services a batch of simultaneous accesses and returns
    the number of cycles needed (1 when conflict-free; more when
    several accesses hit the same bank and must serialize).
    """

    def __init__(self, num_banks: int, words_per_bank: int) -> None:
        if num_banks < 1 or words_per_bank < 1:
            raise ValueError("need at least one bank and one word per bank")
        self.num_banks = num_banks
        self.words_per_bank = words_per_bank
        self._data: List[List[float]] = [[0.0] * words_per_bank for _ in range(num_banks)]
        self.stats = BufferStats()

    @property
    def capacity_words(self) -> int:
        return self.num_banks * self.words_per_bank

    def _locate(self, address: int):
        if not 0 <= address < self.capacity_words:
            raise IndexError(f"address {address} outside buffer of {self.capacity_words} words")
        return address % self.num_banks, address // self.num_banks

    def write(self, address: int, value: float) -> None:
        bank, offset = self._locate(address)
        self._data[bank][offset] = value
        self.stats.writes += 1
        get_recorder().record(buffer_writes=1)

    def read(self, address: int) -> float:
        bank, offset = self._locate(address)
        self.stats.reads += 1
        get_recorder().record(buffer_reads=1)
        return self._data[bank][offset]

    def cycle(self, read_addresses: Sequence[int]) -> int:
        """Service ``read_addresses`` issued in the same cycle.

        Returns cycles consumed: the maximum number of accesses mapped
        to any single bank (ports serialize within a bank).
        """
        per_bank = [0] * self.num_banks
        for addr in read_addresses:
            bank, _ = self._locate(addr)
            per_bank[bank] += 1
        worst = max(per_bank, default=0)
        cycles = max(1, worst)
        conflicts = sum(max(0, c - 1) for c in per_bank)
        self.stats.cycles += cycles
        self.stats.reads += len(read_addresses)
        self.stats.conflicts += conflicts
        get_recorder().record(buffer_reads=len(read_addresses), buffer_conflicts=conflicts)
        return cycles

    def load_array(self, values: Iterable[float], base: int = 0) -> int:
        """Bulk-load values at consecutive addresses; returns the count."""
        n = 0
        for i, v in enumerate(values):
            self.write(base + i, v)
            n += 1
        return n


def conflict_free_stride(num_banks: int, parallel_reads: int) -> int:
    """Smallest stride whose ``parallel_reads`` consecutive-stride reads
    never collide on ``num_banks`` word-interleaved banks.

    Stride 1 (unit-strided streams, the MLCNN access pattern) is always
    conflict-free when ``parallel_reads <= num_banks``.
    """
    if parallel_reads > num_banks:
        raise ValueError("cannot serve more parallel reads than banks")
    for stride in range(1, num_banks + 1):
        banks = {(i * stride) % num_banks for i in range(parallel_reads)}
        if len(banks) == parallel_reads:
            return stride
    raise RuntimeError("unreachable: stride 1 always works")  # pragma: no cover
