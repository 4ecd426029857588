"""The interval algorithm: a warp's trace → its interval profile.

Sec. III-B of the paper.  The algorithm replays a single warp's dynamic
instruction stream under an idealised in-order core issuing one
instruction per cycle, using the per-PC latencies from the input
collector.  The issue-cycle recurrence is Eq. 4:

    issue(k) = max(issue(k-1) + 1,  max over producers p of done(p))

with ``done(p) = issue(p) + latency(p)`` (a consumer may issue
``latency`` cycles after its producer — the same semantics the timing
oracle uses, so the single-warp model and the oracle agree exactly on an
uncontended warp).

An *interval* is a run of back-to-back issued instructions followed by
the stall that ends it (Fig. 6).  Alongside the paper's (instruction
count, stall cycles) pairs, each interval records what downstream stages
need: the stall's *cause* (the producer that pushed the issue cycle out —
a compute dependence or a memory PC, for CPI-stack attribution) and the
interval's expected memory-system footprint (MSHR-occupying read
requests, DRAM-bound read/write traffic) for the contention models.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.latency import LatencyTable
from repro.memory.hierarchy import MissEvent
from repro.trace.trace_types import NO_DEP, OpCode, WarpTrace


@dataclass
class Interval:
    """One interval: issued instructions followed by a stall."""

    n_insts: int = 0
    stall_cycles: float = 0.0
    cause_pc: int = -1  # PC of the producer that caused the stall
    cause_is_memory: bool = False
    # Memory footprint of the instructions *in* this interval:
    n_loads: int = 0
    n_stores: int = 0
    load_reqs: int = 0
    store_reqs: int = 0
    # SFU instructions in this interval (for the SFU-contention extension).
    n_sfu: int = 0
    # Scratchpad accesses: instruction count and total serialised bank
    # slots (sum of conflict degrees).
    n_smem: int = 0
    smem_slots: int = 0
    # Expected values under the cache simulator's miss distributions:
    exp_mshr_reqs: float = 0.0  # read requests that occupy MSHRs (L1 misses)
    exp_dram_read_reqs: float = 0.0  # read requests that reach DRAM
    exp_mshr_loads: float = 0.0  # load instructions with >= 1 L1 miss
    exp_dram_loads: float = 0.0  # load instructions stalled on DRAM

    @property
    def n_mem_insts(self) -> int:
        """Memory instructions issued in this interval."""
        return self.n_loads + self.n_stores

    @property
    def dram_reqs(self) -> float:
        """Expected DRAM bus transfers: write-through stores + L2 misses."""
        return self.store_reqs + self.exp_dram_read_reqs

    def cycles(self, issue_rate: float) -> float:
        """Total cycles of the interval (issue + stall)."""
        return self.n_insts / issue_rate + self.stall_cycles


@dataclass
class IntervalProfile:
    """A warp's collection of intervals (Eq. 2) plus aggregates."""

    warp_id: int
    intervals: List[Interval] = field(default_factory=list)
    issue_rate: float = 1.0

    @property
    def n_intervals(self) -> int:
        """Number of intervals in the profile."""
        return len(self.intervals)

    @cached_property
    def n_insts(self) -> int:
        """Total instructions across all intervals.

        Computed once on first access (profiles are frozen after
        construction) — the downstream models read this inside per-cycle
        loops, where an O(n_intervals) re-sum per access dominated.
        """
        return sum(i.n_insts for i in self.intervals)

    @cached_property
    def total_stall_cycles(self) -> float:
        """Total stall cycles across all intervals (cached like
        :attr:`n_insts`; do not mutate ``intervals`` after reading)."""
        return sum(i.stall_cycles for i in self.intervals)

    @property
    def total_cycles(self) -> float:
        """Single-warp execution time (issue cycles + stalls)."""
        return self.n_insts / self.issue_rate + self.total_stall_cycles

    @property
    def warp_perf(self) -> float:
        """Single-warp IPC (Eq. 5): the clustering feature."""
        cycles = self.total_cycles
        return self.n_insts / cycles if cycles else 0.0

    @property
    def single_warp_cpi(self) -> float:
        """CPI of the warp running alone (1 / warp_perf)."""
        return 1.0 / self.warp_perf if self.n_insts else 0.0

    @property
    def avg_interval_insts(self) -> float:
        """Mean instructions per interval (Eq. 13)."""
        return self.n_insts / self.n_intervals if self.n_intervals else 0.0

    @property
    def issue_prob(self) -> float:
        """Probability a lone warp can issue in a cycle (Eq. 9).

        Identical to :attr:`warp_perf` for issue_rate 1; kept as its own
        name to mirror the paper's equations.
        """
        return self.warp_perf


_FIELD_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_}

#: Column dtype of every :class:`Interval` field, in field order.
COLUMN_DTYPES: Dict[str, type] = {
    f.name: _FIELD_DTYPES[f.type] for f in fields(Interval)
}


class IntervalProfiles:
    """Every warp's intervals of one launch, stored as columns.

    The ``interval_profiles`` artifact.  ``columns`` holds one array per
    :class:`Interval` field over all warps' intervals in warp order;
    warp ``i`` owns rows ``warp_offsets[i]:warp_offsets[i + 1]``.  Only
    indexing builds :class:`Interval` objects, for the one warp asked
    for, so pickling the table costs one array per field instead of
    one object per interval.

    ``len()`` is the warp count; ``profiles[i]`` and iteration yield
    self-contained :class:`IntervalProfile` objects.
    """

    def __init__(
        self,
        columns: Dict[str, Sequence],
        warp_offsets: Sequence[int],
        warp_ids: Sequence[int],
        issue_rate: float = 1.0,
    ) -> None:
        self.columns = {
            name: np.ascontiguousarray(columns[name], dtype=dtype)
            for name, dtype in COLUMN_DTYPES.items()
        }
        self.warp_offsets = np.ascontiguousarray(warp_offsets, dtype=np.int64)
        self.warp_ids = np.ascontiguousarray(warp_ids, dtype=np.int64)
        self.issue_rate = issue_rate
        n_rows = len(self.columns["n_insts"])
        if (
            len(self.warp_offsets) != len(self.warp_ids) + 1
            or self.warp_offsets[0] != 0
            or self.warp_offsets[-1] != n_rows
            or any(len(col) != n_rows for col in self.columns.values())
        ):
            raise ValueError("inconsistent interval-profile columns")

    @classmethod
    def from_profiles(
        cls,
        profiles: Iterable[IntervalProfile],
        issue_rate: Optional[float] = None,
    ) -> "IntervalProfiles":
        """The table of per-warp profiles (which share one issue rate)."""
        profiles = list(profiles)
        if issue_rate is None:
            issue_rate = profiles[0].issue_rate if profiles else 1.0
        if any(p.issue_rate != issue_rate for p in profiles):
            raise ValueError("profiles in one table share one issue rate")
        rows = [i for p in profiles for i in p.intervals]
        return cls(
            {name: [getattr(i, name) for i in rows] for name in COLUMN_DTYPES},
            np.cumsum([0] + [len(p.intervals) for p in profiles]),
            [p.warp_id for p in profiles],
            issue_rate,
        )

    @classmethod
    def concat(cls, parts: Sequence["IntervalProfiles"]) -> "IntervalProfiles":
        """One table of consecutive warp chunks (built under one
        configuration), in order."""
        offsets = [np.zeros(1, dtype=np.int64)]
        base = 0
        for part in parts:
            offsets.append(part.warp_offsets[1:] + base)
            base += int(part.warp_offsets[-1])
        return cls(
            {
                name: np.concatenate([p.columns[name] for p in parts])
                for name in COLUMN_DTYPES
            },
            np.concatenate(offsets),
            np.concatenate([p.warp_ids for p in parts]),
            parts[0].issue_rate,
        )

    def __len__(self) -> int:
        return len(self.warp_ids)

    def __getitem__(self, index: int) -> IntervalProfile:
        n = len(self)
        index = operator.index(index)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("warp index out of range")
        lo, hi = self.warp_offsets[index : index + 2].tolist()
        intervals = list(
            map(Interval, *(col[lo:hi].tolist() for col in self.columns.values()))
        )
        return IntervalProfile(
            int(self.warp_ids[index]), intervals, self.issue_rate
        )

    def __iter__(self) -> Iterator[IntervalProfile]:
        return (self[i] for i in range(len(self)))

    def warp_n_insts(self) -> np.ndarray:
        """Per-warp :attr:`IntervalProfile.n_insts` (exact integer sums)."""
        totals = np.concatenate(([0], np.cumsum(self.columns["n_insts"])))
        return totals[self.warp_offsets[1:]] - totals[self.warp_offsets[:-1]]

    def warp_perf(self) -> np.ndarray:
        """Per-warp :attr:`IntervalProfile.warp_perf`, bitwise.

        Each warp's stall total is a left-to-right Python ``sum`` over
        its rows, as the profile computes it; numpy's pairwise sum
        would round differently.
        """
        stalls = self.columns["stall_cycles"].tolist()
        bounds = self.warp_offsets.tolist()
        perf = []
        for n, lo, hi in zip(self.warp_n_insts().tolist(), bounds, bounds[1:]):
            cycles = n / self.issue_rate + sum(stalls[lo:hi])
            perf.append(n / cycles if cycles else 0.0)
        return np.array(perf, dtype=np.float64)


def build_interval_profiles(
    warps: Sequence[WarpTrace],
    latency_table: LatencyTable,
    issue_rate: float = 1.0,
) -> IntervalProfiles:
    """Interval profiles for an ordered collection of warp traces.

    Runs the batched numpy scan (:mod:`repro.core.interval_vec`), which
    is bitwise-identical to :func:`build_interval_profiles_reference`.
    """
    from repro.core.interval_vec import build_interval_profiles as vec

    return vec(warps, latency_table, issue_rate)


def build_interval_profiles_reference(
    warps: Sequence[WarpTrace],
    latency_table: LatencyTable,
    issue_rate: float = 1.0,
) -> IntervalProfiles:
    """Per-warp reference scan: :func:`build_interval_profile` per warp."""
    return IntervalProfiles.from_profiles(
        (build_interval_profile(warp, latency_table, issue_rate)
         for warp in warps),
        issue_rate,
    )


def build_interval_profile(
    warp: WarpTrace,
    latency_table: LatencyTable,
    issue_rate: float = 1.0,
) -> IntervalProfile:
    """Run the interval algorithm (Eq. 4) over one warp trace."""
    n = len(warp)
    profile = IntervalProfile(warp_id=warp.warp_id, issue_rate=issue_rate)
    if not n:
        return profile

    pcs = warp.pcs.tolist()
    ops = warp.ops.tolist()
    deps = warp.deps.tolist()
    nreqs = warp.requests_per_inst.tolist()
    conflicts = warp.conflict.tolist()
    lat = latency_table.as_array[warp.pcs].tolist()
    pc_stats = latency_table.pc_stats

    issue = [0.0] * n
    step = 1.0 / issue_rate
    current = Interval()
    intervals = profile.intervals

    prev_issue = -step
    for k in range(n):
        earliest = prev_issue + step
        ready = earliest
        cause = -1
        for dep in deps[k]:
            if dep == NO_DEP:
                continue
            done = issue[dep] + lat[dep]
            if done > ready:
                ready = done
                cause = dep
        issue[k] = ready
        stall = ready - earliest
        if stall > 0.0 and current.n_insts:
            # Close the current interval: its instructions are the ones
            # issued before this stall; the stall's cause is the producer
            # that pushed instruction k out.
            current.stall_cycles = stall
            current.cause_pc = pcs[cause]
            current.cause_is_memory = ops[cause] == OpCode.LOAD
            intervals.append(current)
            current = Interval()
        _account(current, k, ops, pcs, nreqs, conflicts, pc_stats)
        current.n_insts += 1
        prev_issue = ready

    intervals.append(current)  # trailing interval with no stall
    return profile


def _account(interval, k, ops, pcs, nreqs, conflicts, pc_stats) -> None:
    """Add instruction k's memory footprint to the open interval."""
    op = ops[k]
    if op == OpCode.LOAD:
        interval.n_loads += 1
        reqs = nreqs[k]
        interval.load_reqs += reqs
        stats = pc_stats.get(pcs[k])
        if stats is not None and stats.n_requests:
            interval.exp_mshr_reqs += reqs * stats.req_l1_miss_fraction
            interval.exp_dram_read_reqs += reqs * stats.req_l2_miss_fraction
            interval.exp_mshr_loads += 1.0 - stats.inst_event_fraction(
                MissEvent.L1_HIT
            )
            interval.exp_dram_loads += stats.inst_event_fraction(
                MissEvent.L2_MISS
            )
    elif op == OpCode.STORE:
        interval.n_stores += 1
        interval.store_reqs += nreqs[k]
    elif op == OpCode.SFU:
        interval.n_sfu += 1
    elif op in (OpCode.SMEM_LOAD, OpCode.SMEM_STORE):
        interval.n_smem += 1
        interval.smem_slots += max(conflicts[k], 1)
