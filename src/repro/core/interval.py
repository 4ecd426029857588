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

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Sequence

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


def build_interval_profiles(
    warps: Sequence[WarpTrace],
    latency_table: LatencyTable,
    issue_rate: float = 1.0,
) -> List[IntervalProfile]:
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
) -> List[IntervalProfile]:
    """Per-warp reference scan: :func:`build_interval_profile` per warp."""
    return [
        build_interval_profile(warp, latency_table, issue_rate)
        for warp in warps
    ]


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
