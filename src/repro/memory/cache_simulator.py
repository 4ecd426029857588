"""Functional cache simulation: per-PC miss-event distributions (Sec. V).

Replays the memory instructions of every warp trace through the L1/L2
hierarchy *round-robin across warps* — the interleaving the paper's input
collector uses — with warps mapped to cores the same way the timing
oracle maps them (blocks round-robin over cores).  No timing is modeled;
the output is, per static memory instruction (PC):

* the distribution of *instruction-level* miss events, where a divergent
  instruction's event is that of its slowest request (drives the per-PC
  AMAT latency and the CPI-stack memory categories), and
* the distribution of *request-level* miss events (drives the contention
  models: only L1-missing read requests occupy MSHRs; only DRAM-bound
  traffic occupies the bus).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import GPUConfig
from repro.memory.hierarchy import MemoryHierarchy, MissEvent
from repro.trace.trace_types import KernelTrace, OpCode


def core_of_block(block_id: int, n_cores: int) -> int:
    """Block → core assignment shared by cache sim and timing oracle."""
    return block_id % n_cores


@dataclass
class PCStats:
    """Miss statistics of one static memory instruction."""

    pc: int
    is_store: bool
    n_insts: int = 0
    n_requests: int = 0
    inst_events: Dict[MissEvent, int] = field(
        default_factory=lambda: {e: 0 for e in MissEvent}
    )
    req_events: Dict[MissEvent, int] = field(
        default_factory=lambda: {e: 0 for e in MissEvent}
    )
    #: Per dynamic *occurrence* (the j-th execution of this PC within a
    #: warp), the distribution of instruction events across warps.  Used
    #: to measure whether warps agree at the same point of execution —
    #: the alignment signal for the round-robin lockstep model.
    occurrence_events: List[Dict[MissEvent, int]] = field(default_factory=list)

    def inst_event_fraction(self, event: MissEvent) -> float:
        """Fraction of dynamic instructions whose worst request hit ``event``."""
        return self.inst_events[event] / self.n_insts if self.n_insts else 0.0

    def req_event_fraction(self, event: MissEvent) -> float:
        """Fraction of individual requests classified as ``event``."""
        return self.req_events[event] / self.n_requests if self.n_requests else 0.0

    @property
    def req_l1_miss_fraction(self) -> float:
        """Fraction of requests that missed L1 (and thus occupy an MSHR)."""
        return 1.0 - self.req_event_fraction(MissEvent.L1_HIT)

    @property
    def req_l2_miss_fraction(self) -> float:
        """Fraction of requests that reach DRAM."""
        return self.req_event_fraction(MissEvent.L2_MISS)

    @property
    def avg_requests_per_inst(self) -> float:
        """Mean memory-divergence degree of this PC."""
        return self.n_requests / self.n_insts if self.n_insts else 0.0

    def cross_warp_collision(self) -> float:
        """Probability two warps see the same event at the same occurrence.

        Averaged over this PC's dynamic occurrences (weighted by how many
        warps reached each): 1.0 when every warp always experiences the
        same miss event at the same point of execution (warps can stay in
        lockstep under round-robin), lower when outcomes differ across
        warps (warps stagger).  Occurrences reached by fewer than two
        warps carry no cross-warp information and are skipped.
        """
        weighted = 0.0
        weight = 0.0
        for events in self.occurrence_events:
            total = sum(events.values())
            if total < 2:
                continue
            collision = sum(
                (count / total) ** 2 for count in events.values() if count
            )
            weighted += collision * total
            weight += total
        return weighted / weight if weight else 1.0

    def amat(self, config: GPUConfig) -> float:
        """Average memory access time of the PC (Sec. V-B example)."""
        if not self.n_insts:
            return float(config.l1_latency)
        total = sum(
            count * config.miss_event_latency(event.key)
            for event, count in self.inst_events.items()
        )
        return total / self.n_insts


@dataclass
class CacheSimResult:
    """Output of :func:`simulate_caches`."""

    per_pc: Dict[int, PCStats]
    l1_miss_rate: float
    l2_miss_rate: float

    def load_pcs(self) -> List[int]:
        """Static load PCs, sorted."""
        return sorted(pc for pc, s in self.per_pc.items() if not s.is_store)

    def store_pcs(self) -> List[int]:
        """Static store PCs, sorted."""
        return sorted(pc for pc, s in self.per_pc.items() if s.is_store)

    def stats_for(self, pc: int) -> PCStats:
        """Statistics of one memory PC (KeyError if not a memory PC)."""
        return self.per_pc[pc]

    def avg_miss_latency(self, config: GPUConfig) -> float:
        """Average L2/DRAM access latency over L1-missing load requests.

        This is the paper's ``avg_miss_latency`` (Eq. 19): the mean
        service time of a request that occupies an MSHR, absent any
        contention.
        """
        weighted = 0.0
        count = 0
        for stats in self.per_pc.values():
            if stats.is_store:
                continue
            l2_hits = stats.req_events[MissEvent.L2_HIT]
            l2_misses = stats.req_events[MissEvent.L2_MISS]
            weighted += l2_hits * config.miss_event_latency("l2_hit")
            weighted += l2_misses * config.miss_event_latency("l2_miss")
            count += l2_hits + l2_misses
        if not count:
            return float(config.l2_miss_latency)
        return weighted / count


def _resident_waves(
    trace: KernelTrace, config: GPUConfig, warps_per_core: Optional[int]
) -> List[List[List[int]]]:
    """Group warp indices into per-core residency waves.

    The cache simulator must model "a system with the number of warps and
    cores equal to that of the modeled system" (Sec. V-A): only the warps
    that are *concurrently resident* interleave their accesses.  Blocks
    are assigned to cores round-robin (like the oracle) and chunked into
    waves of at most the core's resident-block capacity.
    """
    limit = warps_per_core if warps_per_core is not None else (
        config.max_warps_per_core
    )
    blocks: Dict[int, List[int]] = {}
    for w, warp in enumerate(trace.warps):
        blocks.setdefault(warp.block_id, []).append(w)
    per_core_waves: List[List[List[int]]] = [
        [] for _ in range(config.n_cores)
    ]
    current: List[List[int]] = [[] for _ in range(config.n_cores)]
    for block_id in sorted(blocks):
        core = core_of_block(block_id, config.n_cores)
        block_warps = blocks[block_id]
        if current[core] and len(current[core]) + len(block_warps) > limit:
            per_core_waves[core].append(current[core])
            current[core] = []
        current[core].extend(block_warps)
    for core, wave in enumerate(current):
        if wave:
            per_core_waves[core].append(wave)
    return per_core_waves


def simulate_caches(
    trace: KernelTrace,
    config: GPUConfig,
    warps_per_core: Optional[int] = None,
) -> CacheSimResult:
    """Replay all memory traffic and collect per-PC miss distributions.

    Warps interleave round-robin *within their residency wave* (the set
    concurrently on a core), waves run back to back — matching the
    occupancy the timing oracle enforces, which is what determines cache
    reuse distances.

    Runs the batched replay (:mod:`repro.memory.cache_sim_vec`), which
    is bitwise-identical to :func:`simulate_caches_reference`.
    """
    from repro.memory.cache_sim_vec import simulate_caches_vectorized

    return simulate_caches_vectorized(
        trace, config, warps_per_core=warps_per_core
    )


def simulate_caches_reference(
    trace: KernelTrace,
    config: GPUConfig,
    warps_per_core: Optional[int] = None,
) -> CacheSimResult:
    """Loop-nest reference replay: one request at a time through a
    :class:`~repro.memory.hierarchy.MemoryHierarchy`.

    The executable specification :func:`simulate_caches` is tested
    against; arguments and result as for :func:`simulate_caches`.
    """
    hierarchy = MemoryHierarchy(config)
    per_pc: Dict[int, PCStats] = {}

    # Per-warp cursors over the indices of memory instructions.
    mem_indices: List[List[int]] = []
    for warp in trace.warps:
        mem_indices.append(
            [
                i
                for i, op in enumerate(warp.ops)
                if op in (OpCode.LOAD, OpCode.STORE)
            ]
        )

    cursors = [0] * len(trace.warps)
    # Per-warp, per-PC occurrence counters for the cross-warp agreement
    # statistics.
    occurrence: List[Dict[int, int]] = [dict() for _ in trace.warps]
    waves = _resident_waves(trace, config, warps_per_core)
    wave_cursor = [0] * config.n_cores

    def replay_one(core: int, w: int) -> bool:
        """Replay warp w's next memory instruction; False if exhausted."""
        mem = mem_indices[w]
        cursor = cursors[w]
        if cursor >= len(mem):
            return False
        warp = trace.warps[w]
        index = mem[cursor]
        cursors[w] = cursor + 1
        pc = int(warp.pcs[index])
        is_store = warp.ops[index] == OpCode.STORE
        stats = per_pc.get(pc)
        if stats is None:
            stats = per_pc[pc] = PCStats(pc=pc, is_store=bool(is_store))
        worst = MissEvent.L1_HIT
        lines = warp.requests(index)
        for line in lines:
            event = hierarchy.access(core, int(line), is_store=is_store)
            stats.req_events[event] += 1
            if event > worst:
                worst = event
        stats.n_insts += 1
        stats.n_requests += len(lines)
        stats.inst_events[worst] += 1
        j = occurrence[w].get(pc, 0)
        occurrence[w][pc] = j + 1
        slots = stats.occurrence_events
        if j >= len(slots):
            slots.extend({} for _ in range(j + 1 - len(slots)))
        slots[j][worst] = slots[j].get(worst, 0) + 1
        return True

    while True:
        progressed = False
        for core in range(config.n_cores):
            while wave_cursor[core] < len(waves[core]):
                wave = waves[core][wave_cursor[core]]
                wave_progressed = False
                for w in wave:
                    if replay_one(core, w):
                        wave_progressed = True
                if wave_progressed:
                    progressed = True
                    break
                wave_cursor[core] += 1  # wave drained; admit the next
        if not progressed:
            break

    l1_accesses = sum(c.n_accesses for c in hierarchy.l1s)
    l1_misses = sum(c.n_misses for c in hierarchy.l1s)
    return CacheSimResult(
        per_pc=per_pc,
        l1_miss_rate=l1_misses / l1_accesses if l1_accesses else 0.0,
        l2_miss_rate=hierarchy.l2.miss_rate,
    )
