"""Per-core issue logic of the timing oracle.

Each core holds a queue of thread blocks, keeps up to ``warps_per_core``
warps resident (block-granular residency, like real GPUs), and issues
through one or more *scheduler partitions* — the architecture backend
(``repro.arch``) decides how many.  The paper's ``gpumech2014`` machine
has a single partition holding every resident warp; the ``subcore``
backend builds ``n_schedulers`` partitions (warp → partition by
activation age, one issue slot each per cycle — sub-core dispatch).
Within a partition the configured scheduler picks the issuing warp:

* **RR** (round-robin): priority rotates to the warp after the last
  issuer; the first ready warp in rotation order issues.
* **GTO** (greedy-then-oldest): keep issuing from the current warp until
  it stalls, then switch to the *oldest* resident warp that is ready
  (age = activation order) [Rogers et al., MICRO'12].

Dependency semantics match the interval algorithm (Eq. 4): a consumer may
issue ``latency`` cycles after its producer issued.  Loads walk the timed
L1/MSHR/L2/DRAM path built from :mod:`repro.memory`; stores are
write-through fire-and-forget traffic that consumes DRAM bandwidth but
never blocks the warp (and never occupies MSHRs) — the asymmetry behind
the paper's DRAM-bandwidth model.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence

from repro.config import GPUConfig
from repro.memory.cache import Cache
from repro.memory.dram import DRAMSystem
from repro.memory.mshr import MSHRError, MSHRFile
from repro.timing.stats import CoreStats
from repro.trace.trace_types import NO_DEP, OpCode, WarpTrace


class IssueStatus(enum.Enum):
    """Outcome of asking a warp whether it can issue this cycle."""

    OK = "ok"
    DEP_STALL = "dep"  # producers not complete yet (no warp was ready)
    MSHR_STALL = "mshr"  # ready but the MSHR file is full
    SFU_STALL = "sfu"  # ready but the SFU pipeline is occupied
    SMEM_STALL = "smem"  # ready but the scratchpad LSU is occupied
    BARRIER_STALL = "bar"  # waiting for block-mates at a barrier


_LOAD = int(OpCode.LOAD)
_STORE = int(OpCode.STORE)
_SFU = int(OpCode.SFU)
_SMEM_LOAD = int(OpCode.SMEM_LOAD)
_SMEM_STORE = int(OpCode.SMEM_STORE)
_BARRIER = int(OpCode.BARRIER)


class _WarpRun:
    """Runtime state of one resident warp.

    Trace columns are converted to native Python lists on activation:
    the issue loop touches them once per instruction per scheduler scan,
    where numpy scalar boxing would dominate the simulation time.
    """

    __slots__ = (
        "trace",
        "age",
        "next_idx",
        "done",
        "ready_at",
        "n_insts",
        "ops",
        "pcs",
        "deps",
        "req_lines",
        "req_offsets",
        "conflict",
        "bar_count",
        "block_runs",
        "absent_epoch",
        "absent",
    )

    def __init__(self, trace: WarpTrace, age: int):
        self.trace = trace
        self.age = age
        self.next_idx = 0
        self.n_insts = len(trace)
        self.ops = trace.ops.tolist()
        self.pcs = trace.pcs.tolist()
        self.deps = trace.deps.tolist()
        self.req_lines = trace.req_lines.tolist()
        self.req_offsets = trace.req_offsets.tolist()
        self.conflict = trace.conflict.tolist()
        self.bar_count = 0
        self.block_runs: List["_WarpRun"] = []
        # Memo of the next load's MSHR need: ``absent`` lines, valid
        # while the core's residency epoch equals ``absent_epoch``.
        self.absent_epoch = -1
        self.absent = 0
        # Completion cycle of each issued dynamic instruction.
        self.done = [0.0] * self.n_insts
        # Earliest cycle the next instruction may issue (inf once every
        # instruction has issued); read directly by the issue loop.
        self.ready_at = 0.0
        self._refresh_ready()

    @property
    def finished(self) -> bool:
        """Whether every traced instruction has issued."""
        return self.next_idx >= self.n_insts

    def _refresh_ready(self) -> None:
        """Recompute the earliest issue cycle of the next instruction."""
        if self.next_idx >= self.n_insts:
            self.ready_at = float("inf")
            return
        ready = 0.0
        done = self.done
        for dep in self.deps[self.next_idx]:
            if dep != NO_DEP:
                t = done[dep]
                if t > ready:
                    ready = t
        self.ready_at = ready

    def complete_at(self, completion: float) -> None:
        """Record the just-issued instruction's completion and advance."""
        self.done[self.next_idx] = completion
        self.next_idx += 1
        self.absent_epoch = -1
        self._refresh_ready()


class _SchedulerPartition:
    """One issue slot: a warp subset with its own scheduler state.

    ``resident`` stays age-ordered (activation appends increasing ages,
    retirement preserves relative order), so GTO's oldest-first fallback
    is plain list order here just as it was core-wide.
    """

    __slots__ = ("resident", "rr_next", "gto_current")

    def __init__(self) -> None:
        self.resident: List[_WarpRun] = []
        self.rr_next = 0
        self.gto_current: Optional[_WarpRun] = None

    def candidates_rr(self) -> List[_WarpRun]:
        resident = self.resident
        n = len(resident)
        start = self.rr_next % n if n else 0
        if not start:
            # Returning the live list is safe: the scan in step() stops
            # at the first issue, and _issue only mutates residency on
            # the path that immediately moves to the next partition.
            return resident
        rotated = resident[start:]
        rotated += resident[:start]
        return rotated

    def candidates_gto(self) -> List[_WarpRun]:
        current = self.gto_current
        resident = self.resident
        if current is None or current.finished or current is resident[0]:
            return resident
        order = [current]
        for run in resident:
            if run is not current:
                order.append(run)
        return order

    def note_issue(self, run: "_WarpRun", rr: bool) -> None:
        """Update scheduler priority after ``run`` issued."""
        if rr:
            if run in self.resident:
                self.rr_next = (self.resident.index(run) + 1) % max(
                    len(self.resident), 1
                )
        else:
            self.gto_current = run if not run.finished else None

    def on_retired(self) -> None:
        """Re-clamp priorities after warps left ``resident``."""
        if self.rr_next >= len(self.resident):
            self.rr_next = 0
        if self.gto_current is not None and self.gto_current.finished:
            self.gto_current = None


class CoreModel:
    """One in-order SIMT core with private L1 and MSHR file."""

    def __init__(
        self,
        core_id: int,
        config: GPUConfig,
        l2: Cache,
        dram: DRAMSystem,
        blocks: Sequence[Sequence[WarpTrace]],
        warps_per_core: Optional[int] = None,
    ):
        self.core_id = core_id
        self.config = config
        self.l1 = Cache(config.l1_size, config.l1_assoc, config.line_size)
        self.l2 = l2
        self.dram = dram
        self.mshr = MSHRFile(config.n_mshrs)
        self._mshr_inflight = self.mshr.inflight
        # Bumped whenever the L1's lines or the MSHR file's entries may
        # have changed (a load issued, an entry released).  A warp stalled
        # on the MSHR file is re-checked on every scan; while the epoch
        # holds, its count of absent lines cannot have changed.
        self._residency_epoch = 0
        self.warps_per_core = (
            warps_per_core if warps_per_core is not None
            else config.max_warps_per_core
        )
        self.stats = CoreStats(core_id)
        self._latency: Dict[int, float] = {
            int(op): float(config.op_latencies[op.latency_class])
            for op in (OpCode.IALU, OpCode.FALU, OpCode.SFU)
        }
        # Branches and exits occupy the issue slot for one cycle and have
        # no consumers.
        self._latency[int(OpCode.BRANCH)] = 1.0
        self._latency[int(OpCode.EXIT)] = 1.0

        self._block_queue: List[List[WarpTrace]] = [list(b) for b in blocks]
        self._resident_blocks: List[List[_WarpRun]] = []
        self._resident: List[_WarpRun] = []
        self._age_counter = 0
        # Scheduler partitions (sub-core dispatch): the architecture
        # backend decides how many issue slots the core has; warps are
        # statically assigned to partitions by activation age.
        from repro.arch import get_arch  # deferred: circular import

        n_partitions = get_arch(config.arch).schedulers_per_core(config)
        self._partitions = [
            _SchedulerPartition() for _ in range(max(n_partitions, 1))
        ]
        # A core's issue eligibility only changes with its own events
        # (dependency completions, MSHR releases), so after a failed scan
        # it can sleep until the earliest such event instead of rescanning
        # every cycle.  After a step that issued nothing this equals
        # next_event_after(now), which the simulator reads to skip cycles.
        self.sleep_until = 0.0
        self._sleep_kind = IssueStatus.DEP_STALL
        # Entries the cheapest MSHR-stalled load is waiting for; lets
        # next_event_after sleep until the k-th MSHR release rather than
        # waking on every single one.
        self._mshr_need = 1
        self._last_mshr_need = 1
        # SFU pipeline occupancy (extension beyond Table I: with fewer
        # SFU lanes than the SIMT width, an SFU warp-instruction blocks
        # the unit for warp_size / n_sfu_units cycles).
        self._sfu_limited = config.n_sfu_units < config.warp_size
        self._sfu_free_at = 0.0
        # Scratchpad LSU occupancy: a bank-conflicted access replays for
        # its conflict degree, blocking other scratchpad accesses.
        self._smem_free_at = 0.0
        self._smem_latency = float(config.smem_latency)
        # Hoisted per-cycle/per-request config reads (step and the issue
        # helpers run once per cycle / memory instruction).
        self._rr = config.scheduler == "rr"
        self._l1_latency = float(config.l1_latency)
        self._l2_latency = float(config.l2_latency)
        self._dram_latency = float(config.dram_latency)
        self._sfu_service_cycles = float(config.sfu_service_cycles)
        #: Whether all assigned blocks have completed (updated whenever
        #: residency changes).
        self.finished = False
        self._activate_blocks()

    # Residency -------------------------------------------------------------

    def _activate_blocks(self) -> None:
        """Bring queued blocks on-core while warp slots are available."""
        while self._block_queue:
            block = self._block_queue[0]
            if len(self._resident) + len(block) > self.warps_per_core:
                break
            self._block_queue.pop(0)
            runs = []
            for trace in block:
                run = _WarpRun(trace, self._age_counter)
                self._age_counter += 1
                runs.append(run)
            for run in runs:
                run.block_runs = runs
            self._resident_blocks.append(runs)
            self._resident.extend(runs)
            n_partitions = len(self._partitions)
            for run in runs:
                self._partitions[run.age % n_partitions].resident.append(run)
        self.finished = not self._resident and not self._block_queue

    def _retire_blocks(self) -> None:
        """Release blocks whose warps all finished; admit new ones."""
        finished = [b for b in self._resident_blocks if all(w.finished for w in b)]
        if not finished:
            return
        n_partitions = len(self._partitions)
        for block in finished:
            self._resident_blocks.remove(block)
            for run in block:
                self._resident.remove(run)
                self._partitions[run.age % n_partitions].resident.remove(run)
        for partition in self._partitions:
            partition.on_retired()
        self._activate_blocks()

    @property
    def n_resident(self) -> int:
        """Warps currently resident on the core."""
        return len(self._resident)

    # Issue -----------------------------------------------------------------

    def _issue_check(self, run: _WarpRun, now: float) -> IssueStatus:
        """Structural hazards of a warp whose dependencies are met.

        The caller (``step``) has already skipped warps with
        ``ready_at > now``: dependency-stalled and finished ones.
        """
        index = run.next_idx
        op = run.ops[index]
        if op == _LOAD:
            if run.absent_epoch == self._residency_epoch:
                needed = run.absent
            else:
                offsets = run.req_offsets
                needed = self.l1.count_absent(
                    run.req_lines[offsets[index]:offsets[index + 1]],
                    self._mshr_inflight,
                )
                run.absent = needed
                run.absent_epoch = self._residency_epoch
            if needed > self.mshr.n_entries:
                raise MSHRError(
                    "load at pc %d needs %d MSHR entries but the file only "
                    "has %d; configure n_mshrs >= warp_size"
                    % (run.pcs[index], needed, self.mshr.n_entries)
                )
            if needed > self.mshr.free_entries:
                self._last_mshr_need = needed
                return IssueStatus.MSHR_STALL
            return IssueStatus.OK
        if self._sfu_limited and op == _SFU and self._sfu_free_at > now:
            return IssueStatus.SFU_STALL
        if (op == _SMEM_LOAD or op == _SMEM_STORE) and self._smem_free_at > now:
            return IssueStatus.SMEM_STALL
        if op == _BARRIER and not self._barrier_open(run):
            return IssueStatus.BARRIER_STALL
        return IssueStatus.OK

    def _barrier_open(self, run: _WarpRun) -> bool:
        """Whether every block-mate has arrived at this warp's barrier.

        A mate has arrived when it already issued this barrier
        (``bar_count`` greater), is parked at it (next instruction is the
        same barrier), or has finished the kernel.
        """
        k = run.bar_count
        for mate in run.block_runs:
            if mate is run or mate.finished or mate.bar_count > k:
                continue
            if not (
                mate.bar_count == k
                and mate.ops[mate.next_idx] == _BARRIER
            ):
                return False
        return True

    def _issue(self, run: _WarpRun, now: float) -> None:
        index = run.next_idx
        op = run.ops[index]
        if op == _LOAD:
            completion = self._issue_load(run, index, now)
            self._residency_epoch += 1
        elif op == _STORE:
            self._issue_store(run, index, now)
            completion = now + 1.0
        elif op == _SMEM_LOAD:
            degree = max(run.conflict[index], 1)
            completion = now + self._smem_latency + (degree - 1)
            self._smem_free_at = now + degree
        elif op == _SMEM_STORE:
            degree = max(run.conflict[index], 1)
            completion = now + 1.0
            self._smem_free_at = now + degree
        elif op == _BARRIER:
            completion = now + 1.0
            run.bar_count += 1
        else:
            completion = now + self._latency[op]
            if op == _SFU and self._sfu_limited:
                self._sfu_free_at = now + self._sfu_service_cycles
        run.complete_at(completion)
        self.stats.insts_issued += 1
        if run.finished:
            self._retire_blocks()

    def _issue_load(self, run: _WarpRun, index: int, now: float) -> float:
        """Walk every coalesced request through L1/MSHR/L2/DRAM."""
        offsets = run.req_offsets
        lines = run.req_lines[offsets[index]:offsets[index + 1]]
        l1_access = self.l1.access
        l2_access = self.l2.access
        dram_enqueue = self.dram.enqueue
        allocate = self.mshr.allocate
        inflight = self._mshr_inflight
        l1_done = now + self._l1_latency
        l2_done = now + self._l2_latency
        completion = 0.0
        for line in lines:
            if l1_access(line):
                # Tag hit; if the line's fill is still in flight this is a
                # pending hit and completes when the original miss returns.
                t = l1_done
                pending = inflight.get(line)
                if pending is not None and pending > t:
                    t = pending
            else:
                merged = inflight.get(line)
                if merged is not None:
                    t = merged
                else:
                    # A fresh miss resets the running maximum to its own
                    # fill time, even below an earlier request's; the
                    # oracle golden digest pins this behaviour.
                    if l2_access(line):
                        completion = l2_done
                    else:
                        completion = (
                            dram_enqueue(l2_done, line)
                            + self._dram_latency
                        )
                    try:
                        t = allocate(line, completion)
                    except MSHRError:
                        # The issue check counted this line as an L1 hit,
                        # but an earlier request of this same instruction
                        # evicted it.  Model a replay: the miss starts
                        # once the earliest in-flight entry releases.
                        free_at = self.mshr.next_completion() or now
                        t = completion + max(free_at - now, 0.0)
            if t > completion:
                completion = t
        return completion

    def _issue_store(self, run: _WarpRun, index: int, now: float) -> None:
        """Write-through store: probes caches, always consumes DRAM bus.

        The L1, the L2 and the DRAM queue are independent, so each takes
        the instruction's whole line set in one call, in request order.
        """
        offsets = run.req_offsets
        lines = run.req_lines[offsets[index]:offsets[index + 1]]
        self.l1.write_many(lines)
        self.l2.write_many(lines)
        self.dram.enqueue_many(now + self._l2_latency, lines)

    # Scheduling --------------------------------------------------------------

    def step(self, now: float) -> bool:
        """Attempt to issue instructions at cycle ``now``.

        Every scheduler partition may issue at most one instruction
        (``gpumech2014`` has a single partition, so at most one per core
        — the paper's machine).  Returns True if anything issued;
        updates stall statistics otherwise.
        """
        if self.finished:
            return False
        stats = self.stats
        stats.active_cycles += 1
        if now < self.sleep_until:
            # Known-stalled: no event of this core can have fired yet.
            if self._sleep_kind is IssueStatus.MSHR_STALL:
                stats.mshr_stall_cycles += 1
            elif self._sleep_kind is IssueStatus.SFU_STALL:
                stats.sfu_stall_cycles += 1
            else:
                stats.dep_stall_cycles += 1
            return False
        if self.mshr.release_completed(now):
            self._residency_epoch += 1
        rr = self._rr
        issued_any = False
        saw_mshr_stall = False
        saw_sfu_stall = False
        min_mshr_need = None
        for partition in self._partitions:
            candidates = (
                partition.candidates_rr() if rr
                else partition.candidates_gto()
            )
            for run in candidates:
                if run.ready_at > now:
                    continue  # dependency stall, or finished (ready at inf)
                status = self._issue_check(run, now)
                if status is IssueStatus.OK:
                    self._issue(run, now)
                    stats.finish_cycle = now
                    partition.note_issue(run, rr)
                    issued_any = True
                    break
                if status is IssueStatus.MSHR_STALL:
                    saw_mshr_stall = True
                    if (
                        min_mshr_need is None
                        or self._last_mshr_need < min_mshr_need
                    ):
                        min_mshr_need = self._last_mshr_need
                elif status in (IssueStatus.SFU_STALL, IssueStatus.SMEM_STALL):
                    saw_sfu_stall = True
                elif status is IssueStatus.BARRIER_STALL:
                    stats.barrier_stall_cycles += 1
        if issued_any:
            stats.issue_cycles += 1
            return True
        if saw_mshr_stall:
            stats.mshr_stall_cycles += 1
            self._sleep_kind = IssueStatus.MSHR_STALL
        elif saw_sfu_stall:
            stats.sfu_stall_cycles += 1
            self._sleep_kind = IssueStatus.SFU_STALL
        else:
            stats.dep_stall_cycles += 1
            self._sleep_kind = IssueStatus.DEP_STALL
        self._mshr_need = min_mshr_need or 1
        self.sleep_until = self.next_event_after(now)
        return False

    def next_event_after(self, now: float) -> float:
        """Earliest future cycle at which this core could possibly issue.

        Used for cycle skipping when no core can issue: the core wakes at
        the earliest dependency-ready time or MSHR release, whichever
        comes first.
        """
        if self.finished:
            return float("inf")
        best = float("inf")
        for run in self._resident:
            ready = run.ready_at
            if now < ready < best:
                best = ready
        k = 1
        if self._sleep_kind is IssueStatus.MSHR_STALL:
            k = max(1, self._mshr_need - self.mshr.free_entries)
        mshr_next = self.mshr.kth_completion(k)
        if mshr_next is not None and now < mshr_next < best:
            best = mshr_next
        if self._sfu_limited and now < self._sfu_free_at < best:
            best = self._sfu_free_at
        if now < self._smem_free_at < best:
            best = self._smem_free_at
        return best if best != float("inf") else now + 1.0
