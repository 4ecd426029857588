"""A modern sub-core GPU backend: N schedulers + ITS reconvergence.

Volta-and-later cores are organised as *sub-cores*: each core has
``GPUConfig.n_schedulers`` schedulers, each owning a static partition of
the resident warps and one issue slot per cycle ("Analyzing Modern
NVIDIA GPU cores" documents the structure).  Divergence is handled with
independent-thread-scheduling-style interleaving rather than a strict
reconvergence stack.  This backend models both effects:

* **Trace**: warps execute under
  :class:`~repro.trace.reconvergence.InterleavedStack`, so divergent
  paths interleave (same per-warp instruction multiset as the stack,
  different order → different dependency distances and intervals).
* **Oracle**: the timing core builds ``n_schedulers`` partitions
  (warp → partition by age) and issues up to one instruction per
  partition per cycle; the memory system (L1, MSHRs, scratchpad, SFU)
  stays shared per core, as on real hardware.
* **Analytical model**: the multithreading model runs per scheduler.
  Each scheduler arbitrates only its own ``ceil(n_warps / S)`` warps, so
  the representative warp's stalls are hidden (and its issue slot
  contended) by that many peers, not all ``n_warps`` — while the core
  still retires ``n_warps`` warps' instructions over the same span.
  With ``S`` issue slots the per-core-instruction CPI floor drops to
  ``1 / (S * issue_rate)``.  Contention and the CPI stack compose
  exactly as in the paper: the memory system is per-core, so Eq. 17-23
  already describe it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.arch.base import ArchBackend
from repro.core.multithreading import (
    MultithreadingResult,
    model_multithreading,
)
from repro.trace.reconvergence import InterleavedStack

if TYPE_CHECKING:
    import numpy as np

    from repro.config import GPUConfig
    from repro.core.interval import IntervalProfile


class SubCore(ArchBackend):
    """Modern core: sub-core dispatch + interleaved reconvergence."""

    name = "subcore"
    reconvergence = "interleave"

    def schedulers_per_core(self, config: "GPUConfig") -> int:
        return config.n_schedulers

    def make_reconvergence_stack(self, initial_mask: "np.ndarray"):
        return InterleavedStack(initial_mask)

    def model_multithreading(
        self,
        profile: "IntervalProfile",
        n_warps: int,
        policy: str,
        config: "GPUConfig",
    ) -> MultithreadingResult:
        n_sched = max(1, min(config.n_schedulers, n_warps))
        per_sched = -(-n_warps // n_sched)  # busiest partition (ceil)
        per_sched_result = model_multithreading(profile, per_sched, policy)
        issue_rate = profile.issue_rate
        # The busiest scheduler's span bounds the core's execution time;
        # in that span the whole core retires n_warps × rep_insts
        # instructions (Eq. 7 with per-partition non-overlap counting).
        cycles = (
            per_sched_result.rep_total_cycles
            + per_sched_result.total_nonoverlapped / issue_rate
        )
        total_insts = n_warps * per_sched_result.rep_insts
        cpi = cycles / total_insts if total_insts else 0.0
        cpi = max(cpi, 1.0 / (n_sched * issue_rate))
        return MultithreadingResult(
            policy=policy,
            n_warps=n_warps,
            cpi=cpi,
            ipc_core=1.0 / cpi if cpi else 0.0,
            total_nonoverlapped=per_sched_result.total_nonoverlapped,
            per_interval_nonoverlapped=(
                per_sched_result.per_interval_nonoverlapped
            ),
            rep_total_cycles=per_sched_result.rep_total_cycles,
            rep_insts=per_sched_result.rep_insts,
        )

    def describe(self) -> str:
        return (
            "subcore: N schedulers/core (sub-core dispatch), "
            "independent-thread-scheduling reconvergence"
        )
