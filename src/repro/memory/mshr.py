"""Miss Status Holding Register (MSHR) file with miss merging.

Used by the timing oracle: every load request that misses in the L1
occupies an MSHR entry from issue until its data returns.  Requests to a
line that is already in flight *merge* into the existing entry (a pending
hit) instead of allocating a new one.  When no entry is free, the issuing
warp stalls — the structural hazard whose queuing delay GPUMech's MSHR
model (Sec. IV-B1) predicts analytically.

Stores never allocate entries (write-through, no-allocate), which is why
the paper needs the separate DRAM-bandwidth model for write-heavy
divergent kernels like ``kmeans_invert_mapping``.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple


class MSHRError(RuntimeError):
    """Raised on structurally invalid MSHR operations."""


class MSHRFile:
    """A fixed-capacity set of in-flight line addresses (one per core).

    Beside the ``line -> completion`` map the file keeps a completion
    index: every entry as ``(completion, line)`` in ascending order.
    Releasing returned entries pops a prefix of it, and the next or k-th
    completion is a positional read, so none of these scans the file.
    """

    def __init__(self, n_entries: int):
        if n_entries < 1:
            raise ValueError("n_entries must be >= 1")
        self.n_entries = n_entries
        self._inflight: Dict[int, float] = {}  # line -> completion cycle
        self._by_completion: List[Tuple[float, int]] = []
        self._view = MappingProxyType(self._inflight)
        self.n_allocations = 0
        self.n_merges = 0
        self.stalled_allocation_attempts = 0

    def __len__(self) -> int:
        return len(self._inflight)

    @property
    def free_entries(self) -> int:
        """Unoccupied MSHR entries."""
        return self.n_entries - len(self._inflight)

    @property
    def inflight(self) -> Mapping[int, float]:
        """Read-only live view: in-flight line -> completion cycle."""
        return self._view

    def lookup(self, line: int) -> Optional[float]:
        """Completion cycle of an in-flight line, or None."""
        return self._inflight.get(line)

    def allocate(self, line: int, completion: float) -> float:
        """Allocate (or merge into) an entry; returns the completion cycle.

        Merged requests complete when the original miss returns, which may
        be earlier than a fresh miss issued now would.
        """
        existing = self._inflight.get(line)
        if existing is not None:
            self.n_merges += 1
            return existing
        if len(self._inflight) >= self.n_entries:
            self.stalled_allocation_attempts += 1
            raise MSHRError("MSHR file full")
        self._inflight[line] = completion
        insort(self._by_completion, (completion, line))
        self.n_allocations += 1
        return completion

    def release_completed(self, now: float) -> int:
        """Free every entry whose data has returned by ``now``."""
        order = self._by_completion
        if not order or order[0][0] > now:
            return 0
        n = bisect_right(order, (now, float("inf")))
        inflight = self._inflight
        for _, line in order[:n]:
            del inflight[line]
        del order[:n]
        return n

    def next_completion(self) -> Optional[float]:
        """Earliest in-flight completion (for event-driven cycle skipping)."""
        order = self._by_completion
        return order[0][0] if order else None

    def kth_completion(self, k: int) -> Optional[float]:
        """Time at which ``k`` in-flight entries will have completed.

        Event-driven accelerator: a warp stalled for ``k`` free entries
        cannot issue before this cycle, so the core can sleep until then
        instead of waking on every individual release.
        """
        if k <= 0:
            return self.next_completion()
        order = self._by_completion
        if len(order) < k:
            return None
        return order[k - 1][0]
