"""Batched cache replay: the round-robin interleaving as one sorted stream.

The reference :func:`~repro.memory.cache_simulator.simulate_caches_reference`
drives a nest of Python loops: rounds over cores over resident warps, one
memory instruction per warp per round.  The crucial observation is that this
replay *order* is outcome-independent — which warp issues which request
when is fixed entirely by the residency waves and per-warp memory
instruction counts, never by hit/miss results.  So the order can be
precomputed wholesale: warp ``w``'s ``j``-th memory instruction replays
at sort key ``(wave_base + j, core, position_in_wave)``, and one
``np.lexsort`` recovers the exact global interleaving.

With the stream flattened, everything except the LRU state machine is
vectorized: request expansion, set/tag extraction, per-instruction worst
events (``np.maximum.reduceat``), per-PC counters (``np.bincount``).
True-LRU set state is inherently sequential, so each core's L1 (and the
shared L2) keeps the scalar per-set ``OrderedDict`` discipline — but in
one tight loop over plain ints instead of a call stack per instruction.

Bitwise-compatibility notes (the contract is pickle-identical
:class:`CacheSimResult` vs the reference replay):

* ``per_pc`` dict insertion order must be the first-replay order of each
  PC (``avg_miss_latency`` sums floats in that order);
* each ``occurrence_events`` slot dict must insert event keys in
  first-occurrence order (``cross_warp_collision`` sums in dict order),
  so that small loop stays in Python, in replay order;
* every counter is cast back to a Python ``int`` — a stray ``np.int64``
  would change the pickle bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

import numpy as np

from repro.config import GPUConfig
from repro.memory.hierarchy import MissEvent
from repro.trace.trace_types import KernelTrace, OpCode

#: Integer event code -> enum, in latency order (codes 0/1/2).
_EVENTS = (MissEvent.L1_HIT, MissEvent.L2_HIT, MissEvent.L2_MISS)


def _gather_slices(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Concatenate ``values[starts[i] : starts[i] + counts[i]]`` for all i."""
    total = int(counts.sum())
    if not total:
        return values[:0]
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return values[np.repeat(starts, counts) + within]


def _lru_stream(
    blocks: List[int],
    set_ids: List[int],
    stores: List[int],
    n_sets: int,
    assoc: int,
) -> "tuple[bytearray, int]":
    """Replay one cache's request stream; returns (hit flags, n_misses).

    Same state machine as :meth:`repro.memory.cache.Cache.access`
    (true-LRU sets, write-through/no-write-allocate) over pre-extracted
    ints.
    """
    sets = [OrderedDict() for _ in range(n_sets)]
    hits = bytearray(len(blocks))
    misses = 0
    for i, (tag, set_id, store) in enumerate(zip(blocks, set_ids, stores)):
        lines = sets[set_id]
        if tag in lines:
            lines.move_to_end(tag)
            hits[i] = 1
        else:
            misses += 1
            if not store:
                if len(lines) >= assoc:
                    lines.popitem(last=False)
                lines[tag] = None
    return hits, misses


def simulate_caches_vectorized(
    trace: KernelTrace,
    config: GPUConfig,
    warps_per_core: Optional[int] = None,
):
    """Vectorized counterpart of ``simulate_caches_reference``."""
    # Deferred import: cache_simulator dispatches to this module.
    from repro.memory.cache_simulator import (
        CacheSimResult,
        PCStats,
        _resident_waves,
    )

    n_warps = len(trace.warps)
    mem_sel = [
        np.flatnonzero(
            (warp.ops == OpCode.LOAD) | (warp.ops == OpCode.STORE)
        )
        for warp in trace.warps
    ]
    mem_counts = np.array([len(sel) for sel in mem_sel], dtype=np.int64)
    total_insts = int(mem_counts.sum())
    if not total_insts:
        return CacheSimResult(per_pc={}, l1_miss_rate=0.0, l2_miss_rate=0.0)

    # ------------------------------------------------------------------
    # Replay order: warp w's j-th memory instruction runs at
    # (wave_base[w] + j, core[w], wave_position[w]).  Wave base is the
    # cumulative max instruction count of the earlier waves on the core
    # (a wave drains when its longest warp is done, then the next wave
    # is admitted within the same round).
    # ------------------------------------------------------------------
    warp_base = np.zeros(n_warps, dtype=np.int64)
    warp_core = np.zeros(n_warps, dtype=np.int64)
    warp_wavepos = np.zeros(n_warps, dtype=np.int64)
    for core, waves in enumerate(_resident_waves(trace, config, warps_per_core)):
        base = 0
        for wave in waves:
            for pos, w in enumerate(wave):
                warp_base[w] = base
                warp_core[w] = core
                warp_wavepos[w] = pos
            if wave:
                base += int(mem_counts[wave].max())

    # Warp-major flat arrays over memory instructions.
    inst_warp = np.repeat(np.arange(n_warps, dtype=np.int64), mem_counts)
    inst_ordinal = (
        np.arange(total_insts, dtype=np.int64)
        - np.repeat(np.cumsum(mem_counts) - mem_counts, mem_counts)
    )
    rounds = warp_base[inst_warp] + inst_ordinal
    perm = np.lexsort(
        (warp_wavepos[inst_warp], warp_core[inst_warp], rounds)
    )

    pcs_wm = np.concatenate(
        [w.pcs[sel] for w, sel in zip(trace.warps, mem_sel)]
    ).astype(np.int64)
    stores_wm = np.concatenate(
        [w.ops[sel] == OpCode.STORE for w, sel in zip(trace.warps, mem_sel)]
    )
    req_counts_wm = np.concatenate(
        [
            w.req_offsets[sel + 1] - w.req_offsets[sel]
            for w, sel in zip(trace.warps, mem_sel)
        ]
    )
    lines_wm = np.concatenate(
        [
            _gather_slices(
                w.req_lines,
                w.req_offsets[sel],
                w.req_offsets[sel + 1] - w.req_offsets[sel],
            )
            for w, sel in zip(trace.warps, mem_sel)
        ]
    )

    # Per-warp-per-PC occurrence ordinals (the "j-th execution of this
    # PC by this warp"), computed warp-major where within-warp order is
    # program order — exactly the scalar cursor semantics.
    pc_span = int(pcs_wm.max()) + 1 if pcs_wm.size else 1
    group_key = inst_warp * pc_span + pcs_wm
    order = np.argsort(group_key, kind="stable")
    sorted_key = group_key[order]
    group_start = np.flatnonzero(
        np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
    )
    rank_sorted = np.arange(total_insts, dtype=np.int64) - np.repeat(
        group_start, np.diff(np.append(group_start, total_insts))
    )
    occ_wm = np.empty(total_insts, dtype=np.int64)
    occ_wm[order] = rank_sorted

    # Reorder instructions (and their request groups) into replay order.
    pcs_r = pcs_wm[perm]
    stores_r = stores_wm[perm]
    counts_r = req_counts_wm[perm]
    occ_r = occ_wm[perm]
    cores_r = warp_core[inst_warp[perm]]
    off_wm = np.concatenate(
        ([0], np.cumsum(req_counts_wm))
    )
    lines_r = _gather_slices(lines_wm, off_wm[perm], counts_r)

    # ------------------------------------------------------------------
    # L1s: each core sees its own subsequence of the global stream;
    # per-core state is independent, order within a core is preserved.
    # ------------------------------------------------------------------
    blocks_r = lines_r >> (config.line_size.bit_length() - 1)
    req_cores = np.repeat(cores_r, counts_r)
    req_stores = np.repeat(stores_r, counts_r)
    l1_sets = config.l1_size // (config.l1_assoc * config.line_size)
    l2_sets = config.l2_size // (config.l2_assoc * config.line_size)

    events = np.zeros(len(blocks_r), dtype=np.int64)
    l1_misses = 0
    for core in range(config.n_cores):
        in_core = np.flatnonzero(req_cores == core)
        if not in_core.size:
            continue
        core_blocks = blocks_r[in_core]
        hits, misses = _lru_stream(
            core_blocks.tolist(),
            (core_blocks % l1_sets).tolist(),
            req_stores[in_core].tolist(),
            l1_sets,
            config.l1_assoc,
        )
        l1_misses += misses
        missed = np.frombuffer(hits, dtype=np.uint8) == 0
        events[in_core[missed]] = 1

    # L2: the L1-missing subsequence, still in global replay order.
    to_l2 = np.flatnonzero(events == 1)
    l2_blocks = blocks_r[to_l2]
    l2_hits, l2_misses = _lru_stream(
        l2_blocks.tolist(),
        (l2_blocks % l2_sets).tolist(),
        req_stores[to_l2].tolist(),
        l2_sets,
        config.l2_assoc,
    )
    events[to_l2[np.frombuffer(l2_hits, dtype=np.uint8) == 0]] = 2

    # ------------------------------------------------------------------
    # Bookkeeping: per-instruction worst events, then per-PC counters.
    # ------------------------------------------------------------------
    # Zero-request instructions (fully inactive lanes) still count as
    # L1_HIT instructions but own no segment: reduce only over the
    # non-empty segments, whose starts are strictly increasing.
    seg_starts = np.concatenate(([0], np.cumsum(counts_r)[:-1]))
    nonzero = counts_r > 0
    worst = np.zeros(total_insts, dtype=np.int64)
    if len(blocks_r):
        worst[nonzero] = np.maximum.reduceat(events, seg_starts[nonzero])

    # per_pc insertion order == first-replay order of each PC.
    unique_pcs, first_idx = np.unique(pcs_r, return_index=True)
    first_order = np.argsort(first_idx, kind="stable")
    pc_codes = np.searchsorted(unique_pcs, pcs_r)
    n_pcs = len(unique_pcs)

    inst_ev_counts = np.bincount(
        pc_codes * 3 + worst, minlength=n_pcs * 3
    ).reshape(n_pcs, 3)
    req_ev_counts = np.bincount(
        np.repeat(pc_codes, counts_r) * 3 + events, minlength=n_pcs * 3
    ).reshape(n_pcs, 3)
    pc_insts = np.bincount(pc_codes, minlength=n_pcs)
    pc_reqs = np.bincount(pc_codes, weights=counts_r, minlength=n_pcs).astype(
        np.int64
    )
    pc_is_store = np.zeros(n_pcs, dtype=bool)
    pc_is_store[pc_codes] = stores_r  # static property: uniform per PC

    per_pc = {}
    for code in first_order.tolist():
        ie = inst_ev_counts[code].tolist()
        re = req_ev_counts[code].tolist()
        per_pc[int(unique_pcs[code])] = PCStats(
            pc=int(unique_pcs[code]),
            is_store=bool(pc_is_store[code]),
            n_insts=int(pc_insts[code]),
            n_requests=int(pc_reqs[code]),
            inst_events=dict(zip(_EVENTS, ie)),
            req_events=dict(zip(_EVENTS, re)),
        )

    # Occurrence slots: scalar inserts event keys as warps reach each
    # (pc, occurrence) in replay order; replicate with one light loop.
    for pc, j, ev in zip(pcs_r.tolist(), occ_r.tolist(), worst.tolist()):
        slots = per_pc[pc].occurrence_events
        if j >= len(slots):
            slots.extend({} for _ in range(j + 1 - len(slots)))
        slot = slots[j]
        event = _EVENTS[ev]
        slot[event] = slot.get(event, 0) + 1

    n_requests = len(blocks_r)
    l2_accesses = len(l2_blocks)
    return CacheSimResult(
        per_pc=per_pc,
        l1_miss_rate=l1_misses / n_requests if n_requests else 0.0,
        l2_miss_rate=l2_misses / l2_accesses if l2_accesses else 0.0,
    )
