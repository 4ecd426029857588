"""Vectorized SIMT emulator: all warps in lockstep over the static program.

The scalar emulator (:mod:`repro.trace.emulator`) runs one warp to
completion at a time, one dynamic instruction per Python iteration.
This backend instead advances *every* live warp by one instruction per
step: warps whose reconvergence stacks sit at the same static PC are
grouped and executed as one batched numpy operation over a
``(n_warps_in_group, warp_size)`` lane block — registers, addresses,
coalescing, bank-conflict degrees and dependency compaction all
vectorize across the group.  Per-warp Python survives only where SIMT
state genuinely diverges: reconvergence-stack pushes/pops and scratchpad
dictionaries.

Trace rows are emitted into preallocated 2-D SoA columns (one row per
warp, geometric growth along the instruction axis) and sliced into
per-warp :class:`~repro.trace.trace_types.WarpTrace` arrays at the end —
no per-instruction Python lists.

Equivalence with the reference emulator
---------------------------------------
Every trace column is bitwise-identical to the output of the per-warp
:func:`~repro.trace.emulator.emulate_reference`
(asserted suite-wide by ``tests/test_vectorized_equivalence.py``): the
same ufuncs run on the same float64 values, and elementwise numpy ops
are shape-independent at the bit level.  The one semantic difference is
*invisible to traces*: stores from different warps land in the shared
:class:`~repro.trace.memory_image.MemoryImage` overlay in lockstep
order rather than warp-major order, so a kernel whose cross-warp
read-after-write *values* feed back into addresses or branch predicates
could diverge.  No suite kernel does (loaded RAW values only ever flow
into stored data), which the equivalence suite enforces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.isa.instructions import Imm, Instruction, Reg, Special
from repro.isa.kernel import Kernel
from repro.trace.memory_image import MemoryImage, _hash_unit
from repro.trace.simt_stack import SimtStackError
from repro.trace.trace_types import (
    MAX_DEPS,
    NO_DEP,
    KernelTrace,
    OpCode,
    WarpTrace,
)

#: Sorts after every real line/word in row-wise unique extraction.
_SENT = np.iinfo(np.int64).max

# Dispatch kinds (precomputed per static instruction).
_K_ALU = 0
_K_SETP = 1
_K_LD = 2
_K_ST = 3
_K_LDS = 4
_K_STS = 5
_K_BRA = 6
_K_BAR = 7
_K_EXIT = 8

_KINDS = {
    "ld": _K_LD,
    "st": _K_ST,
    "lds": _K_LDS,
    "sts": _K_STS,
    "bra": _K_BRA,
    "bar": _K_BAR,
    "exit": _K_EXIT,
    "setp": _K_SETP,
}


class _InstPlan:
    """Pre-resolved execution plan of one static instruction."""

    __slots__ = ("inst", "kind", "op_int", "dep_regs", "dst", "alu_fn")

    def __init__(self, inst: Instruction, alu_ops, cmp_ops, opcode_code):
        self.inst = inst
        self.kind = _KINDS.get(inst.opcode, _K_ALU)
        self.dep_regs = tuple(r.index for r in inst.source_registers)
        self.dst = inst.dst.index if inst.dst is not None else -1
        if self.kind == _K_SETP:
            self.alu_fn = cmp_ops[inst.cmp_op]
            self.op_int = int(OpCode.IALU)
        elif self.kind == _K_ALU:
            self.alu_fn = alu_ops[inst.opcode]
            self.op_int = opcode_code(inst)
        else:
            self.alu_fn = None
            self.op_int = {
                _K_LD: int(OpCode.LOAD),
                _K_ST: int(OpCode.STORE),
                _K_LDS: int(OpCode.SMEM_LOAD),
                _K_STS: int(OpCode.SMEM_STORE),
                _K_BRA: int(OpCode.BRANCH),
                _K_BAR: int(OpCode.BARRIER),
                _K_EXIT: int(OpCode.EXIT),
            }[self.kind]


def _rowwise_unique(
    values: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values per row over the masked lanes.

    Returns ``(sorted, keep)``: ``sorted[keep]`` flattens to each row's
    ascending distinct values back to back (exactly ``np.unique`` of the
    row's active lanes, batched).
    """
    filled = np.where(mask, values, _SENT)
    filled.sort(axis=1)
    keep = filled != _SENT
    if filled.shape[1] > 1:
        keep[:, 1:] &= filled[:, 1:] != filled[:, :-1]
    return filled, keep


def _conflict_degrees(
    addrs: np.ndarray, mask: np.ndarray, n_banks: int, word: int = 4
) -> np.ndarray:
    """Batched :func:`~repro.trace.emulator.bank_conflict_degree`."""
    g = addrs.shape[0]
    srt, keep = _rowwise_unique(addrs // word, mask)
    rows = np.nonzero(keep)[0]
    banks = srt[keep] % n_banks
    counts = np.bincount(rows * n_banks + banks, minlength=g * n_banks)
    return counts.reshape(g, n_banks).max(axis=1)


def _addresses_2d(base, offset: int, mask: np.ndarray) -> np.ndarray:
    """Batched :func:`~repro.trace.emulator._addresses` over a group."""
    addrs = np.asarray(
        np.broadcast_to(np.asarray(base, dtype=np.float64), mask.shape)
    ).astype(np.int64) + offset
    return np.where(mask, np.abs(addrs), 0)


class _LaunchState:
    """Mutable lockstep execution state of a whole kernel launch."""

    def __init__(self, kernel: Kernel, config: GPUConfig):
        from repro.trace.emulator import EmulatorError

        n_warps = kernel.n_warps
        warp_size = config.warp_size
        n_regs = max(kernel.max_register + 1, 1)
        self.n_warps = n_warps
        self.warp_size = warp_size

        lanes = np.arange(warp_size, dtype=np.int64)
        warp_ids = np.arange(n_warps, dtype=np.int64)
        tids = warp_ids[:, None] * warp_size + lanes[None, :]
        init_mask = tids < kernel.n_threads
        empty = ~init_mask.any(axis=1)
        if empty.any():
            raise EmulatorError(
                "warp %d has no threads" % int(np.flatnonzero(empty)[0])
            )
        self.block_ids = (warp_ids * warp_size) // kernel.block_size

        self.specials = {
            Special.TID: tids.astype(np.float64),
            Special.LANE: np.broadcast_to(
                lanes.astype(np.float64), (n_warps, warp_size)
            ),
            Special.WARP: np.broadcast_to(
                warp_ids.astype(np.float64)[:, None], (n_warps, warp_size)
            ),
            Special.CTAID: np.broadcast_to(
                self.block_ids.astype(np.float64)[:, None],
                (n_warps, warp_size),
            ),
            Special.NTID: np.full(
                (n_warps, warp_size), float(kernel.block_size)
            ),
        }

        self.regs = np.zeros((n_warps, n_regs, warp_size), dtype=np.float64)
        self.writers = np.full((n_warps, n_regs), -1, dtype=np.int64)
        self.smem: List[Dict[int, float]] = [{} for _ in range(n_warps)]

        # Top-of-stack state, struct-of-arrays; suspended entries (the
        # part of each warp's SIMT stack below the TOS) stay per-warp.
        self.cur_pc = np.zeros(n_warps, dtype=np.int64)
        self.cur_mask = init_mask.copy()
        self.cur_reconv = np.full(n_warps, -1, dtype=np.int64)  # -1: none
        self.depths = np.ones(n_warps, dtype=np.int64)
        self.suspended: List[List[Tuple[int, np.ndarray, int]]] = [
            [] for _ in range(n_warps)
        ]
        self.finished = np.zeros(n_warps, dtype=bool)

        # Preallocated SoA trace columns, one row per warp.
        cap = 64
        self.cap = cap
        self.lengths = np.zeros(n_warps, dtype=np.int64)
        self.pcs2d = np.zeros((n_warps, cap), dtype=np.int32)
        self.ops2d = np.zeros((n_warps, cap), dtype=np.int8)
        self.deps2d = np.full((n_warps, cap, MAX_DEPS), NO_DEP, dtype=np.int32)
        self.active2d = np.zeros((n_warps, cap), dtype=np.int16)
        self.conflict2d = np.zeros((n_warps, cap), dtype=np.int16)
        self.reqcount2d = np.zeros((n_warps, cap), dtype=np.int64)
        self.req_chunks: List[List[np.ndarray]] = [
            [] for _ in range(n_warps)
        ]

    def ensure_capacity(self) -> None:
        """Guarantee room for one more row in every warp's columns."""
        if int(self.lengths.max(initial=0)) < self.cap:
            return
        new_cap = self.cap * 2
        n_warps = self.n_warps

        def grow(arr, fill, extra_shape=()):
            out = np.full(
                (n_warps, new_cap) + extra_shape, fill, dtype=arr.dtype
            )
            out[:, : self.cap] = arr
            return out

        self.pcs2d = grow(self.pcs2d, 0)
        self.ops2d = grow(self.ops2d, 0)
        self.deps2d = grow(self.deps2d, NO_DEP, (MAX_DEPS,))
        self.active2d = grow(self.active2d, 0)
        self.conflict2d = grow(self.conflict2d, 0)
        self.reqcount2d = grow(self.reqcount2d, 0)
        self.cap = new_cap

    def append(
        self,
        warps: np.ndarray,
        pc: int,
        op_int: int,
        deps: np.ndarray,
        n_active: np.ndarray,
        req_counts: Optional[np.ndarray] = None,
        req_flat: Optional[np.ndarray] = None,
        conflict: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Record one dynamic instruction for every warp in the group;
        returns the per-warp trace indices (the producer indices
        downstream dependencies point at)."""
        pos = self.lengths[warps]
        self.pcs2d[warps, pos] = pc
        self.ops2d[warps, pos] = op_int
        self.deps2d[warps, pos] = deps
        self.active2d[warps, pos] = n_active
        if conflict is not None:
            self.conflict2d[warps, pos] = conflict
        if req_counts is not None:
            self.reqcount2d[warps, pos] = req_counts
            pieces = np.split(req_flat, np.cumsum(req_counts)[:-1])
            chunks = self.req_chunks
            for i, w in enumerate(warps.tolist()):
                chunks[w].append(pieces[i])
        self.lengths[warps] = pos + 1
        return pos

    def build_traces(self, kernel: Kernel, config: GPUConfig) -> KernelTrace:
        """Slice the SoA columns into per-warp WarpTrace arrays."""
        trace = KernelTrace(
            kernel_name=kernel.name,
            warp_size=config.warp_size,
            line_size=config.line_size,
            n_blocks=kernel.n_blocks,
        )
        empty_lines = np.empty(0, dtype=np.int64)
        for w in range(self.n_warps):
            n = int(self.lengths[w])
            offsets = np.zeros(n + 1, dtype=np.int64)
            if n:
                np.cumsum(self.reqcount2d[w, :n], out=offsets[1:])
            chunks = self.req_chunks[w]
            req_lines = (
                np.concatenate(chunks) if chunks else empty_lines
            ).astype(np.int64, copy=False)
            trace.warps.append(
                WarpTrace(
                    warp_id=w,
                    block_id=int(self.block_ids[w]),
                    pcs=self.pcs2d[w, :n].copy(),
                    ops=self.ops2d[w, :n].copy(),
                    deps=self.deps2d[w, :n].copy(),
                    active=self.active2d[w, :n].copy(),
                    req_offsets=offsets,
                    req_lines=req_lines,
                    conflict=self.conflict2d[w, :n].copy(),
                )
            )
        return trace


def emulate_vectorized(
    kernel: Kernel,
    config: GPUConfig,
    memory: MemoryImage,
    max_warp_insts: int,
) -> KernelTrace:
    """Lockstep-vectorized counterpart of scalar ``emulate``."""
    from repro.trace.emulator import (
        _ALU_OPS,
        _CMP_OPS,
        EmulatorError,
        _opcode_code,
    )

    program = kernel.program
    n_prog = len(program)
    state = _LaunchState(kernel, config)
    plans: List[Optional[_InstPlan]] = [None] * n_prog
    line_shift = config.line_size.bit_length() - 1
    smem_banks = config.smem_banks

    cur_pc = state.cur_pc
    cur_reconv = state.cur_reconv
    cur_mask = state.cur_mask
    depths = state.depths
    finished = state.finished
    suspended = state.suspended
    regs = state.regs
    writers = state.writers
    lengths = state.lengths
    specials = state.specials

    def fetch(operand, warps: np.ndarray):
        if isinstance(operand, Reg):
            return regs[warps, operand.index]
        if isinstance(operand, Imm):
            return np.float64(operand.value)
        return specials[operand][warps]

    def deps_group(warps: np.ndarray, reg_idxs: Tuple[int, ...]) -> np.ndarray:
        g = warps.shape[0]
        out = np.full((g, MAX_DEPS), NO_DEP, dtype=np.int32)
        if not reg_idxs:
            return out
        rows = np.arange(g)
        pos = np.zeros(g, dtype=np.int64)
        seen: List[np.ndarray] = []
        for r in reg_idxs:
            producer = writers[warps, r]
            valid = producer >= 0
            for prev in seen:
                valid &= producer != prev
            seen.append(producer)
            out[rows[valid], pos[valid]] = producer[valid]
            pos += valid
        return out

    def coalesce_rows(
        addrs: np.ndarray, mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row sorted distinct line bases (flattened) and counts."""
        srt, keep = _rowwise_unique(addrs >> line_shift, mask)
        return srt[keep] << line_shift, keep.sum(axis=1)

    while True:
        alive = ~finished
        if not alive.any():
            break

        over = alive & (lengths > max_warp_insts)
        if over.any():
            raise EmulatorError(
                "warp %d exceeded %d dynamic instructions (runaway loop?)"
                % (int(np.flatnonzero(over)[0]), max_warp_insts)
            )

        # Pop reconverged TOS entries (cascading, like the scalar loop).
        while True:
            pend = np.flatnonzero(
                alive & (cur_reconv >= 0) & (cur_pc == cur_reconv)
            )
            if not pend.size:
                break
            for w in pend.tolist():
                pc, mask_w, reconv = suspended[w].pop()
                cur_pc[w] = pc
                cur_mask[w] = mask_w
                cur_reconv[w] = reconv
                depths[w] -= 1

        off = alive & (cur_pc >= n_prog)
        if off.any():
            raise EmulatorError(
                "warp %d fell off the end of the program"
                % int(np.flatnonzero(off)[0])
            )

        state.ensure_capacity()

        # Group live warps by top-of-stack PC; execute groups in
        # ascending PC order (deterministic shared-memory-image order).
        alive_idx = np.flatnonzero(alive)
        pcs_alive = cur_pc[alive_idx]
        first_pc = pcs_alive[0]
        if (pcs_alive == first_pc).all():  # common case: full lockstep
            groups = [(int(first_pc), alive_idx)]
        else:
            order = np.argsort(pcs_alive, kind="stable")
            sorted_w = alive_idx[order]
            sorted_pc = pcs_alive[order]
            bounds = np.flatnonzero(np.diff(sorted_pc)) + 1
            starts = [0] + bounds.tolist() + [len(sorted_w)]
            groups = [
                (int(sorted_pc[starts[i]]), sorted_w[starts[i]: starts[i + 1]])
                for i in range(len(starts) - 1)
            ]

        for pc, warps in groups:
            plan = plans[pc]
            if plan is None:
                plan = plans[pc] = _InstPlan(
                    program[pc], _ALU_OPS, _CMP_OPS, _opcode_code
                )
            inst = plan.inst
            kind = plan.kind
            mask = cur_mask[warps]
            n_active = mask.sum(axis=1)

            if kind == _K_EXIT:
                deep = depths[warps] != 1
                if deep.any():
                    raise EmulatorError(
                        "exit reached under divergence (stack depth %d); "
                        "kernels must reconverge before exiting"
                        % int(depths[warps][deep][0])
                    )
                state.append(warps, pc, plan.op_int,
                             deps_group(warps, ()), n_active)
                finished[warps] = True
                continue

            if kind == _K_BAR:
                deep = depths[warps] != 1
                if deep.any():
                    raise EmulatorError(
                        "barrier reached under divergence (stack depth %d)"
                        % int(depths[warps][deep][0])
                    )
                state.append(warps, pc, plan.op_int,
                             deps_group(warps, ()), n_active)
                cur_pc[warps] += 1
                continue

            if kind == _K_BRA:
                state.append(warps, pc, plan.op_int,
                             deps_group(warps, plan.dep_regs), n_active)
                if inst.pred is None:
                    cur_pc[warps] = inst.target
                    continue
                taken = (regs[warps, inst.pred.index] != 0) & mask
                not_taken = mask & ~taken
                any_taken = taken.any(axis=1)
                any_nt = not_taken.any(axis=1)
                uniform_nt = ~any_taken
                uniform_t = any_taken & ~any_nt
                divergent = any_taken & any_nt
                if uniform_nt.any():
                    cur_pc[warps[uniform_nt]] += 1
                if uniform_t.any():
                    cur_pc[warps[uniform_t]] = inst.target
                if divergent.any():
                    reconv = inst.reconv
                    if reconv is None:
                        raise SimtStackError(
                            "divergent branch without a reconvergence pc"
                        )
                    for i in np.flatnonzero(divergent).tolist():
                        w = int(warps[i])
                        # TOS becomes the join entry; taken side is
                        # suspended; fall-through executes first.
                        suspended[w].append(
                            (reconv, cur_mask[w].copy(), int(cur_reconv[w]))
                        )
                        suspended[w].append(
                            (inst.target, taken[i].copy(), reconv)
                        )
                        cur_pc[w] = pc + 1
                        cur_mask[w] = not_taken[i]
                        cur_reconv[w] = reconv
                        depths[w] += 2
                continue

            if kind in (_K_LD, _K_ST):
                addrs = _addresses_2d(
                    fetch(inst.srcs[0], warps), inst.offset, mask
                )
                req_flat, req_counts = coalesce_rows(addrs, mask)
                deps = deps_group(warps, plan.dep_regs)
                if kind == _K_LD:
                    values = memory.read(addrs)
                    index = state.append(
                        warps, pc, plan.op_int, deps, n_active,
                        req_counts=req_counts, req_flat=req_flat,
                    )
                    dst = plan.dst
                    regs[warps, dst] = np.where(
                        mask, values, regs[warps, dst]
                    )
                    writers[warps, dst] = index
                else:
                    values = np.broadcast_to(
                        np.asarray(
                            fetch(inst.srcs[1], warps), dtype=np.float64
                        ),
                        mask.shape,
                    )
                    memory.write(addrs, values, mask)
                    state.append(
                        warps, pc, plan.op_int, deps, n_active,
                        req_counts=req_counts, req_flat=req_flat,
                    )
                cur_pc[warps] += 1
                continue

            if kind in (_K_LDS, _K_STS):
                addrs = _addresses_2d(
                    fetch(inst.srcs[0], warps), inst.offset, mask
                )
                degrees = _conflict_degrees(addrs, mask, smem_banks)
                deps = deps_group(warps, plan.dep_regs)
                if kind == _K_LDS:
                    values = _hash_unit(addrs)
                    warp_list = warps.tolist()
                    for i, w in enumerate(warp_list):
                        overlay = state.smem[w]
                        if overlay:
                            row = values[i]
                            for j, addr in enumerate(addrs[i].tolist()):
                                hit = overlay.get(addr)
                                if hit is not None:
                                    row[j] = hit
                    index = state.append(
                        warps, pc, plan.op_int, deps, n_active,
                        conflict=degrees,
                    )
                    dst = plan.dst
                    regs[warps, dst] = np.where(
                        mask, values, regs[warps, dst]
                    )
                    writers[warps, dst] = index
                else:
                    values = np.broadcast_to(
                        np.asarray(
                            fetch(inst.srcs[1], warps), dtype=np.float64
                        ),
                        mask.shape,
                    )
                    for i, w in enumerate(warps.tolist()):
                        overlay = state.smem[w]
                        for addr, value, on in zip(
                            addrs[i].tolist(),
                            values[i].tolist(),
                            mask[i].tolist(),
                        ):
                            if on:
                                overlay[addr] = value
                    state.append(
                        warps, pc, plan.op_int, deps, n_active,
                        conflict=degrees,
                    )
                cur_pc[warps] += 1
                continue

            # ALU / SETP
            if kind == _K_SETP:
                a = fetch(inst.srcs[0], warps)
                b = fetch(inst.srcs[1], warps)
                result = plan.alu_fn(a, b).astype(np.float64)
            else:
                result = plan.alu_fn(
                    *(fetch(s, warps) for s in inst.srcs)
                )
            result = np.broadcast_to(
                np.asarray(result, dtype=np.float64), mask.shape
            )
            index = state.append(
                warps, pc, plan.op_int,
                deps_group(warps, plan.dep_regs), n_active,
            )
            dst = plan.dst
            regs[warps, dst] = np.where(mask, result, regs[warps, dst])
            writers[warps, dst] = index
            cur_pc[warps] += 1

    return state.build_traces(kernel, config)
