"""Per-point correctness invariants and the run digest.

A point's *record* holds every scalar the program returned for it: the
oracle's ``SimStats`` (whole-run and per-core counters) and the model
CPIs.  Records must repeat bit for bit across rounds, traced and
untraced passes, ``jobs=2`` and serial runs, and a warm store and the
pass that filled it.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Optional, Sequence, Tuple

_SIM_FIELDS = ("total_cycles", "total_insts", "n_cores_used",
               "dram_requests", "dram_mean_queue_delay", "dram_utilization",
               "mshr_merges", "mshr_allocations")
_CORE_FIELDS = ("insts_issued", "active_cycles", "issue_cycles",
                "mshr_stall_cycles", "sfu_stall_cycles",
                "barrier_stall_cycles", "dep_stall_cycles", "finish_cycle")
_PREDICTION_FIELDS = ("cpi", "cpi_multithreading", "cpi_mshr", "cpi_queue",
                      "cpi_sfu", "cpi_smem", "single_warp_cpi", "n_warps")


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


def check_prediction(prediction) -> List[str]:
    """Invariants of one GPUMech prediction."""
    problems = []
    if not _positive(prediction.cpi):
        problems.append("model CPI %r is not finite and > 0" % prediction.cpi)
    stack = prediction.cpi_stack.total
    if not math.isclose(stack, prediction.cpi, rel_tol=1e-9, abs_tol=1e-12):
        problems.append("CPI stack sums to %r, model CPI is %r"
                        % (stack, prediction.cpi))
    return problems


def prediction_record(point, prediction) -> Tuple:
    return (
        point.key,
        tuple(repr(getattr(prediction, f)) for f in _PREDICTION_FIELDS),
        tuple(sorted((k, repr(v))
                     for k, v in prediction.cpi_stack.as_dict().items())),
    )


def evaluation_record(point, result) -> Tuple:
    oracle = result.oracle
    return (
        point.key,
        tuple(repr(getattr(oracle, f)) for f in _SIM_FIELDS),
        tuple(tuple(repr(getattr(core, f)) for f in _CORE_FIELDS)
              for core in oracle.cores),
        tuple(sorted((k, repr(v)) for k, v in result.model_cpis.items())),
    ) + prediction_record(point, result.prediction)[1:]


def check_evaluation(result, trace_insts: int) -> List[str]:
    """Invariants of one ``Pipeline.evaluate`` result."""
    problems = check_prediction(result.prediction)
    if not _positive(result.oracle_cpi):
        problems.append("oracle CPI %r is not finite and > 0"
                        % result.oracle_cpi)
    for name, cpi in sorted(result.model_cpis.items()):
        if not _positive(cpi):
            problems.append("%s CPI %r is not finite and > 0" % (name, cpi))
    if result.oracle.total_insts != trace_insts:
        problems.append("oracle issued %d instructions, trace holds %d"
                        % (result.oracle.total_insts, trace_insts))
    return problems


def digest(records: Sequence[Optional[Tuple]]) -> str:
    """Order-sensitive hash of a round's records (``None``: failed)."""
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def mismatches(records: Sequence[Optional[Tuple]],
               reference: Sequence[Optional[Tuple]]) -> int:
    """Points whose record differs from the reference round's."""
    return sum(1 for a, b in zip(records, reference) if a is None or a != b)
