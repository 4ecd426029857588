"""Prediction ledger: every prediction as one appended JSONL record.

A single run's prediction is ephemeral — printed, maybe cached, gone.
The ledger makes accuracy a *time series*: every pipeline evaluation
appends one JSON record carrying the prediction's full provenance (the
config fingerprint, architecture and hot-path backend that produced it)
next to its outcome (predicted vs. oracle CPI per model, the
per-component CPI-stack attribution, cache miss rates and stage
timings).  Append-only JSONL keeps writes atomic enough for concurrent
pool workers (one ``O_APPEND`` line per record) and trivially
mergeable across machines — ``cat`` is the merge operator.

On top of the record stream sits :func:`compare_ledgers`, the
**accuracy-regression watchdog**: given a checked-in baseline ledger and
a fresh run, it diffs per-kernel prediction error
(:func:`per_kernel_errors`) and flags every kernel whose error regressed
beyond tolerance (the CI gate; CLI face ``repro watchdog``).

Records validate against ``schemas/ledger.schema.json``
(``python -m repro.obs.schema ledger ledger.jsonl``).
"""

from __future__ import annotations

import json
import math
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The model whose error the watchdog guards by default: full GPUMech.
DEFAULT_MODEL = "mt_mshr_band"


def _sanitize(value: Any) -> Any:
    """JSON-safe copy: non-finite floats become ``None`` (strict JSON
    has no NaN/Infinity, and a degenerate-oracle ``nan`` error must
    never be silently rewritten as a perfect 0.0)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


class PredictionLedger:
    """Appends prediction records to a JSONL file.

    One ledger instance = one *run*: every record it appends shares a
    ``run_id``, so the records of one sweep stay distinguishable after
    several runs were appended to (or ``cat``-merged into) one file.

    Instances hold only the path and run id — no open handle — so they
    pickle into pool workers, and every worker appends to the same
    file without coordination.
    """

    def __init__(self, path: str, run_id: Optional[str] = None):
        self.path = path
        self.run_id = run_id if run_id else uuid.uuid4().hex[:12]

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp ``ts``/``run_id`` onto a record and append it."""
        record = dict(record)
        record.setdefault("ts", time.time())
        record.setdefault("run_id", self.run_id)
        record = _sanitize(record)
        line = json.dumps(record, sort_keys=True, allow_nan=False)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return record


def build_record(
    result,
    config,
    scale,
    backend: str,
    cache_result=None,
    stage_seconds: Optional[Dict[str, float]] = None,
    duration_s: Optional[float] = None,
) -> Dict[str, Any]:
    """One ledger record from a finished evaluation.

    ``result`` is a :class:`~repro.harness.runner.KernelResult` (duck-
    typed to avoid the circular import); ``config`` the effective
    :class:`~repro.config.GPUConfig`; ``backend`` the hot-path backend
    (``vectorized``/``scalar``) that produced the artifacts.
    """
    record: Dict[str, Any] = {
        "kernel": result.kernel,
        "arch": config.arch,
        "backend": backend,
        "policy": result.policy,
        "n_warps": result.n_warps,
        "fingerprint": config.fingerprint(),
        "scale": {
            "n_blocks": scale.n_blocks,
            "block_size": scale.block_size,
            "iters": scale.iters,
        },
        "oracle_cpi": result.oracle_cpi,
        "model_cpis": dict(result.model_cpis),
        "errors": result.errors(),
        "cpi_stack": result.prediction.cpi_stack.as_dict(),
    }
    if cache_result is not None:
        record["cache"] = {
            "l1_miss_rate": cache_result.l1_miss_rate,
            "l2_miss_rate": cache_result.l2_miss_rate,
        }
    if stage_seconds:
        record["stage_seconds"] = {
            stage: seconds for stage, seconds in stage_seconds.items()
            if seconds
        }
    if duration_s is not None:
        record["duration_s"] = duration_s
    return record


# ---------------------------------------------------------------------------
# Reading and aggregating
# ---------------------------------------------------------------------------


def read_ledger(path: str) -> List[Dict[str, Any]]:
    """All records of one ledger file, in file (append) order."""
    records: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise ValueError(
                    "%s:%d: not a JSON record (%s)" % (path, lineno, exc)
                ) from exc
    return records


def read_ledgers(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Concatenate several ledger files (``cat`` as a function)."""
    records: List[Dict[str, Any]] = []
    for path in paths:
        records.extend(read_ledger(path))
    return records


def per_kernel_errors(
    records: Iterable[Dict[str, Any]], model: str = DEFAULT_MODEL
) -> Dict[str, Optional[float]]:
    """Last-recorded prediction error per kernel (None: degenerate)."""
    errors: Dict[str, Optional[float]] = {}
    for record in sorted(records, key=lambda r: r.get("ts", 0.0)):
        errors[record["kernel"]] = (record.get("errors") or {}).get(model)
    return errors


# ---------------------------------------------------------------------------
# The accuracy-regression watchdog
# ---------------------------------------------------------------------------


@dataclass
class WatchdogRow:
    """Per-kernel verdict of one baseline-vs-current comparison."""

    kernel: str
    baseline_error: Optional[float]
    current_error: Optional[float]
    regressed: bool
    note: str = ""

    @property
    def delta(self) -> Optional[float]:
        if self.baseline_error is None or self.current_error is None:
            return None
        return self.current_error - self.baseline_error


@dataclass
class WatchdogReport:
    """Everything ``repro watchdog`` prints and CI gates on."""

    model: str
    tolerance: float
    rel_tolerance: float
    rows: List[WatchdogRow] = field(default_factory=list)

    @property
    def regressions(self) -> List[WatchdogRow]:
        return [row for row in self.rows if row.regressed]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "tolerance": self.tolerance,
            "rel_tolerance": self.rel_tolerance,
            "n_kernels": len(self.rows),
            "n_regressions": len(self.regressions),
            "rows": [
                {
                    "kernel": row.kernel,
                    "baseline_error": _sanitize(row.baseline_error),
                    "current_error": _sanitize(row.current_error),
                    "delta": _sanitize(row.delta),
                    "regressed": row.regressed,
                    "note": row.note,
                }
                for row in self.rows
            ],
        }

    def render_text(self) -> str:
        from repro.harness.reporting import render_table

        def fmt(value: Optional[float]) -> str:
            return "-" if value is None else "%.2f%%" % (100.0 * value)

        table_rows = []
        for row in sorted(self.rows,
                          key=lambda r: (not r.regressed,
                                         -(r.delta or 0.0), r.kernel)):
            table_rows.append((
                row.kernel, fmt(row.baseline_error),
                fmt(row.current_error), fmt(row.delta),
                "REGRESSED" if row.regressed else (row.note or "ok"),
            ))
        verdict = (
            "%d kernel(s) compared, %d regression(s) beyond "
            "tolerance %.1f%% (+%.0f%% rel) on %s"
            % (len(self.rows), len(self.regressions),
               100.0 * self.tolerance, 100.0 * self.rel_tolerance,
               self.model)
        )
        return render_table(
            ("kernel", "baseline err", "current err", "delta", "verdict"),
            table_rows,
            title="accuracy watchdog: " + verdict,
        )


def compare_ledgers(
    baseline_records: Iterable[Dict[str, Any]],
    current_records: Iterable[Dict[str, Any]],
    model: str = DEFAULT_MODEL,
    tolerance: float = 0.02,
    rel_tolerance: float = 0.0,
    allow_missing: bool = False,
) -> WatchdogReport:
    """Diff per-kernel prediction error between two ledgers.

    A kernel regresses when ``current > baseline + tolerance +
    rel_tolerance * baseline``.  A kernel present in the baseline but
    absent from the current run counts as a regression (coverage loss)
    unless ``allow_missing``; a kernel whose error *became* degenerate
    (``None``) regresses unconditionally — losing the oracle is never
    an improvement.  New kernels (no baseline) are reported informational.
    """
    report = WatchdogReport(model=model, tolerance=tolerance,
                            rel_tolerance=rel_tolerance)
    baseline = per_kernel_errors(baseline_records, model)
    current = per_kernel_errors(current_records, model)
    for kernel in sorted(set(baseline) | set(current)):
        if kernel not in current:
            report.rows.append(WatchdogRow(
                kernel, baseline.get(kernel), None,
                regressed=not allow_missing, note="missing from current",
            ))
            continue
        if kernel not in baseline:
            report.rows.append(WatchdogRow(
                kernel, None, current[kernel],
                regressed=False, note="new kernel (no baseline)",
            ))
            continue
        base_err, cur_err = baseline[kernel], current[kernel]
        if cur_err is None:
            report.rows.append(WatchdogRow(
                kernel, base_err, None,
                regressed=base_err is not None,
                note="degenerate oracle",
            ))
            continue
        if base_err is None:
            report.rows.append(WatchdogRow(
                kernel, None, cur_err, regressed=False,
                note="baseline degenerate",
            ))
            continue
        budget = base_err + tolerance + rel_tolerance * base_err
        report.rows.append(WatchdogRow(
            kernel, base_err, cur_err, regressed=cur_err > budget,
        ))
    return report
