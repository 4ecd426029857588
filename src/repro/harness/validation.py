"""Aggregate validation metrics for model-vs-oracle comparisons.

Relative error alone (the paper's metric) hides whether a model ranks
configurations correctly — which is what an early-design-space user
actually needs.  This module computes, over a set of
:class:`~repro.pipeline.KernelResult`:

* mean / median / max absolute relative error (the paper's numbers),
* the fraction of kernels under an error threshold (the paper's
  "<20%" statistic),
* Pearson correlation of predicted vs. measured CPI, and
* Spearman rank correlation — does the model order kernels (or
  hardware configurations) the same way the oracle does?
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.harness.reporting import render_table
from repro.pipeline import MODEL_LABELS, MODELS, KernelResult


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length samples."""
    dx = np.asarray(x, dtype=float)
    dy = np.asarray(y, dtype=float)
    dx = dx - dx.mean()
    dy = dy - dy.mean()
    r = np.dot(dx / np.linalg.norm(dx), dy / np.linalg.norm(dy))
    return float(np.clip(r, -1.0, 1.0))


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks of ``values``; tied values share their average rank."""
    _, inverse, counts = np.unique(
        np.asarray(values, dtype=float), return_inverse=True,
        return_counts=True,
    )
    # Group k of the sorted unique values spans ranks
    # ends[k] - counts[k] + 1 .. ends[k]; its average is the midpoint.
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def _spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson over average ranks."""
    return _pearson(_average_ranks(x), _average_ranks(y))


@dataclass
class ModelValidation:
    """Accuracy summary of one model over a result set."""

    model: str
    n: int
    mean_error: float
    median_error: float
    max_error: float
    fraction_under_20pct: float
    pearson_r: float
    spearman_rho: float


def validate_model(
    results: Sequence[KernelResult], model: str
) -> ModelValidation:
    """Compute all metrics for one model.

    Results with a degenerate oracle (``nan`` error) are excluded from
    every statistic rather than silently counted as perfect.
    """
    if not results:
        raise ValueError("no results to validate")
    results = [r for r in results if not math.isnan(r.error(model))]
    if not results:
        nan = float("nan")
        return ModelValidation(
            model=model,
            n=0,
            mean_error=nan,
            median_error=nan,
            max_error=nan,
            fraction_under_20pct=nan,
            pearson_r=nan,
            spearman_rho=nan,
        )
    errors = [r.error(model) for r in results]
    predicted = [r.model_cpis[model] for r in results]
    measured = [r.oracle_cpi for r in results]
    if len(results) >= 2 and len(set(measured)) > 1 and len(set(predicted)) > 1:
        pearson = _pearson(predicted, measured)
        spearman = _spearman(predicted, measured)
    else:
        pearson = float("nan")
        spearman = float("nan")
    return ModelValidation(
        model=model,
        n=len(results),
        mean_error=statistics.fmean(errors),
        median_error=statistics.median(errors),
        max_error=max(errors),
        fraction_under_20pct=statistics.fmean(
            1.0 if e < 0.20 else 0.0 for e in errors
        ),
        pearson_r=pearson,
        spearman_rho=spearman,
    )


def validate_all(
    results: Sequence[KernelResult],
    models: Sequence[str] = MODELS,
) -> Dict[str, ModelValidation]:
    """Metrics for every Table II model."""
    return {model: validate_model(results, model) for model in models}


def render_validation(validations: Dict[str, ModelValidation]) -> str:
    """Fixed-width summary table."""
    rows: List[tuple] = []
    for model, v in validations.items():
        rows.append(
            (
                MODEL_LABELS.get(model, model),
                "%.1f%%" % (100 * v.mean_error),
                "%.1f%%" % (100 * v.median_error),
                "%.1f%%" % (100 * v.max_error),
                "%.0f%%" % (100 * v.fraction_under_20pct),
                "%.3f" % v.pearson_r,
                "%.3f" % v.spearman_rho,
            )
        )
    return render_table(
        ("model", "mean err", "median err", "max err", "<20%",
         "pearson r", "spearman rho"),
        rows,
        title="model validation over %d kernels"
        % (next(iter(validations.values())).n if validations else 0),
    )
