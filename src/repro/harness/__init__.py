"""Experiment harness: model-vs-oracle validation and figure drivers.

Every driver takes a :class:`~repro.pipeline.Pipeline`, which fixes the
machine configuration and workload scale and evaluates all Table II
models against the timing oracle.  ``experiments`` contains one driver
per evaluation figure/table of the paper; ``sweeps`` runs any parameter
sweep; ``reporting`` renders the same rows/series the paper plots;
``speedup`` measures the model's wall-clock advantage (Sec. VI-D).
"""

from repro.harness.reporting import render_series, render_table
from repro.harness.sweeps import Sweep, SweepResult
from repro.harness.validation import (
    ModelValidation,
    render_validation,
    validate_all,
    validate_model,
)

__all__ = [
    "ModelValidation",
    "Sweep",
    "SweepResult",
    "render_series",
    "render_table",
    "render_validation",
    "validate_all",
    "validate_model",
]
