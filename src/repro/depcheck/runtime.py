"""Runtime access sanitizer: the dynamic prong of ``repro.depcheck``.

With ``REPRO_DEPCHECK=1`` the pipeline swaps every effective
:class:`~repro.config.GPUConfig` for an :class:`AccessRecordingConfig`
— a transparent subclass whose ``__getattribute__`` notes which config
fields each *stage* actually touches while its compute function runs.
Key and fingerprint computation happen outside the recording window, so
only genuine model/simulator reads are attributed.

The observations flow two ways:

* into ``depcheck.field_reads{stage=,field=}`` counters in the
  pipeline's :class:`~repro.obs.metrics.MetricsRegistry` (mergeable
  across pool workers like every other metric), and
* into a per-process accumulator readable via :func:`recorded_reads`.

:func:`check_runtime` then plays the ``xcheck`` role: a recorded read
outside the statically *inferred* set means the analyzer has a blind
spot (``depcheck-runtime-escape``); one outside the stage's *effective
key coverage* is a live stale-cache hazard
(``depcheck-runtime-unsound``).  Both are CI-fatal.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from repro.config import ALL_FIELDS, GPUConfig

#: Environment toggle; any value other than ``""``/``"0"`` enables the
#: sanitizer (checked per call, so tests can flip it with monkeypatch).
DEPCHECK_ENV = "REPRO_DEPCHECK"


def depcheck_enabled() -> bool:
    """Is the runtime sanitizer requested for this process?"""
    return os.environ.get(DEPCHECK_ENV, "0") not in ("", "0")


#: Stack of active recording windows (innermost last).  Module-level so
#: the proxy carries no instance state and pickles exactly like a plain
#: config when shipped to pool workers.
_FRAMES: List[Set[str]] = []

#: Per-process accumulation of observed reads by stage name.
_RECORDED: Dict[str, Set[str]] = {}

#: Names whose reads count.  Everything else (methods, properties,
#: dunder machinery) passes through untouched; property bodies read the
#: underlying fields through ``__getattribute__`` anyway, so derived
#: quantities attribute to exactly the fields that define them.
_FIELD_NAMES: FrozenSet[str] = ALL_FIELDS


class AccessRecordingConfig(GPUConfig):
    """A :class:`GPUConfig` that reports field reads to the active
    recording window.

    Structurally identical to its base (same dataclass fields, same
    validation, equal and inter-fingerprintable with a plain config of
    the same values), so it can flow through every stage untouched.
    ``with_()``/``dataclasses.replace`` preserve the class, keeping
    derived configs under observation.
    """

    __slots__ = ()

    def __getattribute__(self, name: str):
        if name in _FIELD_NAMES and _FRAMES:
            _FRAMES[-1].add(name)
        return object.__getattribute__(self, name)

    def __eq__(self, other) -> bool:
        # Value equality with any GPUConfig (the generated dataclass
        # __eq__ is class-strict); field access bypasses the recorder
        # so comparisons inside a window don't pollute the read-set.
        if not isinstance(other, GPUConfig):
            return NotImplemented
        return all(
            object.__getattribute__(self, f.name)
            == object.__getattribute__(other, f.name)
            for f in dataclasses.fields(GPUConfig)
        )

    __hash__ = GPUConfig.__hash__


def recording_config(config: GPUConfig) -> AccessRecordingConfig:
    """Wrap ``config`` in the recording proxy (idempotent)."""
    if isinstance(config, AccessRecordingConfig):
        return config
    values = {
        f.name: object.__getattribute__(config, f.name)
        for f in dataclasses.fields(GPUConfig)
    }
    return AccessRecordingConfig(**values)


@contextmanager
def record_stage(stage: str) -> Iterator[Set[str]]:
    """Open a recording window attributing proxy reads to ``stage``.

    Yields the live read-set (the pipeline turns it into metrics when
    the window closes); the observations also accumulate into the
    process-wide tally behind :func:`recorded_reads`.
    """
    reads: Set[str] = set()
    _FRAMES.append(reads)
    try:
        yield reads
    finally:
        _FRAMES.pop()
        _RECORDED.setdefault(stage, set()).update(reads)


def recorded_reads() -> Dict[str, FrozenSet[str]]:
    """Observed config reads per stage, accumulated in this process."""
    return {stage: frozenset(reads) for stage, reads in _RECORDED.items()}


def clear_recorded() -> None:
    """Reset the per-process tally (test isolation)."""
    _RECORDED.clear()


def reads_from_metrics(metrics) -> Dict[str, FrozenSet[str]]:
    """Recover per-stage observed reads from ``depcheck.field_reads``
    counters — the merge-safe channel that survives pool workers."""
    observed: Dict[str, Set[str]] = {}
    for entry in metrics.snapshot()["counters"]:
        if entry["name"] != "depcheck.field_reads" or entry["value"] <= 0:
            continue
        labels = entry["labels"]
        observed.setdefault(labels["stage"], set()).add(labels["field"])
    return {stage: frozenset(reads) for stage, reads in observed.items()}


def check_runtime(
    observed: Dict[str, FrozenSet[str]],
    report,
    kernels: Optional[List[str]] = None,
):
    """Cross-validate runtime observations against the static report.

    Appends ``depcheck-runtime-escape`` / ``depcheck-runtime-unsound``
    diagnostics (both errors) to a copy of ``report``'s diagnostic list
    and returns just the new diagnostics.  ``kernels`` only decorates
    the messages with the sweep provenance.
    """
    from repro.depcheck.stagedeps import DepDiagnostic
    from repro.staticcheck.report import Severity

    provenance = (
        " (sweep over %d kernels)" % len(kernels) if kernels else ""
    )
    diagnostics = []
    for stage in sorted(observed):
        result = report.stage_result(stage)
        if result is None:
            continue
        reads = observed[stage]
        for fname in sorted(reads - result.inferred):
            diagnostics.append(
                DepDiagnostic(
                    stage=stage,
                    check_id="depcheck-runtime-escape",
                    severity=Severity.ERROR,
                    message=(
                        "runtime read of config.%s is outside the "
                        "statically inferred set — the analyzer has a "
                        "blind spot here%s" % (fname, provenance)
                    ),
                )
            )
        for fname in sorted(reads - result.effective_coverage):
            diagnostics.append(
                DepDiagnostic(
                    stage=stage,
                    check_id="depcheck-runtime-unsound",
                    severity=Severity.ERROR,
                    message=(
                        "runtime read of config.%s is not covered by the "
                        "stage's key — cached artifacts can go stale "
                        "under a %s override%s" % (fname, fname, provenance)
                    ),
                )
            )
    return diagnostics


def runtime_sweep(kernels=None, scale=None, config=None):
    """Run a sanitized pipeline sweep and return the observed reads.

    Evaluates every requested kernel (defaults: the full suite at tiny
    scale on a small machine) with recording forced on, exercising the
    lint/xcheck side stages too, and returns
    ``(observed_reads, kernel_names)`` with observations taken from the
    merge-safe metrics channel.
    """
    from repro.pipeline import Pipeline
    from repro.workloads.generators import Scale
    from repro.workloads.suite import SUITE

    kernels = list(kernels) if kernels is not None else sorted(SUITE)
    scale = scale if scale is not None else Scale.tiny()
    config = config if config is not None else GPUConfig.small()
    previous = os.environ.get(DEPCHECK_ENV)
    os.environ[DEPCHECK_ENV] = "1"
    try:
        pipeline = Pipeline(config, scale=scale, lint=True)
        for kernel in kernels:
            pipeline.evaluate(kernel)
            pipeline.crosscheck(kernel)
        observed = reads_from_metrics(pipeline.metrics)
    finally:
        if previous is None:
            del os.environ[DEPCHECK_ENV]
        else:
            os.environ[DEPCHECK_ENV] = previous
    return observed, kernels
