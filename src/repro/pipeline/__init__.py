"""Staged artifact pipeline (Fig. 5 as a cached, parallel DAG).

``stages`` declares the typed stage DAG and which ``GPUConfig`` fields
each stage reads; ``store`` provides content-addressed artifact stores
(memory, disk, tiered); ``pipeline`` executes the DAG with memoisation,
execution counters/timings and ``ProcessPoolExecutor`` sweep fan-out,
and is the one evaluation entry point: :meth:`Pipeline.evaluate` returns
a :class:`KernelResult` holding the oracle and all Table II models.
"""

from repro.pipeline.pipeline import (
    MODEL_LABELS,
    MODELS,
    EvalRequest,
    KernelResult,
    Pipeline,
    nanmean,
)
from repro.pipeline.stages import STAGES, StageSpec, stage_key, trace_digest
from repro.pipeline.store import (
    ArtifactStore,
    DiskStore,
    MemoryStore,
    TieredStore,
    open_store,
)

__all__ = [
    "ArtifactStore",
    "DiskStore",
    "EvalRequest",
    "KernelResult",
    "MODELS",
    "MODEL_LABELS",
    "MemoryStore",
    "Pipeline",
    "STAGES",
    "StageSpec",
    "TieredStore",
    "nanmean",
    "open_store",
    "stage_key",
    "trace_digest",
]
