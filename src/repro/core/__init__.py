"""GPUMech: interval-analysis performance model for GPU cores.

The paper's primary contribution.  The pipeline (Fig. 5):

1. :mod:`repro.core.latency` — per-PC latencies: fixed for compute PCs,
   AMAT from the cache simulator for memory PCs (Sec. V-B).
2. :mod:`repro.core.interval` — the interval algorithm builds each warp's
   interval profile assuming in-order single-warp execution (Sec. III-B).
3. :mod:`repro.core.representative` — k-means (k=2) over (warp
   performance, instruction count) feature vectors picks the
   representative warp (Sec. III-C).
4. :mod:`repro.core.multithreading` — non-overlapped-instruction models
   of the round-robin and greedy-then-oldest schedulers (Sec. IV-A).
5. :mod:`repro.core.contention` — MSHR and DRAM-bandwidth queuing-delay
   models (Sec. IV-B).
6. :mod:`repro.core.cpi_stack` — CPI-stack construction (Sec. VII).

:class:`repro.core.model.GPUMech` ties the stages together.
"""

from repro.core.interval import (
    Interval,
    IntervalProfile,
    IntervalProfiles,
    build_interval_profile,
)
from repro.core.latency import LatencyTable
from repro.core.kmeans import KMeansResult, kmeans
from repro.core.representative import (
    RepresentativeSelection,
    select_representative,
)
from repro.core.multithreading import MultithreadingResult, model_multithreading
from repro.core.contention import ContentionResult, model_contention
from repro.core.cpi_stack import (
    CPIStack,
    StallType,
    build_cpi_stack,
    render_stacks,
)
from repro.core.model import GPUMech, Prediction

__all__ = [
    "CPIStack",
    "ContentionResult",
    "GPUMech",
    "Interval",
    "IntervalProfile",
    "IntervalProfiles",
    "KMeansResult",
    "LatencyTable",
    "MultithreadingResult",
    "Prediction",
    "RepresentativeSelection",
    "StallType",
    "build_cpi_stack",
    "render_stacks",
    "build_interval_profile",
    "kmeans",
    "model_contention",
    "model_multithreading",
    "select_representative",
]
