"""Seeded request lists for the benchmark workloads.

The seed picks schedulers and hardware-config points for kernels of
``repro.workloads.suite`` tag classes; the program only ever sees the
resulting requests.  Every list is *stratified*: each kernel of the
class (on ``dse-sweep``, each sweep kernel under each warp and MSHR
count) appears in every round and the seed draws the rest.  Two seeds
differ in their draws, while the per-round mix of cheap and expensive
kernels, whose cost differs ~100x, stays fixed.  That keeps a run's
throughput comparable across seeds; drawing a few kernels instead moved
it 4x between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import GPUConfig
from repro.harness.experiments import (BANDWIDTH_SWEEP, MSHR_SWEEP,
                                       SWEEP_KERNELS, WARP_SWEEP)
from repro.workloads.generators import Scale
from repro.workloads.suite import SUITE

SCHEDULERS = ("rr", "gto")

#: The 2-core experiment machine every workload starts from.
BASE_CONFIG = GPUConfig.small(n_cores=2, warps_per_core=16)

_DEFAULTS = GPUConfig()

#: The design-space sweep crosses the program's warp and MSHR sweeps
#: (Fig. 13 and 14) for every hardware-sweep kernel; the seed draws the
#: other hardware-only axes (HARDWARE_FIELDS, so every point reuses its
#: kernel's trace).  Bandwidth is the program's Fig. 15 sweep; the
#: program has no cache-size sweep, so L1/L2 take half, the default and
#: twice the default size.  A warp count changes what the cache
#: simulation sees, so each one is a *cache point* with its own L1/L2
#: draw; the MSHR counts under it re-run only the model.
DSE_CACHE_GRID: Dict[str, Tuple] = {
    "l1_size": (_DEFAULTS.l1_size // 2, _DEFAULTS.l1_size,
                _DEFAULTS.l1_size * 2),
    "l2_size": (_DEFAULTS.l2_size // 2, _DEFAULTS.l2_size,
                _DEFAULTS.l2_size * 2),
}
DSE_CORE_GRID: Dict[str, Tuple] = {
    "dram_bandwidth_gbps": BANDWIDTH_SWEEP,
    "scheduler": SCHEDULERS,
}


@dataclass(frozen=True)
class Point:
    """One request: a suite kernel under a full machine description."""

    kernel: str
    config: GPUConfig
    warps_per_core: Optional[int] = None

    @property
    def label(self) -> str:
        label = "%s/%s" % (self.kernel, self.config.scheduler)
        if self.warps_per_core is not None:
            label += "/%dw" % self.warps_per_core
        return label

    @property
    def key(self) -> str:
        """Identifies the point inside the program (see ``point_clock``)."""
        return point_key(self.kernel, self.config, self.warps_per_core)


def point_key(kernel: str, config: GPUConfig,
              warps_per_core: Optional[int] = None) -> str:
    return "%s/%s/%s" % (kernel, config.fingerprint(), warps_per_core)


#: Every workload's launch size.  At ``Scale.small()`` one divergent
#: kernel takes 8-11 s in the oracle and a validate round over 100 s,
#: more than a run may take.  At this size a round takes 1-5 s, so a run
#: holds enough rounds for stable medians, and the oracle still takes
#: ~3/4 (divergent) and ~1/2 (coalesced) of a validate point's time.
SCALE = Scale(4, 128, 2)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: ``evaluate`` (oracle + models), ``predict`` (model only).
    api: str
    jobs: int = 1
    #: ``memory``: fresh in-memory store per round; ``warm``: one disk
    #: store filled before timing.
    store: str = "memory"


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("validate-divergent", "evaluate"),
        WorkloadSpec("validate-coalesced", "evaluate", jobs=2),
        WorkloadSpec("dse-sweep", "predict"),
        WorkloadSpec("warm-replay", "evaluate", store="warm"),
    )
}


def _tagged(*tags: str, exclude: Optional[str] = None) -> List[str]:
    return sorted(
        name for name, spec in SUITE.items()
        if spec.tags & set(tags) and (exclude is None
                                      or exclude not in spec.tags)
    )


def _memory_point(rng: random.Random) -> Dict:
    """A seeded MSHR count from the program's MSHR sweep.  DRAM bandwidth
    is not drawn here: it moves a divergent kernel's oracle time by up to
    2x, which made the validate workloads' latencies depend on the seed."""
    return {"n_mshrs": rng.choice(MSHR_SWEEP)}


def _validate(kernels: List[str], rng: random.Random) -> List[Point]:
    """Every kernel under rr and gto, each with a seeded MSHR count."""
    return [
        Point(k, BASE_CONFIG.with_(scheduler=s, **_memory_point(rng)))
        for k in kernels for s in SCHEDULERS
    ]


def _replay(kernels: List[str], rng: random.Random) -> List[Point]:
    """Every kernel once, under a seeded scheduler and MSHR count."""
    return [
        Point(k, BASE_CONFIG.with_(scheduler=rng.choice(SCHEDULERS),
                                   **_memory_point(rng)))
        for k in kernels
    ]


def _draw(grid: Dict[str, Tuple], rng: random.Random) -> Dict:
    return {field: rng.choice(grid[field]) for field in sorted(grid)}


def _dse_points(rng: random.Random) -> List[Point]:
    """Each hardware-sweep kernel over warps x MSHRs, with seeded caches,
    bandwidth and scheduler."""
    return [
        Point(kernel,
              BASE_CONFIG.with_(n_mshrs=mshrs, **cache,
                                **_draw(DSE_CORE_GRID, rng)),
              warps)
        for kernel in SWEEP_KERNELS
        for warps in WARP_SWEEP
        for cache in [_draw(DSE_CACHE_GRID, rng)]
        for mshrs in MSHR_SWEEP
    ]


def build_points(workload: str, seed: int) -> List[Point]:
    """The request list one round of ``workload`` runs under ``seed``."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "validate-divergent":
        return _validate(_tagged("divergent", "write_heavy"), rng)
    if workload == "validate-coalesced":
        return _validate(
            _tagged("coalesced", "compute", "cache_friendly",
                    exclude="divergent"),
            rng,
        )
    if workload == "dse-sweep":
        return _dse_points(rng)
    if workload == "warm-replay":
        return _replay(sorted(SUITE), rng)
    raise KeyError("unknown workload %r; known: %s"
                   % (workload, ", ".join(WORKLOADS)))
