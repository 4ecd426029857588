"""Per-layer timers wrapped around each layer's public entry point.

The timers live here, outside the program: :func:`layer_timers` patches
the names the pipeline calls and restores them on exit.  Counts and
seconds go into the run's :class:`~repro.obs.MetricsRegistry` under
``bench.<layer>.*``.  Pool workers forked by ``Pipeline.evaluate_many``
inherit the patches and the registry, and the program ships every
worker's registry delta home with each result, so a parallel run is
counted like a serial one.

The oracle's component split comes from cProfile, switched on only
inside ``TimingSimulator.run`` during a separate serial pass: the
self-time of each module is grouped into issue logic, caches, MSHRs and
the DRAM queue.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.baselines.markov as markov_mod
import repro.baselines.naive as naive_mod
import repro.pipeline.pipeline as pipeline_mod
import repro.pipeline.stages as stages_mod
from repro.arch.base import ArchBackend
from repro.core.model import GPUMech
from repro.obs import MetricsRegistry
from repro.pipeline import Pipeline
from repro.pipeline.store import DiskStore, TieredStore
from repro.timing.simulator import TimingSimulator
from repro.workloads.suite import KernelSpec

from points import point_key

#: Oracle modules -> component name of the cProfile split.
ORACLE_COMPONENTS = {
    os.path.join("repro", "timing", "core_model.py"): "issue",
    os.path.join("repro", "memory", "cache.py"): "cache",
    os.path.join("repro", "memory", "mshr.py"): "mshr",
    os.path.join("repro", "memory", "dram.py"): "dram",
}

#: Layer names in report order (each reports ``.calls`` and ``.s``).
LAYERS = (
    "workloads.build",
    "trace",
    "cache_sim",
    "latency_table",
    "interval_profiles",
    "clustering",
    "predict",
    "baselines",
    "oracle",
)

#: The model path of Sec. VI-D: trace emulation feeds both sides, so it
#: is left out, as ``repro.harness.speedup`` does.
MODEL_LAYERS = ("cache_sim", "latency_table", "interval_profiles",
                "clustering", "predict")


class _Timer:
    """Counts calls and seconds of one layer into a registry."""

    def __init__(self, registry: MetricsRegistry, layer: str,
                 count: Optional[Callable] = None):
        self.calls = registry.counter("bench.%s.calls" % layer)
        self.seconds = registry.counter("bench.%s.s" % layer)
        self.registry = registry
        self.layer = layer
        #: ``count(args, result) -> {field: amount}`` work counts.
        self.count = count

    def wrap(self, fn: Callable) -> Callable:
        timer = self

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            timer.seconds.inc(time.perf_counter() - start)
            timer.calls.inc()
            if timer.count is not None:
                for field, amount in timer.count(args, result).items():
                    timer.registry.counter(
                        "bench.%s.%s" % (timer.layer, field)
                    ).inc(amount)
            return result

        timed.__wrapped__ = fn
        return timed


def _oracle_counts(args, stats) -> Dict[str, float]:
    return {
        "insts": stats.total_insts,
        "cycles": stats.total_cycles,
        "mshr_allocations": stats.mshr_allocations,
        "mshr_merges": stats.mshr_merges,
        "dram_requests": stats.dram_requests,
    }


@contextlib.contextmanager
def layer_timers(
    registry: MetricsRegistry,
    profiler: Optional[cProfile.Profile] = None,
) -> Iterator[None]:
    """Time every layer entry point into ``registry`` while active.

    With ``profiler``, cProfile records only inside the oracle.
    """
    patches: List[Tuple[object, str, Callable]] = []

    def patch(owner, name, layer, count=None, wrapper=None):
        original = getattr(owner, name)
        timed = _Timer(registry, layer, count).wrap(
            wrapper(original) if wrapper else original
        )
        patches.append((owner, name, original))
        setattr(owner, name, timed)

    def profiled(run):
        def run_profiled(self, trace):
            profiler.enable()
            try:
                return run(self, trace)
            finally:
                profiler.disable()
        return run_profiled

    patch(KernelSpec, "build", "workloads.build")
    patch(stages_mod, "emulate", "trace",
          count=lambda a, t: {"warp_insts": t.total_insts})
    patch(stages_mod, "simulate_caches", "cache_sim",
          count=lambda a, r: {"requests": a[0].total_requests})
    patch(stages_mod, "build_latency_table", "latency_table")
    patch(ArchBackend, "build_interval_profiles", "interval_profiles",
          count=lambda a, r: {"warps": len(r)})
    patch(stages_mod, "select_representative", "clustering")
    patch(GPUMech, "predict", "predict")
    patch(naive_mod, "naive_interval_cpi", "baselines")
    patch(markov_mod, "markov_chain_cpi", "baselines")
    patch(TimingSimulator, "run", "oracle", count=_oracle_counts,
          wrapper=profiled if profiler is not None else None)
    patch(pipeline_mod, "stage_key", "store.key")
    try:
        yield
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


#: Counter of each point's seconds inside ``Pipeline.evaluate``,
#: labeled ``point=<Point.key>``.
POINT_SECONDS = "bench.point.s"


@contextlib.contextmanager
def point_clock() -> Iterator[None]:
    """Time each ``Pipeline.evaluate`` call while active.

    The seconds go into the calling pipeline's own registry under
    :data:`POINT_SECONDS`.  Pool workers are forked with the patch in
    place and ship their registry delta home with each result, so after
    ``evaluate_many`` the parent holds every point's in-worker time.
    """
    original = Pipeline.evaluate

    def timed(self, kernel_name, config=None, policy=None,
              warps_per_core=None, **kwargs):
        start = time.perf_counter()
        result = original(self, kernel_name, config, policy,
                          warps_per_core, **kwargs)
        self.metrics.counter(
            POINT_SECONDS, point=point_key(kernel_name, config, warps_per_core)
        ).inc(time.perf_counter() - start)
        return result

    Pipeline.evaluate = timed
    try:
        yield
    finally:
        Pipeline.evaluate = original


def instrument_store(store, registry: MetricsRegistry) -> None:
    """Count and time ``get``/``put`` on a pipeline's top-level store.

    Bytes read are counted on the disk layer of a tiered store.
    """
    timed_get = _Timer(registry, "store.get").wrap(store.get)
    hits = registry.counter("bench.store.hits")

    def counted_get(key):
        value = timed_get(key)
        if value is not None:
            hits.inc()
        return value

    store.get = counted_get
    store.put = _Timer(registry, "store.put").wrap(store.put)
    layers = store.layers if isinstance(store, TieredStore) else [store]
    for layer in layers:
        if isinstance(layer, DiskStore):
            _count_disk_reads(layer, registry)


def _count_disk_reads(disk: DiskStore, registry: MetricsRegistry) -> None:
    read = registry.counter("bench.store.bytes_read")
    get = disk.get

    def get_counted(key):
        value = get(key)
        if value is not None:
            read.inc(os.path.getsize(disk._path(key)))
        return value

    disk.get = get_counted


def oracle_split(profiler: cProfile.Profile) -> Dict:
    """Self-time shares and call counts of the oracle's components.

    Built-in calls (dict, list and heap operations) carry no module of
    their own; their time is charged to the calling modules in
    proportion to each caller's share of those calls' time.
    """
    stats = pstats.Stats(profiler).stats
    self_time: Dict[str, float] = {}

    def component(func) -> str:
        filename = func[0]
        for suffix, name in ORACLE_COMPONENTS.items():
            if filename.endswith(suffix):
                return name
        return "other"

    calls = {"cache_accesses": 0, "core_steps": 0}
    for func, (_, ncalls, tottime, _, callers) in stats.items():
        name = component(func)
        if func[0] == "~" and callers:
            total = sum(c[2] for c in callers.values()) or 1.0
            for caller, c in callers.items():
                share = component(caller)
                self_time[share] = (self_time.get(share, 0.0)
                                    + tottime * c[2] / total)
        else:
            self_time[name] = self_time.get(name, 0.0) + tottime
        if name == "cache" and func[2] == "access":
            calls["cache_accesses"] += ncalls
        if name == "issue" and func[2] == "step":
            calls["core_steps"] += ncalls
    total = sum(self_time.values()) or 1.0
    shares = {name: self_time.get(name, 0.0) / total
              for name in ("issue", "cache", "mshr", "dram", "other")}
    return {"shares": shares, **calls}
