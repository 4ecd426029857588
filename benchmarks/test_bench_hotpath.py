"""Bench: hot-path vectorization — scalar reference vs batched numpy.

Times the three vectorized stages (functional emulation, cache replay,
Eq. 4 interval construction) against their scalar reference functions
on the largest suite kernel, per stage and combined, and times loading
the interval-profile artifact back from a ``DiskStore`` against
building it.  Each timing is a min-of-N so the coldest-cache/busiest-core
rounds don't pollute the ratio, and the sides alternate round by round
so a host-speed phase cannot fall on one side only.

Guards (the PR contract, enforced in the ``bench-hotpath`` CI job):

* combined trace+cache-sim+interval speedup ≥ 10×;
* an absolute per-stage budget on the vectorized path, so a vectorized
  stage regressing into Python loops fails even if the scalar reference
  got slower too;
* a store hit on the interval-profile artifact costs ≤ 0.1 of building
  it.

Results land in ``BENCH_hotpath.json`` at the repo root.
"""

import json
import os
import pickle
import time

from benchmarks.conftest import run_once
from repro.config import GPUConfig
from repro.core.interval import (
    build_interval_profiles,
    build_interval_profiles_reference,
)
from repro.core.latency import build_latency_table
from repro.memory.cache_simulator import (
    simulate_caches,
    simulate_caches_reference,
)
from repro.pipeline.store import DiskStore
from repro.trace.emulator import emulate, emulate_reference
from repro.workloads import Scale
from repro.workloads.suite import SUITE

KERNEL = "sgemm_tile"
ROUNDS = 3
MIN_SPEEDUP = 10.0

#: Absolute wall-clock budget per vectorized stage (seconds) — generous
#: multiples of the measured times (0.4 / 0.05 / 0.25 on a single
#: shared core), tight enough to catch a stage falling back to loops.
VEC_BUDGET_S = {"trace": 3.0, "cache_sim": 1.0, "interval_profiles": 2.0}

#: Loading the interval-profile artifact from a disk store may take at
#: most this share of building it: a warm store is only worth having if
#: a hit is far cheaper than the work it saves.
MAX_LOAD_RATIO = 0.1
PROFILES_KEY = "interval_profiles:" + KERNEL

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_hotpath.json"
)


def _config():
    return GPUConfig.small(n_cores=2, warps_per_core=16)


#: The two sides of the speedup: scalar references and production.
SIDES = {
    "scalar": (
        emulate_reference,
        simulate_caches_reference,
        build_interval_profiles_reference,
    ),
    "vectorized": (emulate, simulate_caches, build_interval_profiles),
}


def _round(side, kernel, memory, config):
    """One timed pass of one side's three stages; also returns the
    interval-profile artifact it built."""
    run_trace, run_cache, run_profiles = SIDES[side]
    times = {}
    start = time.perf_counter()
    trace = run_trace(kernel, config, memory=memory)
    times["trace"] = time.perf_counter() - start
    start = time.perf_counter()
    cache = run_cache(trace, config)
    times["cache_sim"] = time.perf_counter() - start
    table = build_latency_table(trace, cache, config)
    start = time.perf_counter()
    profiles = run_profiles(trace.warps, table, config.issue_rate)
    times["interval_profiles"] = time.perf_counter() - start
    return times, profiles


def _stage_times(store):
    """Min-of-N seconds per stage and side, and of loading the
    interval-profile artifact back from ``store``.

    The sides alternate round by round (scalar, vectorized, load,
    scalar, ...), so a change of host speed between rounds reaches
    every side instead of only one of them.
    """
    config = _config()
    kernel, memory = SUITE[KERNEL].build(Scale.small())
    best = {side: dict.fromkeys(VEC_BUDGET_S, float("inf")) for side in SIDES}
    best["load"] = float("inf")
    for _ in range(ROUNDS):
        for side in SIDES:
            times, profiles = _round(side, kernel, memory, config)
            for name, seconds in times.items():
                best[side][name] = min(best[side][name], seconds)
        store.put(PROFILES_KEY, profiles)
        start = time.perf_counter()
        loaded = store.get(PROFILES_KEY)
        best["load"] = min(best["load"], time.perf_counter() - start)
        assert pickle.dumps(loaded) == pickle.dumps(profiles)
    return best


def test_bench_hotpath(benchmark, tmp_path):
    best = _stage_times(DiskStore(str(tmp_path)))
    scalar, vec = best["scalar"], best["vectorized"]
    scalar_combined = sum(scalar.values())
    vec_combined = sum(vec.values())
    speedup = scalar_combined / vec_combined
    load_ratio = best["load"] / vec["interval_profiles"]

    results = {
        "kernel": KERNEL,
        "scale": "small",
        "rounds": ROUNDS,
        "scalar_s": scalar,
        "vectorized_s": vec,
        "scalar_combined_s": scalar_combined,
        "vectorized_combined_s": vec_combined,
        "stage_speedup": {
            name: scalar[name] / vec[name] for name in scalar
        },
        "combined_speedup": speedup,
        "min_speedup_guard": MIN_SPEEDUP,
        "vectorized_budget_s": VEC_BUDGET_S,
        "profiles_load_s": best["load"],
        "profiles_build_s": vec["interval_profiles"],
        "profiles_load_build_ratio": load_ratio,
        "max_load_build_ratio_guard": MAX_LOAD_RATIO,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    benchmark.extra_info.update(results)

    kernel, memory = SUITE[KERNEL].build(Scale.small())
    run_once(benchmark, _round, "vectorized", kernel, memory, _config())

    assert speedup >= MIN_SPEEDUP, (
        "combined hot-path speedup %.1fx below the %.0fx guard "
        "(scalar %.3fs, vectorized %.3fs)"
        % (speedup, MIN_SPEEDUP, scalar_combined, vec_combined)
    )
    for name, budget in VEC_BUDGET_S.items():
        assert vec[name] <= budget, (
            "vectorized %s stage took %.3fs, over its %.1fs budget"
            % (name, vec[name], budget)
        )
    assert load_ratio <= MAX_LOAD_RATIO, (
        "loading the interval-profile artifact took %.4fs, %.2f of the "
        "%.4fs it takes to build (guard %.2f)"
        % (best["load"], load_ratio, vec["interval_profiles"],
           MAX_LOAD_RATIO)
    )
