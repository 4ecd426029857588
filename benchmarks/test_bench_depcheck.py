"""Bench: depcheck costs — fast static pass, near-free runtime proxy.

Two contracts (enforced in the ``depcheck`` CI job):

* the static field-dependency inference covers every pipeline stage in
  under a second — cheap enough to run on each CI push and inside test
  suites without a second thought;
* the access-recording config proxy adds at most 5% to a sanitized
  suite sweep, so ``REPRO_DEPCHECK=1`` is viable on real workloads
  (the per-cycle config reads of the timing core are hoisted into
  ``CoreModel.__init__`` precisely to keep this budget).

Each timing is a min-of-N, with the baseline and sanitized rounds
interleaved so a host-speed phase falls on both sides; the overhead
assertion allows 5% relative plus a small absolute grace for sub-ms
jitter (same shape as the observability-overhead bench).  Results land in ``BENCH_depcheck.json``
at the repo root.
"""

import json
import os
import time

from benchmarks.conftest import run_once
from repro.config import GPUConfig
from repro.depcheck import analyze_stage_deps
from repro.depcheck.runtime import DEPCHECK_ENV
from repro.pipeline import Pipeline
from repro.pipeline.stages import STAGES
from repro.workloads import Scale
from repro.workloads.suite import SUITE

ROUNDS = 3
STATIC_BUDGET_S = 1.0
MAX_OVERHEAD = 0.05
ABS_GRACE_S = 0.02

#: A representative slice of the suite for the overhead sweep (the
#: full 40-kernel sweep runs in the depcheck CI job itself).
SWEEP_KERNELS = sorted(SUITE)[:10]

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_depcheck.json"
)


def _static_pass_time():
    best = float("inf")
    n_stages = 0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        report = analyze_stage_deps()
        best = min(best, time.perf_counter() - start)
        n_stages = len(report.stages)
        assert not report.has_errors
    return best, n_stages


def _sweep_times():
    """Min-of-N sweep seconds as ``(baseline, sanitized)``.

    The two sides alternate round by round, so a change of host speed
    between rounds reaches both sides instead of only one of them.
    """
    saved = os.environ.get(DEPCHECK_ENV)
    best = {False: float("inf"), True: float("inf")}
    try:
        for _ in range(ROUNDS):
            for sanitized in (False, True):
                os.environ[DEPCHECK_ENV] = "1" if sanitized else "0"
                pipeline = Pipeline(
                    GPUConfig.small(n_cores=2, warps_per_core=16),
                    scale=Scale.tiny(),
                    lint=True,
                )
                start = time.perf_counter()
                for kernel in SWEEP_KERNELS:
                    pipeline.evaluate(kernel)
                best[sanitized] = min(
                    best[sanitized], time.perf_counter() - start
                )
        return best[False], best[True]
    finally:
        if saved is None:
            os.environ.pop(DEPCHECK_ENV, None)
        else:
            os.environ[DEPCHECK_ENV] = saved


def test_bench_depcheck(benchmark):
    static_s, n_stages = _static_pass_time()
    baseline_s, sanitized_s = _sweep_times()
    overhead = sanitized_s / baseline_s - 1.0

    results = {
        "static_pass_s": static_s,
        "static_budget_s": STATIC_BUDGET_S,
        "n_stages": n_stages,
        "sweep_kernels": len(SWEEP_KERNELS),
        "scale": "tiny",
        "rounds": ROUNDS,
        "baseline_sweep_s": baseline_s,
        "sanitized_sweep_s": sanitized_s,
        "proxy_overhead": overhead,
        "max_overhead_guard": MAX_OVERHEAD,
        "abs_grace_s": ABS_GRACE_S,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    benchmark.extra_info.update(results)

    run_once(benchmark, analyze_stage_deps)

    assert n_stages == len(STAGES)
    assert static_s <= STATIC_BUDGET_S, (
        "static depcheck pass took %.3fs, over its %.1fs budget"
        % (static_s, STATIC_BUDGET_S)
    )
    assert sanitized_s <= baseline_s * (1 + MAX_OVERHEAD) + ABS_GRACE_S, (
        "sanitizer proxy overhead %.1f%% over the %.0f%% guard "
        "(baseline %.3fs, sanitized %.3fs)"
        % (overhead * 100, MAX_OVERHEAD * 100, baseline_s, sanitized_s)
    )
