"""Bench: observability overhead — disabled tracing must stay free.

The pipeline keeps a tracer and metrics registry unconditionally; the
contract (repro.obs.tracer, design constraint 1) is that the *disabled*
path costs nothing measurable.  This bench times the same
trace-plus-oracle computation three ways:

``baseline``
    The raw stage computes (suite build → emulate → oracle), no
    pipeline, no obs — the untraced floor.
``disabled``
    Through ``Pipeline.simulate`` with the default disabled tracer —
    adds content-addressed keys, the in-memory store, metric counters
    and no-op span calls.
``enabled``
    Same, with a recording tracer and timeline sampling — the full
    observability cost, recorded for context (not asserted).

One more pair covers the prediction ledger:

``evaluate`` vs ``evaluate_ledger``
    ``Pipeline.evaluate`` without and with a prediction ledger — the
    per-evaluation JSONL append must stay within the same 5% budget.

Each timing is a min-of-N (coldest-cache noise suppressed); the
assertion allows 5% relative plus a small absolute grace for sub-ms
jitter.  Results land in ``BENCH_obs.json`` at the repo root.
"""

import json
import os
import tempfile
import time

from benchmarks.conftest import run_once
from repro.config import GPUConfig
from repro.obs import PredictionLedger, Tracer
from repro.pipeline import Pipeline
from repro.timing.simulator import simulate_kernel
from repro.trace.emulator import emulate
from repro.workloads import Scale
from repro.workloads.suite import SUITE

KERNEL = "cfd_step_factor"
WARPS = 8
ROUNDS = 5

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_obs.json"
)


def _config():
    return GPUConfig.small(n_cores=2, warps_per_core=16)


def _baseline():
    """The untraced floor: exactly the work the pipeline stages do."""
    config = _config()
    scale = Scale.tiny()
    kernel, memory = SUITE[KERNEL].build(scale)
    trace = emulate(kernel, config, memory=memory)
    return simulate_kernel(trace, config, warps_per_core=WARPS)


def _pipeline_run(tracer=None, timeline_interval=None):
    pipeline = Pipeline(
        _config(), scale=Scale.tiny(), tracer=tracer,
        timeline_interval=timeline_interval,
    )
    return pipeline.simulate(KERNEL, warps_per_core=WARPS)


def _evaluate_run(ledger=None):
    pipeline = Pipeline(_config(), scale=Scale.tiny(), ledger=ledger)
    return pipeline.evaluate(KERNEL, warps_per_core=WARPS)


def _min_time(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_obs_overhead(benchmark):
    baseline = _min_time(_baseline)
    disabled = _min_time(_pipeline_run)
    enabled = _min_time(
        lambda: _pipeline_run(tracer=Tracer(), timeline_interval=256.0)
    )
    evaluate = _min_time(_evaluate_run)
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = os.path.join(tmp, "bench-ledger.jsonl")
        evaluate_ledger = _min_time(
            lambda: _evaluate_run(ledger=PredictionLedger(ledger_path))
        )

    results = {
        "kernel": KERNEL,
        "warps_per_core": WARPS,
        "rounds": ROUNDS,
        "baseline_s": baseline,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "evaluate_s": evaluate,
        "evaluate_ledger_s": evaluate_ledger,
        "disabled_overhead_ratio": disabled / baseline,
        "enabled_overhead_ratio": enabled / baseline,
        "ledger_overhead_ratio": evaluate_ledger / evaluate,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    benchmark.extra_info.update(results)

    run_once(benchmark, _pipeline_run)

    # The satellite contract: the disabled-tracer pipeline path stays
    # within 5% of the untraced baseline (plus 50ms absolute grace so
    # sub-ms runs don't fail on scheduler jitter).
    assert disabled <= baseline * 1.05 + 0.05, (
        "disabled-tracer pipeline run %.4fs exceeds untraced baseline "
        "%.4fs by more than 5%%" % (disabled, baseline)
    )
    # Ledger appends are one JSON line per *evaluation* — bounded by
    # serialization of a small dict, not by sweep size.
    assert evaluate_ledger <= evaluate * 1.05 + 0.05, (
        "ledger-enabled evaluate %.4fs exceeds plain evaluate %.4fs "
        "by more than 5%%" % (evaluate_ledger, evaluate)
    )
