"""Bench: Figure 13 — mean error vs. warps per core."""

from benchmarks.conftest import BENCH_KERNELS, run_once
from repro.harness.experiments import run_figure13


def test_bench_figure13(benchmark, bench_pipeline):
    result = run_once(
        benchmark, run_figure13, bench_pipeline,
        kernels=BENCH_KERNELS, warp_counts=(2, 4, 8, 16),
    )
    print("\n" + result.text)
    series = result.data["series"]
    benchmark.extra_info["series"] = {
        k: [round(v, 4) for v in vs] for k, vs in series.items()
    }
    # Fig. 13's story: contention-free models degrade with warp count;
    # full GPUMech stays ahead of both baselines at the top end.
    assert series["MT_MSHR_BAND"][-1] < series["Naive_Interval"][-1]
    assert series["MT_MSHR_BAND"][-1] < series["Markov_Chain"][-1]
