"""Bench: Figure 14 — mean error vs. number of MSHR entries."""

from benchmarks.conftest import BENCH_KERNELS, run_once
from repro.harness.experiments import run_figure14


def test_bench_figure14(benchmark, bench_pipeline):
    result = run_once(
        benchmark, run_figure14, bench_pipeline,
        kernels=BENCH_KERNELS, mshr_counts=(32, 64, 128, 256),
    )
    print("\n" + result.text)
    series = result.data["series"]
    benchmark.extra_info["series"] = {
        k: [round(v, 4) for v in vs] for k, vs in series.items()
    }
    # With plentiful MSHRs the MSHR model converges to MT (Fig. 14).
    assert abs(series["MT"][-1] - series["MT_MSHR"][-1]) <= 0.05
    # GPUMech stays at least as good as the naive baseline everywhere.
    for band, naive in zip(series["MT_MSHR_BAND"], series["Naive_Interval"]):
        assert band <= naive + 0.05
