"""Bench: Figure 15 — mean error vs. DRAM bandwidth."""

from benchmarks.conftest import BENCH_KERNELS, run_once
from repro.harness.experiments import run_figure15


def test_bench_figure15(benchmark, bench_pipeline):
    result = run_once(
        benchmark, run_figure15, bench_pipeline,
        kernels=BENCH_KERNELS, bandwidths=(64.0, 128.0, 192.0, 256.0),
    )
    print("\n" + result.text)
    series = result.data["series"]
    benchmark.extra_info["series"] = {
        k: [round(v, 4) for v in vs] for k, vs in series.items()
    }
    # Bandwidth modeling matters most at low bandwidth (Fig. 15): the gap
    # between MT_MSHR and the full model shrinks as bandwidth grows.
    gap_low = series["MT_MSHR"][0] - series["MT_MSHR_BAND"][0]
    gap_high = series["MT_MSHR"][-1] - series["MT_MSHR_BAND"][-1]
    assert gap_low >= gap_high - 0.05
