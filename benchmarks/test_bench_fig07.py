"""Bench: Figure 7 — representative-warp selection strategies."""

from benchmarks.conftest import run_once
from repro.harness.experiments import run_figure7


def test_bench_figure7(benchmark, bench_pipeline):
    result = run_once(benchmark, run_figure7, bench_pipeline)
    print("\n" + result.text)
    means = result.data["means"]
    benchmark.extra_info["mean_errors"] = {
        k: round(v, 4) for k, v in means.items()
    }
    # Clustering must not be meaningfully worse than the better extreme.
    assert means["clustering"] <= max(means["max"], means["min"]) * 1.05 + 0.01
