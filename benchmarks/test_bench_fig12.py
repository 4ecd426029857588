"""Bench: Figure 12 — all-model comparison, greedy-then-oldest policy."""

from benchmarks.conftest import run_once
from repro.harness.experiments import run_figure12


def test_bench_figure12(benchmark, bench_pipeline):
    result = run_once(benchmark, run_figure12, bench_pipeline)
    print("\n" + result.text)
    means = result.data["means"]
    benchmark.extra_info["mean_errors"] = {
        k: round(v, 4) for k, v in means.items()
    }
    assert means["mt_mshr_band"] < means["naive"]
    assert means["mt_mshr_band"] < means["markov"]
