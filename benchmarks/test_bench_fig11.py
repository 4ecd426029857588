"""Bench: Figure 11 — all-model comparison, round-robin policy, full suite."""

from benchmarks.conftest import run_once
from repro.harness.experiments import run_figure11


def test_bench_figure11(benchmark, bench_pipeline):
    result = run_once(benchmark, run_figure11, bench_pipeline)
    print("\n" + result.text)
    means = result.data["means"]
    benchmark.extra_info["mean_errors"] = {
        k: round(v, 4) for k, v in means.items()
    }
    benchmark.extra_info["gpumech_under_20"] = result.data["gpumech_under_20"]
    # The paper's headline ordering: GPUMech beats both baselines.
    assert means["mt_mshr_band"] < means["naive"]
    assert means["mt_mshr_band"] < means["markov"]
