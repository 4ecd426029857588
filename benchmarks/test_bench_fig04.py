"""Bench: Figure 4 — per-component error reduction on the SRAD kernel."""

from benchmarks.conftest import run_once
from repro.harness.experiments import run_figure4


def test_bench_figure4(benchmark, bench_pipeline):
    result = run_once(benchmark, run_figure4, bench_pipeline, "srad_kernel1")
    print("\n" + result.text)
    errors = result.data["errors"]
    benchmark.extra_info["errors"] = {k: round(v, 4) for k, v in errors.items()}
    # The paper's ladder: each added component reduces (or preserves) error.
    assert errors["mt_mshr"] <= errors["mt"] + 1e-9
    assert errors["mt_mshr_band"] <= errors["mt_mshr"] + 1e-9
