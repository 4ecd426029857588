"""Bench: Figure 16 — CPI stacks of the case-study kernels vs. warps."""

from benchmarks.conftest import run_once
from repro.harness.experiments import run_figure16


def test_bench_figure16(benchmark, bench_pipeline):
    result = run_once(
        benchmark, run_figure16, bench_pipeline, warp_counts=(2, 4, 8, 16)
    )
    print("\n" + result.text)
    data = result.data
    benchmark.extra_info["kernels"] = sorted(data)
    # Stacks are additive decompositions of the model CPI.
    for kernel, per_warp in data.items():
        for warps, entry in per_warp.items():
            total = sum(entry["stack"].values())
            assert abs(total - entry["model_cpi"]) < 1e-6
    # The paper's Sec. VII reading: invert_mapping is DRAM-queue-bound.
    inv = data["kmeans_invert_mapping"]
    top_warps = max(inv)
    assert inv[top_warps]["stack"]["QUEUE"] > inv[top_warps]["stack"]["MSHR"]
