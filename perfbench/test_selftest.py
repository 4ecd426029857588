"""Self-test of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

On a tiny-scale seed, every layer count the benchmark's own timers
record must equal the program's own counters.  A timer that misses
calls (one not inherited by pool workers, or an entry point that was
renamed) fails here before it can skew a benchmark run.
"""

import pytest

from points import WORKLOADS, build_points
from repro.workloads.generators import Scale
from measure import Bench, per_layer

STAGES = ("trace", "cache_sim", "latency_table", "interval_profiles",
          "clustering", "predict", "oracle")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_counts_match_program_counters(workload, tmp_path):
    bench = Bench(workload, seed=7, workdir=str(tmp_path), scale=Scale.tiny())
    if WORKLOADS[workload].store == "warm":
        bench.fill()
    run = per_layer(bench, seconds=0)
    registry = run["registry"]
    assert run["tally"].failed == 0, run["tally"].problems
    assert not run["tally"].problems

    def bench_count(name):
        return registry.counter_value("bench." + name)

    executions = registry.labeled_values("pipeline.stage_executions", "stage")
    hits = registry.labeled_values("pipeline.stage_hits", "stage")
    for stage in STAGES:
        assert bench_count(stage + ".calls") == executions[stage], stage
    assert bench_count("workloads.build.calls") == executions["trace"]
    assert bench_count("cache_sim.calls") == registry.counter_value(
        "cache_sim.runs")
    assert bench_count("oracle.calls") == registry.counter_value(
        "oracle.runs")
    assert bench_count("oracle.insts") == registry.counter_value(
        "oracle.insts_issued")
    assert bench_count("oracle.cycles") == registry.counter_value(
        "oracle.cycles")
    assert bench_count("store.get.calls") == (sum(hits.values())
                                              + sum(executions.values()))
    assert bench_count("store.hits") == sum(hits.values())
    spec = WORKLOADS[workload]
    if spec.store == "warm":
        assert sum(executions.values()) == 0
    elif spec.api == "evaluate":
        assert executions["oracle"] > 0


def test_pool_round_times_every_point(tmp_path):
    bench = Bench("validate-coalesced", seed=7, workdir=str(tmp_path),
                  scale=Scale.tiny())
    rnd = bench.round()
    assert rnd.failed == 0 and not rnd.problems, rnd.problems
    assert all(t is not None and t > 0 for t in rnd.latencies)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_picks_the_draws(workload):
    assert build_points(workload, 3) == build_points(workload, 3)
    assert build_points(workload, 3) != build_points(workload, 4)
