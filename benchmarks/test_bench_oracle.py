"""Bench: timing-oracle throughput on the memory-divergent class.

Runs the oracle (``TimingSimulator.run``) on every ``divergent`` and
``write_heavy`` suite kernel under RR and GTO at ``Scale(4, 128, 2)``,
the launch size of the end-to-end benchmark's validate workloads.  The
traces are emulated once, outside the timed region; each round times
only the oracle.  The result is a min-of-N, so the busiest-core rounds
don't pollute it.

Guards (enforced in the ``bench-hotpath`` CI job):

* an absolute budget on the oracle's seconds, so the fast path
  regressing into per-request or per-entry scans fails;
* the bitwise golden digest of ``tests/test_oracle_golden.py``: the
  oracle got faster without changing any number it reports.

Results land in ``BENCH_oracle.json`` at the repo root.
"""

import json
import os
import time

from benchmarks.conftest import run_once
from repro.config import GPUConfig
from repro.timing import TimingSimulator
from repro.trace import emulate
from repro.workloads import Scale
from repro.workloads.suite import SUITE, kernels_with_tag
from tests.test_oracle_golden import GOLDEN_DIGEST, oracle_digest

SCALE = Scale(4, 128, 2)
SCHEDULERS = ("rr", "gto")
ROUNDS = 3

#: Absolute wall-clock budget for one round (seconds): about twice the
#: 0.8-1.3 s measured on a shared 2-vCPU host, and below the 2.6-3.8 s
#: the same round took there before the oracle fast path, so losing the
#: fast path fails the guard.
ORACLE_BUDGET_S = 2.5

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_oracle.json"
)


def _kernels():
    return sorted(set(kernels_with_tag("divergent"))
                  | set(kernels_with_tag("write_heavy")))


def _traces(config):
    traces = []
    for name in _kernels():
        kernel, memory = SUITE[name].build(SCALE)
        traces.append(emulate(kernel, config, memory=memory))
    return traces


def _oracle_round(traces, config):
    """Seconds and issued instructions of one pass over the class."""
    insts = 0
    start = time.perf_counter()
    for trace in traces:
        for scheduler in SCHEDULERS:
            stats = TimingSimulator(
                config.with_(scheduler=scheduler)
            ).run(trace)
            insts += stats.total_insts
    return time.perf_counter() - start, insts


def test_bench_oracle(benchmark):
    config = GPUConfig.small(n_cores=2, warps_per_core=16)
    traces = _traces(config)
    best = float("inf")
    insts = 0
    for _ in range(ROUNDS):
        seconds, insts = _oracle_round(traces, config)
        best = min(best, seconds)
    digest = oracle_digest()

    results = {
        "kernels": _kernels(),
        "schedulers": list(SCHEDULERS),
        "scale": [SCALE.n_blocks, SCALE.block_size, SCALE.iters],
        "rounds": ROUNDS,
        "oracle_s": best,
        "insts": insts,
        "kips": insts / best / 1e3,
        "budget_s": ORACLE_BUDGET_S,
        "golden_digest": digest,
        "golden_match": digest == GOLDEN_DIGEST,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    benchmark.extra_info.update(results)

    run_once(benchmark, _oracle_round, traces, config)

    assert digest == GOLDEN_DIGEST, (
        "oracle statistics changed: digest %s, golden %s"
        % (digest, GOLDEN_DIGEST)
    )
    assert best <= ORACLE_BUDGET_S, (
        "oracle took %.3fs on the divergent class, over its %.1fs budget"
        % (best, ORACLE_BUDGET_S)
    )
