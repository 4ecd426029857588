"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script and times it until it prints ``READY``:
that span is the run's set-up (``import repro.cli`` plus the first
``Pipeline``).  The script then measures rounds of the workload's seeded
request list, checks every point, and prints one ``RESULT`` line.

A *round* is the workload's whole request list against a fresh store
(or, for ``warm-replay``, a fresh ``Pipeline`` on the filled store).
Rounds repeat until ``--seconds`` have passed, and every round must
reproduce the first one's records exactly.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import repro.cli  # noqa: F401  (set-up time covers the CLI import)
from repro import EvalRequest, MetricsRegistry, Pipeline
from repro.pipeline.stages import compute_trace

import checks
from hostspeed import HostClock
from layers import (LAYERS, MODEL_LAYERS, POINT_SECONDS, instrument_store,
                    layer_timers, oracle_split, point_clock)
from points import BASE_CONFIG, SCALE, WORKLOADS, build_points

READY = "PERFBENCH_READY "
RESULT = "PERFBENCH_RESULT "


@dataclass
class Round:
    """Outcome of one pass over the request list."""

    records: List[Optional[Tuple]]
    #: Host seconds of each request, in request order (pool: in-worker
    #: time from ``point_clock``; ``None`` where a pool point failed).
    latencies: List[Optional[float]]
    #: Host seconds spent inside the program's API calls.
    seconds: float
    #: ``latencies`` and ``seconds`` in reference seconds (hostspeed).
    ref_latencies: List[Optional[float]]
    ref_seconds: float
    problems: List[str] = field(default_factory=list)
    results: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r is None)


class Bench:
    """Runs rounds of one workload's request list."""

    def __init__(self, workload: str, seed: int, workdir: str,
                 scale=SCALE, warm_dir: Optional[str] = None):
        self.spec = WORKLOADS[workload]
        self.scale = scale
        self.points = build_points(workload, seed)
        self.workdir = workdir
        #: ``warm-replay``'s store and, beside it, the fill pass's records.
        self.warm_dir = warm_dir or os.path.join(workdir, "warm")
        self._facts: Optional[List[Tuple[int, int, int]]] = None

    # -- pipelines ----------------------------------------------------------

    def pipeline(self, registry=None, instrument: bool = False):
        """A fresh ``Pipeline`` on the workload's store."""
        kwargs = {}
        if self.spec.store == "warm":
            kwargs["cache_dir"] = os.path.join(self.warm_dir, "store")
        registry = registry if registry is not None else MetricsRegistry()
        pipeline = Pipeline(BASE_CONFIG, scale=self.scale,
                            metrics=registry, **kwargs)
        if instrument:
            instrument_store(pipeline.store, registry)
        return pipeline

    # -- rounds -------------------------------------------------------------

    def round(self, registry=None, instrument: bool = False,
              serial: bool = False) -> Round:
        """One pass over the request list on a fresh pipeline."""
        if self.spec.store == "warm":
            # Write back what the fill left dirty, so every round reads
            # the store from the same state.
            os.sync()
        pipeline = self.pipeline(registry, instrument)
        if self.spec.jobs > 1 and not serial:
            return self._pool_round(pipeline)
        return self._serial_round(pipeline)

    def _serial_round(self, pipeline) -> Round:
        call = (pipeline.predict if self.spec.api == "predict"
                else pipeline.evaluate)
        results, problems = [], []
        clock = HostClock()
        for point in self.points:
            start = time.perf_counter()
            try:
                result = call(point.kernel, config=point.config,
                              warps_per_core=point.warps_per_core)
            except Exception as exc:  # one failed point: keep going
                problems.append("%s: %s: %s" % (point.label,
                                                type(exc).__name__, exc))
                result = None
            clock.add(time.perf_counter() - start)
            results.append(result)
        clock.flush()
        rnd = Round([], clock.raw, sum(clock.raw), clock.scaled,
                    sum(clock.scaled), problems, results)
        self._check(rnd)
        return rnd

    def _pool_round(self, pipeline) -> Round:
        requests = [EvalRequest(p.kernel, config=p.config,
                                warps_per_core=p.warps_per_core)
                    for p in self.points]
        problems: List[str] = []
        clock = HostClock(every_cpu=True)
        start = time.perf_counter()
        try:
            with point_clock():
                results = pipeline.evaluate_many(requests,
                                                 jobs=self.spec.jobs)
        except Exception as exc:
            # evaluate_many aborts on the first error: every point fails.
            problems.append("evaluate_many: %s: %s"
                            % (type(exc).__name__, exc))
            results = [None] * len(self.points)
        seconds = time.perf_counter() - start
        clock.add(seconds)
        clock.flush()
        factor = clock.scaled[0] / seconds
        durations = pipeline.metrics.labeled_values(POINT_SECONDS, "point")
        latencies = [durations.get(p.key) for p in self.points]
        rnd = Round([], latencies, seconds,
                    [None if t is None else t * factor for t in latencies],
                    seconds * factor, problems, results)
        self._check(rnd)
        return rnd

    def trace_facts(self) -> List[Tuple[int, int, int]]:
        """Per point: the trace's instruction count, its dynamic memory
        instructions, and those with more than one request.

        Read once per run by building each trace outside any pipeline,
        before the first timed round, so the checks add no store lookups
        or trace work to what the layer timers count.
        """
        if self._facts is None:
            by_trace: Dict[Tuple[str, str], Tuple[int, int, int]] = {}
            for point in self.points:
                key = (point.kernel, point.config.trace_fingerprint())
                if key not in by_trace:
                    trace = compute_trace(point.kernel, self.scale,
                                          point.config)
                    multi = memory = 0
                    for warp in trace.warps:
                        counts = np.diff(warp.req_offsets)
                        multi += int(np.count_nonzero(counts > 1))
                        memory += int(np.count_nonzero(counts > 0))
                    by_trace[key] = (trace.total_insts, memory, multi)
            self._facts = [
                by_trace[(p.kernel, p.config.trace_fingerprint())]
                for p in self.points
            ]
        return self._facts

    def _check(self, rnd: Round) -> None:
        for index, (point, result) in enumerate(zip(self.points,
                                                    rnd.results)):
            if result is None:
                rnd.records.append(None)
                continue
            if self.spec.api == "predict":
                problems = checks.check_prediction(result)
                record = checks.prediction_record(point, result)
            else:
                problems = checks.check_evaluation(
                    result, self.trace_facts()[index][0])
                record = checks.evaluation_record(point, result)
            rnd.problems.extend("%s: %s" % (point.label, p)
                                for p in problems)
            rnd.records.append(None if problems else record)

    def _fill_path(self) -> str:
        return os.path.join(self.warm_dir, "fill.pkl")

    def fill(self) -> None:
        """Fill the warm store with one pass over the request list, and
        keep that pass's records, problems and trace facts beside it."""
        if self.spec.store != "warm":
            raise ValueError("%s has no warm store" % self.spec.name)
        os.makedirs(self.warm_dir, exist_ok=True)
        rnd = self.round()
        with open(self._fill_path(), "wb") as handle:
            pickle.dump({"records": rnd.records, "problems": rnd.problems,
                         "facts": self.trace_facts()}, handle)

    def filled(self) -> Optional[Dict]:
        """The fill pass's records and problems (``None``: no warm store).

        ``run.py`` fills in a process of its own, so the measuring
        process's peak RSS covers only the replay; the trace facts come
        from the fill too, so no trace is built here.
        """
        if self.spec.store != "warm":
            return None
        if not os.path.isfile(self._fill_path()):
            raise RuntimeError("warm store %s is not filled; run with "
                               "--fill-only first" % self.warm_dir)
        with open(self._fill_path(), "rb") as handle:
            filled = pickle.load(handle)
        self._facts = filled["facts"]
        return filled

    def multi_request_share(self) -> float:
        """Share of dynamic memory instructions with > 1 request."""
        memory = sum(f[1] for f in self.trace_facts())
        multi = sum(f[2] for f in self.trace_facts())
        return multi / memory if memory else 0.0


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _tail(samples: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples
    beyond it, linearly interpolated between order statistics."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    pct = 1.0 - 10.0 / n
    pos = pct * (n - 1)
    low = int(pos)
    high = min(low + 1, n - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
    return 100.0 * pct, value


def _cpi_mape_pct(rnd: Round) -> float:
    errors = [abs(r.model_cpis["mt_mshr_band"] - r.oracle_cpi) / r.oracle_cpi
              for r in rnd.results if r is not None]
    return 100.0 * sum(errors) / len(errors) if errors else 0.0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool) / 1024.0


class Tally:
    """Failures and messages of a run, against the reference records:
    the fill pass's on ``warm-replay``, else the first round's."""

    def __init__(self, filled: Optional[Dict] = None):
        self.reference = filled["records"] if filled else None
        #: The first round measured (its results give ``cpi_mape_pct``).
        self.first: Optional[Round] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = (
            ["fill: %s" % p for p in filled["problems"]] if filled else [])

    def add(self, rnd: Round, label: str = "") -> None:
        if self.reference is None:
            self.reference = rnd.records
        if self.first is None:
            self.first = rnd
        bad = checks.mismatches(rnd.records, self.reference)
        if bad > rnd.failed:
            self.problems.append("%s: %d point(s) differ from the reference "
                                 "round" % (label or "round",
                                            bad - rnd.failed))
        self.attempted += len(rnd.records)
        self.failed += bad
        self.problems.extend(rnd.problems)


def end_to_end(bench: Bench, seconds: float) -> Dict:
    """End-to-end metrics over rounds until ``seconds`` have passed.

    Timings are in reference seconds (see ``hostspeed``), and each is a
    median over identical rounds: the throughput is the median round's,
    and each point's latency is its median over rounds before p50 and
    tail are taken across points.
    """
    tally = Tally(bench.filled())
    if bench.spec.api == "evaluate":
        bench.trace_facts()  # before timing; the checks need them
    rates: List[float] = []
    raw_rates: List[float] = []
    per_point: List[List[float]] = [[] for _ in bench.points]
    start = time.perf_counter()
    while True:
        rnd = bench.round()
        tally.add(rnd, "round %d" % len(rates))
        rates.append(len(bench.points) / rnd.ref_seconds)
        raw_rates.append(len(bench.points) / rnd.seconds)
        for samples, latency, record in zip(per_point, rnd.ref_latencies,
                                            rnd.records):
            if record is not None and latency is not None:
                samples.append(latency)
        if time.perf_counter() - start >= seconds:
            break
    medians = [statistics.median(s) for s in per_point if s]
    pct, tail = _tail(medians) if medians else (100.0, 0.0)
    return {
        "tally": tally,
        "digest": checks.digest(tally.reference),
        "rounds": len(rates),
        "metrics": {
            "points_per_s": statistics.median(rates),
            "point_p50_s": statistics.median(medians) if medians else 0.0,
            "point_tail_s": tail,
            "peak_rss_mb": _peak_rss_mb(),
        },
        "tail_pct": pct,
        "samples": len(medians),
        "host_points_per_s": statistics.median(raw_rates),
        "cpi_mape_pct": (_cpi_mape_pct(tally.first)
                         if bench.spec.api == "evaluate" else None),
    }


def per_layer(bench: Bench, seconds: float) -> Dict:
    """Per-layer metrics: untraced and timed rounds alternate until
    ``seconds`` have passed; validate workloads add one cProfile round
    of the oracle, and the pool workload one timed serial round."""
    tally = Tally(bench.filled())
    bench.trace_facts()  # outside the layer timers
    registry = MetricsRegistry()
    untraced = traced = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        # Alternate which pass goes first, so neither gains from order.
        if rounds % 2:
            with layer_timers(registry):
                timed = bench.round(registry, instrument=True)
            plain = bench.round()
        else:
            plain = bench.round()
            with layer_timers(registry):
                timed = bench.round(registry, instrument=True)
        tally.add(plain, "untraced round %d" % rounds)
        tally.add(timed, "traced round %d" % rounds)
        untraced += plain.seconds
        traced += timed.seconds
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break

    def total(name: str) -> float:
        return registry.counter_value("bench." + name) / rounds

    out: Dict[str, float] = {}
    for layer in LAYERS:
        # The kernel-build layer's published names use "_", not ".".
        sep = "_" if layer == "workloads.build" else "."
        out[layer + sep + "calls"] = total(layer + ".calls")
        out[layer + sep + "s"] = total(layer + ".s")
    out["trace.warp_insts"] = total("trace.warp_insts")
    out["cache_sim.requests"] = total("cache_sim.requests")
    out["interval_profiles.warps"] = total("interval_profiles.warps")
    for name in ("insts", "cycles", "mshr_allocations", "mshr_merges",
                 "dram_requests"):
        out["oracle." + name] = total("oracle." + name)
    out["oracle.kips"] = (out["oracle.insts"] / out["oracle.s"] / 1e3
                          if out["oracle.s"] else 0.0)
    gets = total("store.get.calls")
    out.update({
        "store.gets": gets,
        "store.hits": total("store.hits"),
        "store.hit_ratio": total("store.hits") / gets if gets else 0.0,
        "store.get_s": total("store.get.s"),
        "store.bytes_read": total("store.bytes_read"),
        "store.key_s": total("store.key.s"),
        "store.puts": total("store.put.calls"),
        "store.put_s": total("store.put.s"),
        "tracing_overhead": traced / untraced if untraced else 0.0,
    })

    split = {"shares": {}, "cache_accesses": 0, "core_steps": 0}
    if bench.spec.api == "evaluate" and bench.spec.store != "warm":
        profiler = cProfile.Profile()
        with layer_timers(MetricsRegistry(), profiler=profiler):
            profiled = bench.round(serial=True)
        tally.add(profiled, "profiled round")
        split = oracle_split(profiler)
    for component in ("issue", "cache", "mshr", "dram"):
        out["oracle.%s_s" % component] = (
            split["shares"].get(component, 0.0) * out["oracle.s"])
    out["oracle.cache_accesses"] = split["cache_accesses"]
    out["oracle.core_steps"] = split["core_steps"]

    out["pool.s"] = out["pool.points"] = out["pool.efficiency"] = 0.0
    if bench.spec.jobs > 1:
        serial_registry = MetricsRegistry()
        with layer_timers(serial_registry):
            serial = bench.round(serial_registry, serial=True)
        tally.add(serial, "traced serial round vs jobs=%d" % bench.spec.jobs)
        out["pool.s"] = untraced / rounds
        out["pool.points"] = len(bench.points)
        out["pool.efficiency"] = (
            serial.seconds / (bench.spec.jobs * out["pool.s"]))

    model_s = sum(out[layer + ".s"] for layer in MODEL_LAYERS)
    out["model_vs_oracle_speedup"] = (
        out["oracle.s"] / model_s if model_s and out["oracle.s"] else 0.0)
    out["share.multi_request_mem_insts"] = bench.multi_request_share()
    mape = (_cpi_mape_pct(tally.first)
            if bench.spec.api == "evaluate" else None)
    out["cpi_mape_pct"] = mape or 0.0
    return {
        "tally": tally,
        "digest": checks.digest(tally.reference),
        "rounds": rounds,
        "metrics": out,
        "cpi_mape_pct": mape,
        "registry": registry,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fill-only", action="store_true",
                        help="fill the warm store under --warm-dir, then exit")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--warm-dir",
                        help="warm-replay's store, filled by --fill-only")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=args.workdir)
    try:
        bench = Bench(args.workload, args.seed, workdir,
                      warm_dir=args.warm_dir)
        if args.fill_only:
            bench.fill()
            return 0
        bench.pipeline()
        print(READY + repr(time.time()), flush=True)
        if args.setup_only:
            return 0
        if bench.spec.jobs == 1:
            # Each CPU changes speed on its own (see hostspeed): keep a
            # serial run and its calibration samples on the same one.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        run = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = run["tally"]
    for problem in tally.problems[:20]:
        print("problem: %s" % problem)
    payload = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": run["rounds"],
        "points_per_round": len(bench.points),
        "digest": run["digest"],
        "cpi_mape_pct": run["cpi_mape_pct"],
        "metrics": run["metrics"],
        "tail_pct": run.get("tail_pct"),
        "samples": run.get("samples"),
        "host_points_per_s": run.get("host_points_per_s"),
        "scale": [bench.scale.n_blocks, bench.scale.block_size,
                  bench.scale.iters],
    }
    print(RESULT + json.dumps(payload, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
