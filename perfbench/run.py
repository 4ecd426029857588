"""GPUMech reproduction benchmark: one command, one workload, one seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload validate-divergent --seed 1 \
        --seconds 15 --trace 0

Workloads and metrics are listed in ``BENCHMARK.json``; what each
per-layer metric should move, and on which workload, is in
``perfbench/README.md``.  The program is imported from ``src/``.

Each run starts a fresh interpreter (``measure.py``) for the workload,
so set-up time and peak memory are per run.  Set-up time is the median
of three cold starts: two that stop once set up, and the run itself.
``warm-replay``'s store is filled first, by a child of its own.
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Human-
readable lines come before it.  The exit code is non-zero, and no
result line is printed, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench-tmp")
#: Every child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0
SETUP_PROBES = 2
#: Workloads that replay against a store filled beforehand.  The fill
#: runs in a process of its own, so that neither the measured run's
#: peak RSS nor its set-up includes it.
FILLED_STORE = ("warm-replay",)
READY = "PERFBENCH_READY "
RESULT = "PERFBENCH_RESULT "

class BenchError(RuntimeError):
    pass


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _measure(args, extra: List[str], python_flags: Tuple[str, ...] = (),
             ready: bool = True) -> Tuple[float, List[str], str]:
    """Run ``measure.py``; returns (set-up seconds, stdout lines, stderr).

    Set-up is the wall-clock time from launch until the child reports
    itself ready (the child stamps that moment with ``time.time()``).
    A child started with ``ready=False`` reports no set-up (0.0).
    """
    command = [sys.executable, *python_flags,
               os.path.join(HERE, "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", WORKDIR, *extra]
    if args.warm_dir:
        command += ["--warm-dir", args.warm_dir]
    launched = time.time()
    proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("measure.py exceeded %.0f s" % CHILD_TIMEOUT_S)
    lines = stdout.splitlines()
    stamps = [l for l in lines if l.startswith(READY)]
    if proc.returncode != 0 or (ready and not stamps):
        raise BenchError("measure.py exited with code %s:\n%s"
                         % (proc.returncode, stderr[-4000:]))
    setup = float(stamps[0][len(READY):]) - launched if ready else 0.0
    return setup, [l for l in lines if not l.startswith(READY)], stderr


def _import_times(args) -> Dict[str, float]:
    """``import repro.cli`` and all of scipy, from ``-X importtime``."""
    _, _, stderr = _measure(args, ["--setup-only"], ("-X", "importtime"))
    cli = scipy = 0.0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)",
                     line)
        if not m:
            continue
        own, cumulative, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "repro.cli":
            cli = cumulative / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += own / 1e6
    return {"import.cli_s": cli, "import.scipy_s": scipy}


def _report(args, setups: List[float], payload: Dict) -> None:
    m = payload["metrics"]
    print("workload %s seed %d: %d rounds x %d points, scale %s, digest %s"
          % (args.workload, args.seed, payload["rounds"],
             payload["points_per_round"], payload["scale"],
             payload["digest"]))
    attempted, failed = payload["attempted"], payload["failed"]
    print("  failed_frac        %.4f  (%d of %d attempted)"
          % (failed / attempted if attempted else 1.0, failed, attempted))
    if payload["cpi_mape_pct"] is not None:
        print("  cpi_mape_pct       %.3f %%  (GPUMech mt_mshr_band vs oracle)"
              % payload["cpi_mape_pct"])
    if args.trace:
        if m["oracle.s"]:
            print("  model_vs_oracle_speedup %.2fx  (Sec. VI-D; error beside"
                  " it: cpi_mape_pct above)" % m["model_vs_oracle_speedup"])
        print("  shares: multi-request memory insts %.3f, store hits %.3f"
              % (m["share.multi_request_mem_insts"], m["store.hit_ratio"]))
        print("  tracing_overhead   %.3f" % m["tracing_overhead"])
        return
    print("  setup_s            %.4f  (median of %s)"
          % (statistics.median(setups),
             ", ".join("%.3f" % s for s in setups)))
    print("  points_per_s       %.3f  (host seconds: %.3f)"
          % (m["points_per_s"], payload["host_points_per_s"]))
    print("  point_p50_s        %.5f" % m["point_p50_s"])
    print("  point_tail_s       %.5f  (p%.1f of %d points, each a median"
          " over rounds)"
          % (m["point_tail_s"], payload["tail_pct"], payload["samples"]))
    print("  peak_rss_mb        %.1f" % m["peak_rss_mb"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="GPUMech reproduction benchmark (see BENCHMARK.json)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("perfbench: no program sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    args.warm_dir = None
    try:
        if args.workload in FILLED_STORE:
            os.makedirs(WORKDIR, exist_ok=True)
            args.warm_dir = tempfile.mkdtemp(prefix="warm-", dir=WORKDIR)
            _measure(args, ["--fill-only"], ready=False)
        setups = [_measure(args, ["--setup-only"])[0]
                  for _ in range(SETUP_PROBES)]
        ready, lines, _ = _measure(args, [])
        setups.append(ready)
        imports = _import_times(args) if args.trace else {}
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if args.warm_dir:
            shutil.rmtree(args.warm_dir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    results = [l for l in lines if l.startswith(RESULT)]
    if not results:
        print("perfbench: measure.py printed no result", file=sys.stderr)
        return 1
    for line in lines:
        if not line.startswith(RESULT):
            print(line)
    payload = json.loads(results[-1][len(RESULT):])
    _report(args, setups, payload)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    values = dict(payload["metrics"], **imports)
    values["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({
        "correct": payload["correct"],
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
