"""Steadiness check and baseline record for the benchmark.

    python3 perfbench/steady.py [--out FILE]

Runs ``perfbench/run.py --trace 0`` on every workload with seeds 1..RUNS and
``--trace 1`` with seeds 1..TRACE_RUNS, for BENCHMARK.json's run_seconds.
For each end-to-end metric it prints the median and the quartile spread
(q3 - q1) / median, quartiles as ``statistics.quantiles(values, n=4)`` gives
them, next to the metric's bound, and marks spreads above a third of the
bound.  It exits 1 when a run is not correct, a spread exceeds its bound, or
a deterministic count differs between traced runs.

``--out`` writes the medians, quartiles and per-layer medians, the requests,
the per-layer map and the machine as a baseline JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

SPEC = run.SPEC
RUNS = 10
TRACE_RUNS = 2


def invoke(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: {time.perf_counter() - t0:.1f} s, "
          f"correct {result['correct']}", flush=True)
    return result


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def summarize(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    ok = True
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    record = {"machine": machine(), "run_seconds": SPEC["run_seconds"], "runs": RUNS,
              "trace_runs": TRACE_RUNS, "workloads": {},
              "per_layer_moves": run.PER_LAYER_MOVES}
    for workload in why:
        print(workload, flush=True)
        results = [invoke(workload, seed, 0) for seed in range(1, RUNS + 1)]
        traces = [invoke(workload, seed, 1) for seed in range(1, TRACE_RUNS + 1)]
        ok &= all(r["correct"] for r in results + traces)

        e2e = {}
        for m in SPEC["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in results], m["bound"])
            e2e[m["name"]] = s
            flag = ""
            if s["spread"] > m["bound"] / 3:
                flag = "  above bound/3"
            if s["spread"] > m["bound"]:
                flag, ok = "  ABOVE BOUND", False
            print(f"    {m['name']}: median {s['median']:.4f} {m['unit']}, "
                  f"spread {s['spread']:.4f} (bound {m['bound']}){flag}")

        layers = {}
        for m in SPEC["per_layer"]:
            values = [t["metrics"][m["name"]]["value"] for t in traces]
            layers[m["name"]] = statistics.median(values)
            if m["name"] in run.DETERMINISTIC and len(set(values)) > 1:
                print(f"    {m['name']} DRIFTS between traced runs: {values}")
                ok = False
        wall = layers["trace.wall_s"]
        shares = {
            layer: layers[name] / wall for layer, name in run.SELF_TIME_METRICS.items()
        }
        shares["cli.other"] = layers["cli.other_s"] / wall
        print("    self-time shares: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        print(f"    trace overhead {layers['trace.overhead_frac']:.4f}")
        record["workloads"][workload] = {
            "why": why[workload],
            "requests": [r.label() for r in run.WORKLOADS[workload]],
            "end_to_end": e2e,
            "per_layer_median": layers,
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if ok else "NOT STEADY OR NOT CORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
