"""nilcolim benchmark: CLI workloads measured end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``nilcolim`` from
``src/`` and exits 2, printing no result, when that tree is missing.

Load model: a closed loop with one client.  This process starts one
``python -m nilcolim.cli ... --json`` child at a time and waits for it, as a
user runs one CPU-bound verification per process.  At most two processes run
at once: this one and its child.

``--trace 0`` measures end to end with tracing off.  It runs passes over the
workload's requests, each in an order drawn from ``--seed``: the first pass
always, and each further one only while it is expected, from the longest pass
so far, to end within ``--seconds``.  ``wall_s`` and ``cpu_s`` are medians
over passes of the per-pass sums; ``peak_rss_mb`` is the highest
``ru_maxrss`` of any request child.  ``setup_s`` is the median user+sys CPU
time of set-up probes taken before each request of every pass and after the
last pass, so that they sample the whole run rather than one moment of a
machine whose speed drifts.

The speed of a core on a shared machine drifts by up to a half, in phases
from seconds to minutes long, and CPU time drifts with it.  So while a
``--trace 0`` run measures, a thread of this process times a fixed
pure-Python reference loop every SAMPLE_INTERVAL_S (about 3% of the core),
on the one core that this process and its children are pinned to, and every
time the run reports is multiplied by REFERENCE_SECONDS / the mean loop
time: seconds at the speed where the loop takes REFERENCE_SECONDS.  The
unscaled times and the scale are in the run record.

``--trace 1`` runs every request once in-process under perfbench/tracer.py,
traced, and once untraced for the overhead, and reports per-layer self times
and deterministic counts.

Every report is checked field by field (not byte by byte: certificate words
may change) against values taken from the mathematics where a formula exists
and from the seed commit's reports otherwise.  The seed is passed to every
request as ``--seed``; it only moves merge sampling for spans of more than
256 elements, which no request here reaches, so the checked fields do not
depend on it.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed_frac`` (failed /
attempted) is printed above it, and each run's record, with per-request
times and (traced) the spans, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 3  # per probe slot
# The reference loop: pure Python, none of nilcolim, timed by a thread of
# this process every SAMPLE_INTERVAL_S while a run measures.  Times are
# reported at the speed where one loop takes REFERENCE_SECONDS of CPU.
REFERENCE_ITERATIONS = 40_000
REFERENCE_SECONDS = 0.015
SAMPLE_INTERVAL_S = 0.5
REQUEST_TIMEOUT_S = 150
DEFAULT_BUDGET = 10 ** 6  # nilcolim's default symplectic search budget


@dataclass(frozen=True)
class Request:
    """One CLI call and the report fields it must produce."""

    command: tuple[str, ...]
    spec: str
    options: tuple[str, ...] = ()
    exit: int = 0
    expect: dict = field(default_factory=dict)  # dotted report path -> value

    @property
    def argv(self) -> tuple[str, ...]:
        return (*self.command, self.spec, *self.options)

    def label(self) -> str:
        return " ".join(self.argv)


def verdict_request(spec: str, order: int, p: int, *options: str) -> Request:
    """``verdict`` on a group whose symplectic search finds an r = 2 sequence
    with commutator order p: theorem 1 closes at |N2(S)| = |D2(S)| = p^(2r+2)
    and the lemma suite finds |k| = p."""
    return Request(("verdict",), spec, options, 0, {
        "group.order": order,
        "verdict.answer": "NOT_K_PI_1",
        "verdict.certificate.r": 2,
        "theorem1.verdict": "PASS",
        "theorem1.n2_order": p ** 6,
        "theorem1.d2_order": p ** 6,
        "lemmas.k_order": p,
        "lemmas.all_passed": True,
    })


def n2_limit_request(spec: str, order: int, limit: int) -> Request:
    """``n2`` on a group whose colimit does not close within ``limit``."""
    return Request(("n2",), spec, ("--limit", str(limit)), 2, {
        "group.order": order,
        "n2.state": "limit-exceeded",
        "n2.high_water": limit,
        "n2.limit": limit,
    })


SYM6_CLASSES = 11  # partitions of 6

# The "why" of each workload is in BENCHMARK.json.
WORKLOADS: dict[str, tuple[Request, ...]] = {
    # Felsch enumeration closes on a 242-generator, 19684-relator
    # presentation at 729 cosets; sym:16 is the only lazy-permutation path
    "theorem1-closing": (
        verdict_request("extraspecial:3:2", 3 ** 5, 3),
        verdict_request("extraspecial:2:2", 2 ** 5, 2),
        verdict_request("sym:16", math.factorial(16), 2, "--seed-gl"),
    ),
    # a 481x4351 boundary matrix and the 127x8065 abelianized relator
    # matrix of h1_consistency; todd_coxeter never runs
    "homology-snf": (
        Request(("homology",), "extraspecial:2:2", ("--dim", "2"), 0, {
            "group.order": 2 ** 5,
            "homology.rank": 0,
            "homology.torsion": [2] * 11 + [4] * 4,  # seed commit's H_2
        }),
        Request(("homology",), "extraspecial:2:3", ("--dim", "1"), 0, {
            "group.order": 2 ** 7,
            "homology.h1_consistent": True,
        }),
    ),
    # the table grows to the limit: wide (334 columns) and narrow (10);
    # n2 rather than verdict, whose gl:3:2 run is mostly d2 antidiagonal
    "tc-nonclosing": (
        n2_limit_request("gl:3:2", 168, 100_000),
        n2_limit_request("sym:3", 6, 300_000),
    ),
    # keyed multiply through commutators, d2, hom_count's centralizers and
    # an exhausted symplectic DFS; almost no Todd-Coxeter and no SNF
    "group-arithmetic": (
        verdict_request("extraspecial:2:3", 2 ** 7, 2),
        Request(("hom-count",), "sym:6", (), 0, {
            "group.order": 720,
            "group.conjugacy_classes": SYM6_CLASSES,
            "hom_count.count": SYM6_CLASSES * 720,  # classes x |G|
            "hom_count.burnside_agrees": True,
        }),
        Request(("symplectic", "find"), "sym:6", (), 2, {
            "group.order": 720,
            "symplectic.status": "budget-exceeded",  # seed commit's report
            "symplectic.expanded": DEFAULT_BUDGET,
        }),
    ),
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# metric name -> unit, for every metric BENCHMARK.json names; failed_frac is
# printed but reported through the result line's attempted/failed, because a
# metric of the result is never 0
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# per-layer metric -> the end-to-end metric and workload it should move
PER_LAYER_MOVES = {
    "constructions.build_s": "setup_s on all; wall_s on theorem1-closing",
    "groups.self_s": "cpu_s on group-arithmetic",
    "groups.multiply_calls": "cpu_s on group-arithmetic and theorem1-closing",
    "groups.commutator_calls": "cpu_s on group-arithmetic and theorem1-closing",
    "groups.derived_subgroup_s": "wall_s on group-arithmetic",
    "groups.conjugacy_classes_s": "wall_s on group-arithmetic",
    "symplectic.self_s": "wall_s on group-arithmetic",
    "symplectic.find_symplectic_s": "wall_s on group-arithmetic",
    "symplectic.structure_report_s": "wall_s on group-arithmetic",
    "presentations.build_presentation_s": "wall_s on theorem1-closing and homology-snf",
    "presentations.relators": "wall_s on theorem1-closing and homology-snf",
    "coset_enum.todd_coxeter_s": "wall_s on theorem1-closing and tc-nonclosing",
    "coset_enum.cosets_defined": "wall_s on tc-nonclosing and theorem1-closing",
    "coset_enum.live_ratio": "wall_s on tc-nonclosing and theorem1-closing",
    "coset_enum.defs_per_s": "wall_s on tc-nonclosing and theorem1-closing",
    "coset_enum.rss_growth_mb": "peak_rss_mb on tc-nonclosing",
    "colimit.self_s": "wall_s on theorem1-closing and group-arithmetic",
    "colimit.d2_s": "wall_s on group-arithmetic and theorem1-closing",
    "colimit.d2_calls": "wall_s on group-arithmetic and theorem1-closing",
    "colimit.antidiagonal_s": "wall_s on group-arithmetic and theorem1-closing",
    "colimit.theorem1_verify_s": "wall_s on theorem1-closing",
    "colimit.lemma_suite_s": "wall_s on theorem1-closing",
    "colimit.epsilon_kernel_s": "wall_s on theorem1-closing",
    "bar_complex.self_s": "wall_s on homology-snf and group-arithmetic",
    "bar_complex.build_complex_s": "wall_s on homology-snf",
    "bar_complex.hom_count_s": "wall_s on group-arithmetic",
    "bar_complex.simplices": "wall_s on homology-snf",
    "snf.smith_normal_form_s": "wall_s on homology-snf",
    "snf.calls": "wall_s on homology-snf",
    "snf.matrix_cells": "wall_s on homology-snf",
    "cli.other_s": "wall_s on all; should stay near 0",
    "trace.wall_s": "none; layer self times sum to it",
    "trace.overhead_frac": "none; keeps the trace honest",
}

# counts that must repeat exactly from run to run
DETERMINISTIC = (
    "groups.multiply_calls",
    "groups.commutator_calls",
    "presentations.relators",
    "coset_enum.cosets_defined",
    "colimit.d2_calls",
    "bar_complex.simplices",
    "snf.matrix_cells",
)

# layer self times; with cli.other_s they partition trace.wall_s.  In
# presentations, coset_enum and snf one function has all the layer's spans,
# so that function's self time is the layer's.
SELF_TIME_METRICS = {
    "constructions": "constructions.build_s",
    "groups": "groups.self_s",
    "symplectic": "symplectic.self_s",
    "presentations": "presentations.build_presentation_s",
    "coset_enum": "coset_enum.todd_coxeter_s",
    "colimit": "colimit.self_s",
    "bar_complex": "bar_complex.self_s",
    "snf": "snf.smith_normal_form_s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], stdout_path: Path) -> tuple[int, float, resource.struct_rusage]:
    """Run ``cmd`` to its end with stdout in a file.

    Returns (exit code, spawn-to-exit wall seconds, the child's rusage).  A
    child still running after REQUEST_TIMEOUT_S is killed; its exit code is
    then negative.
    """
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def check(req: Request, code: int, stdout: str, seed: int) -> list[str]:
    """Problems with one request's exit code and report; empty when correct."""
    problems = []
    if code != req.exit:
        problems.append(f"exit {code}, want {req.exit}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not a JSON report"]
    for path, want in {"seed": seed, **req.expect}.items():
        got = report
        for key in path.split("."):
            got = got.get(key) if isinstance(got, dict) else None
        if got != want:
            problems.append(f"{path} = {got!r}, want {want!r}")
    return problems


def _cli_cmd(req: Request, seed: int) -> list[str]:
    return [*req.argv, "--seed", str(seed), "--json"]


def _log(row: dict) -> None:
    verdict = "ok" if not row["problems"] else "FAILED: " + "; ".join(row["problems"])
    times = " ".join(
        f"{k} {row[k]:.3f}" for k in ("wall_s", "cpu_s", "rss_mb") if k in row
    )
    print(f"  {row['request']}: exit {row['exit']} {times} {verdict}", flush=True)


def reference_loop(n: int) -> int:
    """Dict updates keyed by small tuples and integer arithmetic, the kind
    of work nilcolim's keyed group multiplication and coset tables do."""
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + i) % 1_000_003
    return acc


class SpeedSampler:
    """Times the reference loop in a thread, for the speed of this core.

    The thread shares the core with the request child, so it times its own
    CPU (``thread_time``), which only counts its own slices; on this kind of
    machine a slow phase lengthens CPU time as much as wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            t0 = time.thread_time()
            reference_loop(REFERENCE_ITERATIONS)
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(SAMPLE_INTERVAL_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """REFERENCE_SECONDS over the mean loop time: the mean, because a
        request's time is its work times the mean time per unit of work."""
        return REFERENCE_SECONDS / statistics.fmean(self.samples)


def measure_setup(requests: tuple[Request, ...], tmp: Path) -> list[float]:
    """User+sys CPU seconds of SETUP_PROBES fresh set-up children.

    CPU rather than wall time: on a shared machine a 0.2 s child's wall time
    also counts its waits for a core, which made the wall samples spread
    three times as wide as the CPU samples of the same probes.
    """
    specs = list(dict.fromkeys(r.spec for r in requests))
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), *specs]
    samples = []
    for _ in range(SETUP_PROBES):
        code, _, usage = spawn(cmd, tmp)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        samples.append(usage.ru_utime + usage.ru_stime)
    return samples


def run_end_to_end(requests, seed: int, seconds: float, tmp: Path):
    """Closed loop: whole passes over ``requests`` that fit in ``seconds``.

    Every time is multiplied by the run's SpeedSampler scale.
    """
    setup = []
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    longest = 0.0
    with SpeedSampler() as sampler:
        while not passes or time.perf_counter() - start + longest <= seconds:
            pass_start = time.perf_counter()
            rows = []
            for req in rng.sample(requests, len(requests)):
                setup += measure_setup(requests, tmp)
                code, wall, usage = spawn(
                    [sys.executable, "-m", "nilcolim.cli", *_cli_cmd(req, seed)], tmp
                )
                rows.append({
                    "request": req.label(),
                    "exit": code,
                    "wall_s": wall,
                    "cpu_s": usage.ru_utime + usage.ru_stime,
                    "rss_mb": usage.ru_maxrss / 1024,
                    "problems": check(req, code, tmp.read_text(), seed),
                })
                _log(rows[-1])
            passes.append(rows)
            longest = max(longest, time.perf_counter() - pass_start)
        setup += measure_setup(requests, tmp)
    scale = sampler.scale()
    rows = [row for p in passes for row in p]
    metrics = {
        "wall_s": scale * statistics.median(sum(r["wall_s"] for r in p) for p in passes),
        "cpu_s": scale * statistics.median(sum(r["cpu_s"] for r in p) for p in passes),
        "peak_rss_mb": max(r["rss_mb"] for r in rows),
        "setup_s": scale * statistics.median(setup),
    }
    record = {"scale": scale, "reference_samples_s": sampler.samples,
              "setup_samples_s": setup, "passes": passes}
    return metrics, rows, record


def run_traced(requests, seed: int, tmp: Path):
    """Each request once untraced and once traced, in-process in a child."""
    rows, traced = [], []
    untraced_wall = 0.0
    for i, req in enumerate(random.Random(seed).sample(requests, len(requests))):
        for mode in ("untraced", "traced"):
            code, _, _ = spawn(
                [sys.executable, str(BENCH / "tracer.py"), str(tmp), str(i), mode,
                 "--", *_cli_cmd(req, seed)],
                Path(os.devnull),
            )
            if code == 0:
                rec = json.loads(tmp.read_text())
                problems = check(req, rec["exit"], rec["stdout"], seed)
            else:
                rec, problems = {"exit": code, "wall_s": math.nan}, [f"tracer exited {code}"]
            rows.append({
                "request": f"{req.label()} [{mode}]",
                "exit": rec["exit"],
                "wall_s": rec["wall_s"],
                "problems": problems,
            })
            _log(rows[-1])
            if code == 0 and mode == "traced":
                traced.append(rec)
            elif code == 0:
                untraced_wall += rec["wall_s"]
    metrics = layer_metrics(traced, untraced_wall)
    spans = [s for rec in traced for s in rec["spans"]]
    return metrics, rows, {"spans": spans, "counts": [rec["counts"] for rec in traced]}


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    """Aggregate the traced requests' spans into the per-layer metrics."""
    layer_self = defaultdict(float)
    fn_self = defaultdict(float)
    calls = defaultdict(int)
    tc_time = 0.0
    attrs = defaultdict(int)
    tc_rss_kb = 0
    wall = outside = 0.0
    for rec in traced:
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        in_spans = 0.0
        for s, cov in zip(spans, covered):
            dur = s["end"] - s["start"]
            layer = s["name"].split(".", 1)[0]
            layer_self[layer] += dur - cov
            fn_self[s["name"]] += dur - cov
            calls[s["name"]] += 1
            if s["parent"] is None:
                in_spans += dur
            if s["name"] == "coset_enum.todd_coxeter":
                tc_time += dur
                tc_rss_kb = max(tc_rss_kb, s["rss_growth_kb"])
            for key in ("high_water", "coset_count", "relators", "simplices", "cells"):
                attrs[key] += s.get(key, 0)
        wall += rec["wall_s"]
        outside += rec["wall_s"] - in_spans
        for key, value in rec["counts"].items():
            attrs[key] += value
    metrics = {name: layer_self[layer] for layer, name in SELF_TIME_METRICS.items()}
    metrics.update({
        "groups.multiply_calls": attrs["multiply_calls"],
        "groups.commutator_calls": attrs["commutator_calls"],
        "groups.derived_subgroup_s": fn_self["groups.derived_subgroup"],
        "groups.conjugacy_classes_s": fn_self["groups.conjugacy_classes"],
        "symplectic.find_symplectic_s": fn_self["symplectic.find_symplectic"],
        "symplectic.structure_report_s": fn_self["symplectic.structure_report"],
        "presentations.build_presentation_s": fn_self["presentations.build_presentation"],
        "presentations.relators": attrs["relators"],
        "coset_enum.todd_coxeter_s": fn_self["coset_enum.todd_coxeter"],
        "coset_enum.cosets_defined": attrs["high_water"],
        "coset_enum.live_ratio": (
            attrs["coset_count"] / attrs["high_water"] if attrs["high_water"] else 0.0),
        "coset_enum.defs_per_s": attrs["high_water"] / tc_time if tc_time else 0.0,
        "coset_enum.rss_growth_mb": tc_rss_kb / 1024,
        "colimit.d2_s": fn_self["colimit.d2"],
        "colimit.d2_calls": calls["colimit.d2"],
        "colimit.antidiagonal_s": fn_self["colimit.d2_antidiagonal_generation"],
        "colimit.theorem1_verify_s": fn_self["colimit.theorem1_verify"],
        "colimit.lemma_suite_s": fn_self["colimit.lemma_suite"],
        "colimit.epsilon_kernel_s": fn_self["colimit.epsilon_kernel"],
        "bar_complex.build_complex_s": fn_self["bar_complex.build_complex"],
        "bar_complex.hom_count_s": fn_self["bar_complex.hom_count"],
        "bar_complex.simplices": attrs["simplices"],
        "snf.smith_normal_form_s": fn_self["snf.smith_normal_form"],
        "snf.calls": calls["snf.smith_normal_form"],
        "snf.matrix_cells": attrs["cells"],
        "cli.other_s": outside,
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / untraced_wall - 1 if untraced_wall else math.nan,
    })
    return {m["name"]: metrics[m["name"]] for m in SPEC["per_layer"]}


def execute(workload: str, requests, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its metrics and the result line, return it."""
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    tmp = OUT / f"{tag}.stdout"
    print(f"{workload} seed {seed} trace {int(trace)}", flush=True)
    if trace:
        metrics, rows, record = run_traced(requests, seed, tmp)
    else:
        metrics, rows, record = run_end_to_end(requests, seed, seconds, tmp)
    tmp.unlink(missing_ok=True)
    failed = sum(1 for r in rows if r["problems"])
    for name, value in metrics.items():
        print(f"{name} = {value} {UNITS[name]}")
    print(f"failed_frac = {failed / len(rows)} ratio")
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "requests": rows,
         **record, "result": result}, indent=1))
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nilcolim" / "cli.py").is_file():
        print(f"error: no nilcolim source tree under {ROOT}", file=sys.stderr)
        return 2
    # one core for this process, its children and the reference loop, so
    # that the scale is measured on the core the requests ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    execute(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
