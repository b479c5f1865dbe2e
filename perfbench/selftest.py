"""Self-test of the benchmark harness on a workload of a few seconds.

    python3 perfbench/selftest.py

It checks that:
- every end-to-end and per-layer metric prints by name with its unit, and
  the result line carries exactly the metrics BENCHMARK.json names;
- a deliberately wrong expected value makes failed_frac > 0, so the
  correctness gate is not vacuous;
- the deterministic counts repeat exactly between two traced runs;
- layer self times plus cli.other_s sum to the traced wall time;
- run.py exits non-zero, printing no result, without a source tree.
Exits 1 and names each failed check, 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import run

MINI = (
    run.verdict_request("extraspecial:2:2", 2 ** 5, 2),
    run.Request(("homology",), "quaternion", ("--dim", "1"), 0, {
        "group.order": 8,
        "homology.torsion": [2, 2, 4],
        "homology.h1_consistent": True,
    }),
)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def execute(requests, trace: bool) -> tuple[str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.execute("selftest", requests, 1, 0, trace)
    return buf.getvalue(), result


def printed_metrics(text: str) -> dict[str, str]:
    """name -> unit of every ``name = number unit`` line."""
    return dict(re.findall(r"^(\S+) = [-+0-9.einf]+ (\S+)$", text, re.M))


def check_run(trace: bool) -> dict:
    text, result = execute(MINI, trace)
    last = json.loads(text.strip().splitlines()[-1])
    printed = printed_metrics(text)
    defined = run.SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in defined}
    kind = "per-layer" if trace else "end-to-end"
    expect(all(printed.get(n) == u for n, u in units.items()),
           f"every {kind} metric prints with its unit")
    expect(printed.get("failed_frac") == "ratio", f"failed_frac prints ({kind} run)")
    expect(set(last) == {"correct", "attempted", "failed", "metrics"},
           f"result line has exactly the four keys ({kind} run)")
    expect({n: m["unit"] for n, m in last["metrics"].items()} == units,
           f"result line carries every {kind} metric and no other")
    expect(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
           f"the mini workload is correct ({kind} run)")
    return result["metrics"]


def main() -> int:
    check_run(False)
    layers = check_run(True)

    parts = [layers[n]["value"] for n in run.SELF_TIME_METRICS.values()]
    wall = layers["trace.wall_s"]["value"]
    expect(abs(sum(parts) + layers["cli.other_s"]["value"] - wall) <= 1e-6 * wall,
           "layer self times plus cli.other_s sum to trace.wall_s")

    _, again = execute(MINI, True)
    expect(all(again["metrics"][n]["value"] == layers[n]["value"] for n in run.DETERMINISTIC),
           "deterministic counts repeat exactly")

    homology = MINI[1]
    wrong = replace(homology, expect={**homology.expect, "homology.torsion": [2, 2, 8]})
    text, result = execute((MINI[0], wrong), False)
    frac = float(re.search(r"^failed_frac = (\S+) ratio$", text, re.M).group(1))
    expect(frac > 0 and not result["correct"] and result["failed"] == 1,
           "a wrong expected value makes failed_frac > 0")

    bare = run.OUT / "selftest-bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tc-nonclosing",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without a source tree run.py exits non-zero and prints no result")

    print("self-test passed" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
