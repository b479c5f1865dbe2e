"""Record what the CLI prints for a fixed command set, so two trees can be diffed.

    python tests/cli_outputs.py OUT_DIR [--src SRC]

Runs every command in COMMANDS twice, as text and with ``--json``, through
``python -m nilcolim.cli`` with ``SRC`` (default: this tree's ``src/``) on
PYTHONPATH, one child at a time.  Each run's stdout goes to
``OUT_DIR/<nn>-<command>.txt`` or ``.json``, and its exit code to a line of
``OUT_DIR/exit_codes.txt``.  Run it once per tree and compare with
``diff -r``; the two must be identical.  Wall time and peak RSS of each run
go to stderr only.

The set covers every subcommand, each exit code, a table file, and groups of
order 1025-4096 (tabulated and presented) and past 4096 (keyed).  It leaves
out ``verdict`` on a non-abelian group of order 1025-4096 with no symplectic
sequence: its fallback enumeration outgrows a small machine's memory.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = [
    "info quaternion",
    "info cyclic:5",
    "info alt:7",
    "info sym:7",
    "info sym:16",
    "info gl:2:7",
    "info gl:4:2",
    "info product:(extraspecial:2:5),(cyclic:2)",
    "info 'perm:(1 2 3);(1 2)'",
    "info table:z3.tbl",
    "info table:bad.tbl",
    "info nonsense:1",
    "verdict cyclic:6",
    "verdict product:(cyclic:2),(cyclic:4)",
    "verdict extraspecial:2:2",
    "verdict extraspecial:2:2 --budget 1",
    "verdict extraspecial:2:3",
    "verdict extraspecial:3:2",
    "verdict sym:16 --seed-gl",
    "verdict sym:16",
    "verdict quaternion --limit 2000",
    "verdict sym:3 --limit 2000",
    "verdict sym:4 --limit 2000",
    "verdict table:s3.tbl --limit 2000",
    "verdict sym:7 --budget 1000",
    "n2 sym:3 --limit 2000",
    "n2 extraspecial:2:2",
    "n2 extraspecial:3:1 --limit 3000",
    "n2 quaternion --q 3",
    "n2 gl:3:2 --limit 3000",
    "n2 gl:2:7 --limit 5000",
    "n2 sym:7",
    "n2 sym:16",
    "n2 cyclic:5 --q 1",
    "homology sym:3 --dim 0",
    "homology sym:3 --dim 1",
    "homology extraspecial:2:2 --dim 2",
    "homology extraspecial:2:3 --dim 1",
    "homology quaternion --dim 1 --q 3",
    "homology dihedral:4 --dim 2 --max-simplices 10",
    "homology cyclic:4 --q 1",
    "hom-count sym:6",
    "hom-count alt:7",
    "hom-count gl:2:7",
    "hom-count extraspecial:2:2 --n 3",
    "hom-count dihedral:4 --q 3",
    "hom-count sym:16 --n 0",
    "conjecture extraspecial:2:2 --q 3",
    "conjecture dihedral:8 --q 3 --limit 2000",
    "conjecture sym:3 --q 2 --limit 2000",
    "symplectic find sym:6",
    "symplectic find alt:7",
    "symplectic find extraspecial:3:2",
    "symplectic find extraspecial:2:2 --r 3",
    "symplectic check extraspecial:2:2 --ids 1,2,3,4",
    "symplectic find sym:16 --seed-gl",
    "symplectic check quaternion",
]


def _write_tables(where: Path) -> None:
    """Z3, S3 (permutations of 3 points composed left to right) and a
    non-group, as multiplication-table files."""
    z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    s3 = [[perms.index(tuple(q[p[x]] for x in range(3))) for q in perms] for p in perms]
    for name, rows in [("z3", z3), ("s3", s3), ("bad", [[1, 0], [0, 1]])]:
        body = "\n".join(" ".join(map(str, row)) for row in rows)
        (where / f"{name}.tbl").write_text(f"{len(rows)}\n{body}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = ap.parse_args()
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    _write_tables(out)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    codes = []
    for i, command in enumerate(COMMANDS):
        slug = re.sub(r"[^A-Za-z0-9]+", "_", command).strip("_")
        for extra, ext in [([], "txt"), (["--json"], "json")]:
            argv = [sys.executable, "-m", "nilcolim.cli", *shlex.split(command), *extra]
            start = time.perf_counter()
            with open(out / f"{i:02d}-{slug}.{ext}", "wb") as stdout:
                child = subprocess.Popen(argv, cwd=out, env=env, stdout=stdout,
                                         stderr=subprocess.DEVNULL)
                _, status, usage = os.wait4(child.pid, 0)
            code = child.returncode = os.waitstatus_to_exitcode(status)
            codes.append(f"{code} {command}{' --json' * bool(extra)}\n")
            print(f"{time.perf_counter() - start:7.2f} s {usage.ru_maxrss / 1024:7.1f} MB "
                  f"exit {code}  {command}{' --json' * bool(extra)}", file=sys.stderr)
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
