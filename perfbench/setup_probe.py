"""Set-up probe: import the CLI and build every named group, then exit.

    python3 perfbench/setup_probe.py SPEC...

The parent times this whole process, from spawn to exit, as one ``setup_s``
sample: interpreter start, ``import nilcolim.cli`` and ``build()`` of each
group a workload names.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nilcolim.cli  # noqa: E402,F401  (the import is part of what is timed)
from nilcolim.constructions import build  # noqa: E402

if __name__ == "__main__":
    for spec in sys.argv[1:]:
        build(spec)
