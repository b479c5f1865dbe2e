"""Run one nilcolim CLI request in this process, with or without layer spans.

    python3 perfbench/tracer.py OUT.json REQUEST_ID traced|untraced -- CLI_ARGV...

The traced mode wraps, from outside, every public function of each nilcolim
layer module and rebinds the wrapper in every nilcolim namespace that holds
the function: ``from .coset_enum import todd_coxeter`` copies the reference,
so patching ``coset_enum`` alone would miss the calls from ``colimit`` and
``cli``.  Each call of a wrapped function records one span (name, start, end,
parent, request id) in memory; the spans are written to OUT.json at exit.

Per-element operations get no span, because a span costs more than the call
(``verdict extraspecial:3:2`` makes 355 k commutator calls): the keyed
``FiniteGroup.multiply`` and ``groups.commutator`` are only counted, and the
permutation and word helpers are left alone, so their time stays in the
caller's self time.

The untraced mode runs the same request with no patching, so the parent can
report the tracing overhead as traced wall / untraced wall - 1.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nilcolim.cli as cli  # noqa: E402  (needs the path above)
from nilcolim.groups import FiniteGroup  # noqa: E402

LAYERS = (
    "constructions",
    "groups",
    "symplectic",
    "presentations",
    "coset_enum",
    "colimit",
    "bar_complex",
    "snf",
)

# per-element helpers: called up to a million times per request, no span
UNSPANNED = {
    "groups.commutator",  # counted below
    "presentations.word_for_element",
    "presentations.inverse_word",
    "presentations.concat_words",
    "presentations.power_word",
    "presentations.commutator_word",
    "coset_enum.trace_word",
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _attrs(name: str, args: tuple, result) -> dict:
    """Deterministic sizes read off a call's arguments or result."""
    if name == "coset_enum.todd_coxeter":
        return {"high_water": result.high_water, "coset_count": result.coset_count}
    if name == "presentations.build_presentation":
        return {"relators": len(result.relators)}
    if name == "bar_complex.build_complex":
        return {"simplices": sum(len(b) for b in result.bases)}
    if name == "snf.smith_normal_form":
        rows = args[0]
        return {"cells": len(rows) * (len(rows[0]) if rows else 0)}
    return {}


class Tracer:
    """Span recorder for one request; ``install`` patches the nilcolim modules."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list = []
        self._stack: list[int] = []
        self._multiply_calls = itertools.count()
        self._commutator_calls = itertools.count()

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            rss0 = _maxrss_kb()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = {
                    "name": name,
                    "start": t0,
                    "end": t1,
                    "parent": parent,
                    "request": self.request_id,
                    "rss_growth_kb": _maxrss_kb() - rss0,
                    **(_attrs(name, args, result) if result is not None else {}),
                }

        return wrapper

    def install(self) -> None:
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"nilcolim.{layer}")
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and f"{layer}.{attr}" not in UNSPANNED
                ):
                    replace[fn] = self._span_wrapper(f"{layer}.{attr}", fn)

        commutator = importlib.import_module("nilcolim.groups").commutator
        count_comm = self._commutator_calls

        def counted_commutator(G, g, h):
            next(count_comm)
            return commutator(G, g, h)

        replace[commutator] = counted_commutator
        for name, mod in list(sys.modules.items()):
            if name == "nilcolim" or name.startswith("nilcolim."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in replace:
                        setattr(mod, attr, replace[value])

        multiply = FiniteGroup.multiply
        count_mul = self._multiply_calls

        def counted_multiply(self_, a, b):
            next(count_mul)
            return multiply(self_, a, b)

        FiniteGroup.multiply = counted_multiply

    def counts(self) -> dict:
        # next() on an itertools.count returns the number of earlier calls
        return {
            "multiply_calls": next(self._multiply_calls),
            "commutator_calls": next(self._commutator_calls),
        }


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] not in ("traced", "untraced") or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    out_path, request_id, mode, cli_argv = argv[0], argv[1], argv[2], argv[4:]
    tracer = Tracer(request_id)
    if mode == "traced":
        tracer.install()
    stdout = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(cli_argv)
    wall = time.perf_counter() - t0
    record = {
        "request": request_id,
        "argv": cli_argv,
        "mode": mode,
        "exit": code,
        "wall_s": wall,
        "stdout": stdout.getvalue(),
        "counts": tracer.counts() if mode == "traced" else {},
        "spans": tracer.spans,
    }
    Path(out_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
