"""Permutations on 0-based points, plus a stabilizer chain.

``perm:`` specs take their order from ``StabilizerChain``.  Its membership
test ``contains`` is the sift that builds the chain; no command runs it, the
tests do.

Composition convention throughout: ``(s * t)(x) = s(t(x))``; the right
factor acts first.  All cycle-notation I/O uses 1-based points.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(s: Sequence[int], t: Sequence[int]) -> tuple[int, ...]:
    """Product s*t with the right factor acting first: x -> s(t(x))."""
    return tuple(s[t[x]] for x in range(len(s)))


def invert(s: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v] = i
    return tuple(out)


def extend(s: Sequence[int], degree: int) -> tuple[int, ...]:
    """View a permutation on fewer points inside Sym(degree), fixing the rest."""
    if len(s) > degree:
        raise ValueError(f"cannot shrink a permutation on {len(s)} points to degree {degree}")
    return tuple(s) + tuple(range(len(s), degree))


def parse_cycles(text: str, degree: int = 0) -> tuple[int, ...]:
    """Parse cycle notation like ``(1 2 3)(4 5)`` (1-based) into image form.

    ``degree`` sets a minimum number of points; the result always covers the
    largest point mentioned.
    """
    cycles: list[list[int]] = []
    chunk = text.strip()
    if chunk in ("", "()"):
        return identity_perm(degree)
    if not chunk.startswith("("):
        raise ValueError(f"cycle notation must start with '(': {text!r}")
    pos = 0
    maxpt = degree
    while pos < len(chunk):
        if chunk[pos] != "(":
            raise ValueError(f"unexpected character {chunk[pos]!r} in {text!r}")
        end = chunk.find(")", pos)
        if end < 0:
            raise ValueError(f"unbalanced parentheses in {text!r}")
        body = chunk[pos + 1 : end].replace(",", " ").split()
        pts = [int(b) for b in body]
        if any(p < 1 for p in pts):
            raise ValueError(f"cycle points are 1-based, got {pts} in {text!r}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {body} of {text!r}")
        if pts:
            cycles.append(pts)
            maxpt = max(maxpt, max(pts))
        pos = end + 1
        while pos < len(chunk) and chunk[pos].isspace():
            pos += 1
    images = list(range(maxpt))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b - 1
    # disjointness check: each point moved by at most one cycle
    moved: set[int] = set()
    for cyc in cycles:
        for p in cyc:
            if p in moved:
                raise ValueError(f"point {p} appears in two cycles of {text!r}")
            moved.add(p)
    return tuple(images)


def format_cycles(s: Sequence[int]) -> str:
    """Cycle notation with 1-based points; the identity prints as ``()``."""
    seen = [False] * len(s)
    parts = []
    for i in range(len(s)):
        if seen[i] or s[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = s[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = s[j]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


class StabilizerChain:
    """Stabilizer chain for ⟨gens⟩ ≤ Sym(degree), by incremental Schreier–Sims.

    Level i has a base point, strong generators fixing the earlier base
    points, and a transversal mapping each point of the base point's orbit to
    a coset representative that sends the base point there.  Each Schreier
    generator is sifted as soon as it appears, and a residue that does not
    sift becomes a new strong generator (Sims 1970; Holt, Eick & O'Brien,
    *Handbook of Computational Group Theory*, §4.4).  The order is the
    product of the orbit lengths, found without materializing the group.
    Memory is the degree times the summed orbit lengths.
    """

    def __init__(self, gens: Iterable[Sequence[int]], degree: int):
        self.degree = degree
        self._identity = identity_perm(degree)
        self.base: list[int] = []
        self.strong_gens: list[list[tuple[int, ...]]] = []  # per level
        self.transversals: list[dict[int, tuple[int, ...]]] = []
        for g in gens:
            self._add(tuple(g))

    def _sift(self, g: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """Reduce g through the levels: (residue, level it stuck at).

        The level is ``len(self.base)`` when g passes every level; g is in
        the group exactly when the residue is the identity.
        """
        for lvl, (beta, trans) in enumerate(zip(self.base, self.transversals)):
            img = g[beta]
            if img != beta:
                if img not in trans:
                    return g, lvl
                g = compose(invert(trans[img]), g)
        return g, len(self.base)

    def _add(self, g: tuple[int, ...], start: int = 0) -> None:
        """Keep the residue of g, which fixes the base points before
        ``start``, if it does not sift: it becomes a strong generator of
        levels ``start`` through the level where it stuck.  A residue that
        passes every level opens a new last level at the least point it
        moves."""
        h, stuck = self._sift(g)
        if h == self._identity:
            return
        if stuck == len(self.base):
            beta = next(i for i in range(self.degree) if h[i] != i)
            self.base.append(beta)
            self.strong_gens.append([])
            self.transversals.append({beta: self._identity})
        for lvl in range(stuck, start - 1, -1):
            self._extend_level(lvl, h)

    def _extend_level(self, lvl: int, h: tuple[int, ...]) -> None:
        """Add h to the strong generators of ``lvl`` and close its orbit over
        the (point, generator) pairs not yet seen, sending each Schreier
        generator met to the levels below."""
        gens, trans = self.strong_gens[lvl], self.transversals[lvl]
        gens.append(h)
        orbit = list(trans)
        known = len(orbit)
        for i, pt in enumerate(orbit):  # the list grows while it is read
            for g in (gens[-1:] if i < known else gens):
                img, rep = g[pt], compose(g, trans[pt])
                if img not in trans:
                    trans[img] = rep
                    orbit.append(img)
                else:
                    self._add(compose(invert(trans[img]), rep), lvl + 1)

    def order(self) -> int:
        n = 1
        for trans in self.transversals:
            n *= len(trans)
        return n

    def contains(self, g: Sequence[int]) -> bool:
        """Membership by the sift that builds the chain.  No command runs
        it; the tests do."""
        g = tuple(g)
        return len(g) == self.degree and self._sift(g)[0] == self._identity
