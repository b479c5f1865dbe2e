"""Permutations on 0-based points, plus a small stabilizer-chain engine.

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


def parity(s: Sequence[int]) -> int:
    """0 for even permutations, 1 for odd."""
    seen = [False] * len(s)
    odd = 0
    for i in range(len(s)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = s[j]
            length += 1
        odd ^= (length - 1) & 1
    return odd


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
    """Schreier–Sims stabilizer chain for ⟨gens⟩ ≤ Sym(degree).

    Supports order computation and ambient membership tests without
    materializing the group.  Base points are chosen deterministically as the
    smallest point moved by the current generators.
    """

    def __init__(self, gens: Iterable[Sequence[int]], degree: int):
        self.degree = degree
        self.base: list[int] = []
        self.strong_gens: list[list[tuple[int, ...]]] = []  # per level
        self.transversals: list[dict[int, tuple[int, ...]]] = []
        gens = [tuple(g) for g in gens if any(g[i] != i for i in range(degree))]
        self._build(gens)

    def _orbit_transversal(self, beta: int, gens: list[tuple[int, ...]]):
        trans = {beta: identity_perm(self.degree)}
        queue = [beta]
        for pt in queue:  # the list grows while it is read: an index queue
            rep = trans[pt]
            for g in gens:
                img = g[pt]
                if img not in trans:
                    trans[img] = compose(g, rep)
                    queue.append(img)
        return trans

    def _build(self, gens: list[tuple[int, ...]]):
        level = 0
        cur_gens = list(gens)
        while cur_gens:
            moved = min(
                min((i for i in range(self.degree) if g[i] != i), default=self.degree)
                for g in cur_gens
            )
            self.base.append(moved)
            self.strong_gens.append(list(cur_gens))
            trans = self._orbit_transversal(moved, cur_gens)
            self.transversals.append(trans)
            # Schreier generators for the stabilizer, sifted into the next level
            next_gens: list[tuple[int, ...]] = []
            ident = identity_perm(self.degree)
            for pt in sorted(trans):
                rep = trans[pt]
                for g in cur_gens:
                    img_rep = trans[g[pt]]
                    schreier = compose(invert(img_rep), compose(g, rep))
                    if schreier != ident and schreier not in next_gens:
                        next_gens.append(schreier)
            level += 1
            cur_gens = next_gens
        # One straight pass of Schreier generators per level is not always
        # enough for a strong generating set; verify by sifting and patch.
        self._verify_and_fix(gens)

    def _verify_and_fix(self, gens: list[tuple[int, ...]]):
        # Repeatedly sift all Schreier generators until everything sifts clean.
        changed = True
        guard = 0
        while changed:
            changed = False
            guard += 1
            if guard > 100:
                raise RuntimeError("stabilizer chain failed to stabilize")
            for lvl in range(len(self.base)):
                trans = self.transversals[lvl]
                lvl_gens = self.strong_gens[lvl]
                for pt in sorted(trans):
                    rep = trans[pt]
                    for g in lvl_gens:
                        schreier = compose(
                            invert(trans[g[pt]]), compose(g, rep)
                        )
                        ok, residue, drop = self._sift(schreier, lvl + 1)
                        if not ok:
                            self.strong_gens[drop].append(residue)
                            self.transversals[drop] = self._orbit_transversal(
                                self.base[drop], self.strong_gens[drop]
                            )
                            changed = True
                if changed:
                    break

    def _sift(self, g: tuple[int, ...], start_level: int = 0):
        """Sift g through levels >= start_level.

        Returns (fully_sifted, residue, level_where_stuck_or_new).
        """
        ident = identity_perm(self.degree)
        cur = g
        for lvl in range(start_level, len(self.base)):
            if cur == ident:
                return True, cur, lvl
            beta = self.base[lvl]
            img = cur[beta]
            trans = self.transversals[lvl]
            if img not in trans:
                return False, cur, lvl
            cur = compose(invert(trans[img]), cur)
        if cur == ident:
            return True, cur, len(self.base)
        # residue moves points but no level handles it: needs a new level
        if start_level >= len(self.base):
            moved = min(i for i in range(self.degree) if cur[i] != i)
            self.base.append(moved)
            self.strong_gens.append([])
            self.transversals.append({moved: ident})
            return False, cur, len(self.base) - 1
        return False, cur, len(self.base) - 1

    def order(self) -> int:
        n = 1
        for trans in self.transversals:
            n *= len(trans)
        return n

    def contains(self, g: Sequence[int]) -> bool:
        g = tuple(g)
        if len(g) != self.degree:
            return False
        ident = identity_perm(self.degree)
        cur = g
        for lvl in range(len(self.base)):
            if cur == ident:
                return True
            img = cur[self.base[lvl]]
            trans = self.transversals[lvl]
            if img not in trans:
                return False
            cur = compose(invert(trans[img]), cur)
        return cur == ident
