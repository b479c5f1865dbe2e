"""Felsch-style coset enumeration over the trivial subgroup.

The strategy is deduction-stack driven, with coincidences resolved through a
union-find merge queue (Holt's presentation of the algorithm).  Each
deduction alpha.s = beta is scanned once, from alpha, against every relator
rotation that starts with column s.  The rotations of every relator and of
its inverse are all present, so a rotation starting with s^-1 at beta walks
a cycle already walked from alpha, and a second scan from beta finds
nothing new.  Definitions fill the first empty slot of a coset, trying the
signed generators in the order +1, -1, +2, -2, ..., so runs are
deterministic given the presentation and limit.

As ACE does for involutions, generators a, b > 0 that are each other's only
partner in a relator (a)(b) or (b)(a) share a column pair: a^-1 is traced in
b's column (a's own for (a)(a)) and those relators are dropped.  That pairs every generator of
a colimit presentation; any other generator keeps a formal inverse column.
What is left is overwhelmingly pair relators of length 3, which get a
specialized scan; other lengths use a generic two-ended scan.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Optional

from .presentations import Presentation, Word

DEFAULT_COSET_LIMIT = 10 ** 6

CLOSED = "closed"
LIMIT_EXCEEDED = "limit-exceeded"


class TableNotClosedError(RuntimeError):
    """A word-problem query needs a closed coset table."""


@dataclass
class CosetTable:
    """Result of an enumeration: live rows renumbered 0..coset_count-1.

    ``table[x * width + c]`` is the target coset of x along column c (or -1
    while partial).  Column j-1 carries generator j; ``inverse_column[c]`` is
    the column that undoes column c: the paired generator's column, c itself
    for an involution, or a formal inverse column at index >= k.
    """

    presentation: Presentation
    state: str
    coset_count: int
    high_water: int
    limit: int
    table: list[int] = field(repr=False)
    width: int
    inverse_column: list[int] = field(repr=False)

    @property
    def closed(self) -> bool:
        return self.state == CLOSED

    def column(self, signed_gen: int) -> int:
        j = abs(signed_gen)
        if j < 1 or j > self.presentation.num_generators:
            raise ValueError(f"generator index {signed_gen} out of range")
        return j - 1 if signed_gen > 0 else self.inverse_column[j - 1]

    def trace(self, word: Word, start: int = 0) -> int:
        if not self.closed:
            raise TableNotClosedError(f"cannot trace words in a {self.state} table")
        tab, W = self.table, self.width
        x = start
        for signed in word:
            x = tab[x * W + self.column(signed)]
        return x

    def breadth_first(
        self, gens: Optional[Sequence[int]] = None
    ) -> Iterator[tuple[int, int, int]]:
        """Breadth-first spanning tree from coset 0: yields ``(x, signed, y)``
        for each newly reached coset y = x.signed, trying the signed
        generators ``gens`` in order (default +1, -1, +2, -2, ...)."""
        if not self.closed:
            raise TableNotClosedError(f"cannot traverse a {self.state} table")
        if gens is None:
            k = self.presentation.num_generators
            gens = [s for j in range(1, k + 1) for s in (j, -j)]
        steps = [(s, self.column(s)) for s in gens]
        tab, W = self.table, self.width
        seen = [False] * self.coset_count
        seen[0] = True
        queue = [0]
        for x in queue:  # the list grows while it is read: an index queue
            base = x * W
            for s, c in steps:
                y = tab[base + c]
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
                    yield x, s, y


def trace_word(t: CosetTable, word: Word) -> int:
    """Image of coset 0 under the word; 0 iff the word is the identity."""
    return t.trace(word, 0)


def _inverse_columns(P: Presentation) -> list[int]:
    """The inverse-column map of P's table (see ``CosetTable``).

    Generators a, b > 0 share a column pair when (a)(b) or (b)(a) is a
    relator and each is the other's only such partner.
    """
    k = P.num_generators
    partners: list[set[int]] = [set() for _ in range(k + 1)]
    for w in P.relators:
        if len(w) == 2 and w[0] > 0 and w[1] > 0:
            partners[w[0]].add(w[1])
            partners[w[1]].add(w[0])
    IC = [-1] * k
    for j in range(1, k + 1):
        (p,) = partners[j] if len(partners[j]) == 1 else (0,)
        if p and partners[p] == {j}:
            IC[j - 1] = p - 1
        else:
            IC[j - 1] = len(IC)
            IC.append(j - 1)
    return IC


def todd_coxeter(P: Presentation, limit: int = DEFAULT_COSET_LIMIT) -> CosetTable:
    if limit < 1:
        raise ValueError(f"coset limit must be >= 1, got {limit}")
    k = P.num_generators
    letters = set(range(-k, k + 1)) - {0}
    for w in P.relators:
        if not letters.issuperset(w):
            raise ValueError(f"relator {w} has a letter outside +-1..{k}")
    IC = _inverse_columns(P)
    W = len(IC)
    # columns in definition order: those of +1, -1, +2, -2, ...
    order = list(dict.fromkeys(c for j in range(k) for c in (j, IC[j])))

    def col_of(signed: int) -> int:
        return signed - 1 if signed > 0 else IC[-signed - 1]

    # rotation forms of every relator the pairing leaves, and of its inverse,
    # grouped by first column
    forms: set[tuple[int, ...]] = set()
    for w in P.relators:
        if len(w) == 2 and w[0] > 0 and IC[w[0] - 1] == w[1] - 1:
            continue
        cols = tuple(col_of(x) for x in w)
        inv = tuple(IC[c] for c in reversed(cols))
        for word in (cols, inv):
            for shift in range(len(word)):
                forms.add(word[shift:] + word[:shift])
    rot3: list[list[int]] = [[] for _ in range(W)]  # (s, u, v) -> u, v interleaved
    rot_other: list[list[tuple[int, ...]]] = [[] for _ in range(W)]
    for f in sorted(forms):
        if len(f) == 3:
            rot3[f[0]].extend((f[1], f[2]))
        else:
            rot_other[f[0]].append(f)

    tab: list[int] = []
    parent: list[int] = []
    dead = 0
    ded: list[int] = []  # deduction stack of alpha * W + s

    def rep(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_coset() -> int:
        parent.append(len(parent))
        tab.extend([-1] * W)
        return len(parent) - 1

    def coincidence(a: int, b: int):
        nonlocal dead
        queue: list[int] = []
        qi = 0

        def merge(x: int, y: int):
            nonlocal dead
            x, y = rep(x), rep(y)
            if x == y:
                return
            if x > y:
                x, y = y, x
            parent[y] = x
            dead += 1
            queue.append(y)

        merge(a, b)
        while qi < len(queue):
            g = queue[qi]
            qi += 1
            base = g * W
            for x in range(W):
                d = tab[base + x]
                if d == -1:
                    continue
                tab[base + x] = -1
                tab[d * W + IC[x]] = -1
                mu = rep(g)
                nu = rep(d)
                xi = tab[mu * W + x]
                if xi != -1:
                    merge(nu, xi)
                else:
                    ze = tab[nu * W + IC[x]]
                    if ze != -1:
                        merge(mu, ze)
                    else:
                        tab[mu * W + x] = nu
                        tab[nu * W + IC[x]] = mu
                        ded.append(mu * W + x)

    def scan_generic(start: int, w: tuple[int, ...]):
        L = len(w)
        f = start
        i = 0
        while i < L:
            nxt = tab[f * W + w[i]]
            if nxt == -1:
                break
            f = nxt
            i += 1
        if i == L:
            if f != start:
                coincidence(f, start)
            return
        b = start
        j = L - 1
        while j >= i:
            prv = tab[b * W + IC[w[j]]]
            if prv == -1:
                break
            b = prv
            j -= 1
        if j < i:
            coincidence(f, b)
        elif j == i:
            mate = tab[b * W + IC[w[i]]]
            if mate == -1:
                tab[f * W + w[i]] = b
                tab[b * W + IC[w[i]]] = f
                ded.append(f * W + w[i])
            elif mate != f:
                coincidence(f, mate)

    def scan_edge(alpha: int, s: int, beta: int):
        """Scan the deduction alpha.s = beta against every form starting with s.

        One scan per deduction is enough: the forms are closed under rotation
        and inversion, so a form starting with IC[s] at beta walks the same
        cycle, in reverse, as a form starting with s at alpha.  Only a
        coincidence can kill alpha or move the edge (a definition fills -1
        slots only), so the scan bails out after one when either happened;
        re-homed edges are re-pushed by the merge queue.
        """
        abase = alpha * W
        bbase = beta * W
        edge_slot = abase + s
        pairs = rot3[s]
        for idx in range(0, len(pairs), 2):
            u = pairs[idx]
            v = pairs[idx + 1]
            z = tab[bbase + u]
            if z != -1:
                zslot = z * W + v
                w0 = tab[zslot]
                if w0 == alpha:
                    continue
                if w0 != -1:
                    coincidence(w0, alpha)
                elif (m := tab[abase + IC[v]]) != -1:
                    coincidence(z, m)  # m != z: paired slots are written together
                else:
                    tab[zslot] = alpha
                    tab[abase + IC[v]] = z
                    ded.append(zslot)
                    continue
            else:
                t0 = tab[abase + IC[v]]
                if t0 == -1:
                    continue
                m = tab[t0 * W + IC[u]]
                if m != -1:
                    coincidence(beta, m)  # m != beta, likewise
                else:
                    tab[bbase + u] = t0
                    tab[t0 * W + IC[u]] = beta
                    ded.append(bbase + u)
                    continue
            if parent[alpha] != alpha or tab[edge_slot] != beta:
                return
        for w in rot_other[s]:
            scan_generic(alpha, w)
            if parent[alpha] != alpha or tab[edge_slot] != beta:
                return

    def process_deductions():
        while ded:
            slot = ded.pop()
            alpha, s = divmod(slot, W)
            beta = tab[slot]
            if beta != -1 and parent[alpha] == alpha:
                scan_edge(alpha, s, beta)

    new_coset()
    exceeded = False
    restart = 0
    while not exceeded:
        alpha = restart
        while alpha < len(parent) and not exceeded:
            if parent[alpha] != alpha:
                alpha += 1
                continue
            abase = alpha * W
            i = 0
            while i < W:
                if parent[alpha] != alpha:
                    break
                s = order[i]
                if tab[abase + s] == -1:
                    if len(parent) >= limit:
                        exceeded = True
                        break
                    beta = new_coset()
                    tab[abase + s] = beta
                    tab[beta * W + IC[s]] = alpha
                    ded.append(abase + s)
                    process_deductions()
                else:
                    i += 1
            alpha += 1
        if exceeded:
            break
        # coincidences can transiently erase slots in rows already passed;
        # rescan until a full pass finds every live row complete
        restart = next((x for x in range(len(parent)) if parent[x] == x
                        and -1 in tab[x * W : (x + 1) * W]), None)
        if restart is None:
            break

    # compress live rows in place, keeping their relative order (0 stays 0)
    high_water = len(parent)
    live = [x for x in range(high_water) if parent[x] == x]
    if dead:
        renum = [-1] * (high_water + 1)  # renum[-1] keeps empty slots empty
        for new, old in enumerate(live):
            renum[old] = new
        for new, old in enumerate(live):
            tab[new * W : (new + 1) * W] = map(
                renum.__getitem__, tab[old * W : (old + 1) * W]
            )
        del tab[len(live) * W :]
    return CosetTable(
        presentation=P,
        state=LIMIT_EXCEEDED if exceeded else CLOSED,
        coset_count=len(live),
        high_water=high_water,
        limit=limit,
        table=tab,
        width=W,
        inverse_column=IC,
    )
