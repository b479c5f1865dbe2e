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
b's column (a's own for (a)(a)) and those relators are dropped.  That pairs
every generator of a colimit presentation; any other generator keeps a formal
inverse column.  What is left is overwhelmingly pair relators of length 3,
whose cells are gathered per column with ``itemgetter`` from the table's
``array('i')`` rows (see ``scan_edge``); other lengths use a generic
two-ended scan.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter, ne
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

    ``rows[x][c]`` is the target coset of x along column c (or -1 while
    partial); each row is an ``array('i')`` of ``width`` cells.  Column j-1
    carries generator j; ``inverse_column[c]`` is the column that undoes
    column c: the paired generator's column, c itself for an involution, or
    a formal inverse column at index >= k.  Cells are paired: every filled
    x.c = y has y.inverse_column[c] = x, in partial tables too.
    """

    presentation: Presentation
    state: str
    coset_count: int
    high_water: int
    limit: int
    rows: list[array] = field(repr=False)
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
        x = start
        for signed in word:
            x = self.rows[x][self.column(signed)]
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
        rows = self.rows
        seen = [False] * self.coset_count
        seen[0] = True
        queue = [0]
        for x in queue:  # the list grows while it is read: an index queue
            row = rows[x]
            for s, c in steps:
                y = row[c]
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

    # rotation forms of each relator the pairing leaves and of its inverse
    col_of = [0, *range(k), *IC[k - 1 :: -1]]  # letter +-j at index +-j
    forms: set[tuple[int, ...]] = set()
    for w in P.relators:
        cols = tuple(map(col_of.__getitem__, w))
        if len(w) == 2 and w[0] > 0 and IC[w[0] - 1] == w[1] - 1:
            continue
        inv = tuple(map(IC.__getitem__, reversed(cols)))
        for word in (cols, inv):
            for shift in range(len(word)):
                forms.add(word[shift:] + word[:shift])
    # per first column s: the forms (s, u, v) of length 3 as gathers over
    # rows[beta] at u and over rows[alpha] at IC[v]; other lengths as words
    U: list[list[int]] = [[] for _ in range(W)]
    T: list[list[int]] = [[] for _ in range(W)]
    rot_other: list[list[tuple[int, ...]]] = [[] for _ in range(W)]
    for f in sorted(forms):
        if len(f) == 3:
            U[f[0]].append(f[1])
            T[f[0]].append(IC[f[2]])
        else:
            rot_other[f[0]].append(f)
    # itemgetter returns a bare item for one index, so the first index is
    # gathered twice (readers stop at len(U[s])); no index gathers row[:0]
    gather_u = [itemgetter(*u, u[0]) if u else itemgetter(slice(0)) for u in U]
    gather_t = [itemgetter(*t, t[0]) if t else itemgetter(slice(0)) for t in T]

    blank = array("i", [-1]) * W
    rows = [blank[:]]
    parent = [0]
    ded: list[int] = []  # deduction stack of alpha * W + s

    def rep(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def coincidence(a: int, b: int):
        queue: list[int] = []
        qi = 0

        def merge(x: int, y: int):
            x, y = rep(x), rep(y)
            if x == y:
                return
            if x > y:
                x, y = y, x
            parent[y] = x
            queue.append(y)

        merge(a, b)
        while qi < len(queue):
            g = queue[qi]
            qi += 1
            rg = rows[g]
            for x in range(W):
                d = rg[x]
                if d == -1:
                    continue
                rg[x] = -1
                rows[d][IC[x]] = -1
                mu = rep(g)
                nu = rep(d)
                xi = rows[mu][x]
                if xi != -1:
                    merge(nu, xi)
                else:
                    ze = rows[nu][IC[x]]
                    if ze != -1:
                        merge(mu, ze)
                    else:
                        rows[mu][x] = nu
                        rows[nu][IC[x]] = mu
                        ded.append(mu * W + x)

    def scan_generic(start: int, w: tuple[int, ...]):
        L = len(w)
        f = start
        i = 0
        while i < L:
            nxt = rows[f][w[i]]
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
            prv = rows[b][IC[w[j]]]
            if prv == -1:
                break
            b = prv
            j -= 1
        if j < i:
            coincidence(f, b)
        elif j == i:
            mate = rows[b][IC[w[i]]]
            if mate == -1:
                rows[f][w[i]] = b
                rows[b][IC[w[i]]] = f
                ded.append(f * W + w[i])
            elif mate != f:
                coincidence(f, mate)

    def scan_edge(alpha: int, s: int, beta: int):
        """Scan the deduction alpha.s = beta against every form starting with s.

        One scan per deduction is enough: the forms are closed under rotation
        and inversion, so a form starting with IC[s] at beta walks the same
        cycle, in reverse, as a form starting with s at alpha.  A form
        (s, u, v) gives nothing exactly when z = beta.u equals t = alpha.IC[v]:
        paired cells are written together, so z.v = alpha iff t = z.  Only
        forms whose cells differ at the gather are visited (one that a fill
        here makes fillable is met again by the scan of that fill).  Only a
        coincidence can kill alpha or move the edge, so the scan bails out
        after one; re-homed edges are re-pushed by the merge queue.
        """
        ra = rows[alpha]
        rb = rows[beta]
        zs = gather_u[s](rb)
        ts = gather_t[s](ra)
        if zs != ts:
            for i in compress(range(len(U[s])), map(ne, zs, ts)):
                u, tv = U[s][i], T[s][i]
                z, t = rb[u], ra[tv]  # re-read: an earlier fill may have set them
                if z == t:
                    continue
                if z != -1:
                    v = IC[tv]
                    rz = rows[z]
                    if (w0 := rz[v]) != -1:
                        coincidence(w0, alpha)
                    elif t != -1:
                        coincidence(z, t)
                    else:
                        rz[v] = alpha
                        ra[tv] = z
                        ded.append(z * W + v)
                        continue
                else:
                    rt = rows[t]
                    m = rt[IC[u]]
                    if m != -1:
                        coincidence(beta, m)
                    else:
                        rb[u] = t
                        rt[IC[u]] = beta
                        ded.append(beta * W + u)
                        continue
                if parent[alpha] != alpha or ra[s] != beta:
                    return
        for w in rot_other[s]:
            scan_generic(alpha, w)
            if parent[alpha] != alpha or ra[s] != beta:
                return

    exceeded = False
    restart = 0
    while not exceeded:
        alpha = restart
        while alpha < len(rows) and not exceeded:
            if parent[alpha] != alpha:
                alpha += 1
                continue
            row = rows[alpha]
            i = 0
            while i < W:
                if parent[alpha] != alpha:
                    break
                s = order[i]
                if row[s] == -1:
                    beta = len(rows)
                    if beta >= limit:
                        exceeded = True
                        break
                    parent.append(beta)
                    rows.append(blank[:])
                    row[s] = beta
                    rows[beta][IC[s]] = alpha
                    scan_edge(alpha, s, beta)
                    while ded:
                        a, c = divmod(ded.pop(), W)
                        b = rows[a][c]
                        if b != -1 and parent[a] == a:
                            scan_edge(a, c, b)
                else:
                    i += 1
            alpha += 1
        if exceeded:
            break
        # coincidences can transiently erase slots in rows already passed;
        # rescan until a full pass finds every live row complete
        restart = next((x for x in range(len(rows)) if parent[x] == x
                        and -1 in rows[x]), None)
        if restart is None:
            break

    # compress live rows in place, keeping their relative order (0 stays 0)
    high_water = len(parent)
    live = [x for x in range(high_water) if parent[x] == x]
    if len(live) < high_water:
        renum = [-1] * (high_water + 1)  # renum[-1] keeps empty slots empty
        for new, old in enumerate(live):
            renum[old] = new
        for new, old in enumerate(live):
            rows[new] = array("i", map(renum.__getitem__, rows[old]))
        del rows[len(live) :]
    return CosetTable(
        presentation=P,
        state=LIMIT_EXCEEDED if exceeded else CLOSED,
        coset_count=len(live),
        high_water=high_water,
        limit=limit,
        rows=rows,
        width=W,
        inverse_column=IC,
    )
