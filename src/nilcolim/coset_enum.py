"""Felsch-style coset enumeration over the trivial subgroup.

The strategy is deduction-stack driven, with coincidences resolved through a
union-find merge queue (Holt's presentation of the algorithm).  Each
deduction alpha.s = beta is scanned once, from alpha, against every relator
rotation (form) that starts with column s: the forms of every relator and of
its inverse are all present, so a scan from beta would walk the same cycles.
Definitions fill the first empty slot of a coset, trying the signed
generators in the order +1, -1, +2, -2, ..., so runs are deterministic.

As ACE does for involutions, generators a, b > 0 that are each other's only
partner in a relator (a)(b) or (b)(a) share a column pair and those relators
are dropped; any other generator keeps a formal inverse column.  Forms of
length 3 are gathered per column with one ``struct`` read a side (see
``scan_edge``); other lengths use a generic two-ended scan.  A colimit
presentation pairs each g with g^-1, and its forms are exactly the words
(a)(b)(ab)^-1 over a, b != 1 with ab != 1 and b in ``partners(G, a, q)``, as
it keeps one relator of each rotation-and-inversion class: they are read off
the Cayley table, not off the relators.  The table is one flat
``array('i')``, W cells a coset, so cell alpha * W + s is the edge alpha.s;
merged cosets are flagged in a ``bytearray`` and forwarded by a dict.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterator
from itertools import compress, count, groupby
from operator import itemgetter, ne
from struct import Struct
from typing import NamedTuple

from .budgets import DEFAULT_COSET_LIMIT
from .groups import FiniteGroup, partners
from .presentations import ColimitPresentation, Presentation, Word

CLOSED = "closed"
LIMIT_EXCEEDED = "limit-exceeded"
_CELL = array("i").itemsize  # bytes a cell


class TableNotClosedError(RuntimeError):
    """A word-problem query needs a closed coset table."""


class CosetTable(NamedTuple):
    """Result of an enumeration: live cosets renumbered 0..coset_count-1.

    ``cells[x * width + c]``, in one ``array('i')``, is the target coset of x
    along column c (or -1 while partial).  Column j-1 carries generator j;
    ``inverse_column[c]`` is the column that undoes column c: the paired
    generator's column, c itself for an involution, or a formal inverse column
    at index >= k.  Cells are paired: every filled x.c = y has
    y.inverse_column[c] = x, in partial tables too.
    """

    presentation: Presentation
    state: str
    coset_count: int
    high_water: int
    limit: int
    cells: array
    width: int
    inverse_column: list[int]

    def __repr__(self):
        return f"CosetTable({self.state}, {self.coset_count} cosets, high water {self.high_water})"

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
        x, W = start, self.width
        for signed in word:
            x = self.cells[x * W + self.column(signed)]
        return x

    def breadth_first(self) -> Iterator[tuple[int, int, int]]:
        """Breadth-first spanning tree from coset 0: yields ``(x, signed, y)``
        for each newly reached coset y = x.signed, trying the signed
        generators in the order +1, -1, +2, -2, ..."""
        if not self.closed:
            raise TableNotClosedError(f"cannot traverse a {self.state} table")
        k = self.presentation.num_generators
        steps = [(s, self.column(s)) for j in range(1, k + 1) for s in (j, -j)]
        cells, W = self.cells, self.width
        seen = [False] * self.coset_count
        seen[0] = True
        queue = [0]
        for x in queue:  # the list grows while it is read: an index queue
            xW = x * W
            for s, c in steps:
                y = cells[xW + c]
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
                    yield x, s, y


def trace_word(t: CosetTable, word: Word) -> int:
    """Image of coset 0 under the word; 0 iff the word is the identity."""
    return t.trace(word, 0)


def _gather(positions: list[int]):
    """``(read, order)``: ``read(cells, byte offset of a row)`` unpacks the row's
    distinct ``positions`` in sorted order, a run of adjacent cells as one ``Ni``
    code; ``order`` maps them to ``positions``' order, None where that is sorted."""
    distinct = sorted(set(positions))
    fmt, end = [], 0
    for _, run in groupby(enumerate(distinct), lambda ip: ip[1] - ip[0]):
        run = [p for _, p in run]
        fmt.append(f"{(run[0] - end) * _CELL}x{len(run)}i")
        end = run[-1] + 1
    at = {p: i for i, p in enumerate(distinct)}.__getitem__
    order = itemgetter(*map(at, positions)) if distinct != list(positions) else None
    return Struct("".join(fmt)).unpack_from, order


def _relator_forms(P: Presentation):
    """``(IC, U, T, other)``: the inverse-column map (see ``CosetTable``) and,
    per first column s, the sorted forms (s, u, v) of the relators left after
    pairing generators a, b > 0 that are each other's only partner in a relator
    (a)(b) or (b)(a): U[s] = [u, ...], T[s] = [IC[v], ...], other lengths as words."""
    k = P.num_generators
    letters = set(range(-k, k + 1)) - {0}
    partners: list[set[int]] = [set() for _ in range(k + 1)]
    for w in P.relators:
        if not letters.issuperset(w):
            raise ValueError(f"relator {w} has a letter outside +-1..{k}")
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
    W = len(IC)
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
    U, T, other = ([[] for _ in range(W)] for _ in range(3))
    for f in sorted(forms):
        if len(f) == 3:
            U[f[0]].append(f[1])
            T[f[0]].append(IC[f[2]])
        else:
            other[f[0]].append(f)
    return IC, U, T, other


def _table_forms(G: FiniteGroup, q: int):
    """``_relator_forms`` of G's colimit presentation at q, off G's table.
    Id b heads column b - 1, paired with b^-1's, and the other forms are the
    words abc = 1 over non-identity a, b, c with b in ``partners(G, a, q)``: at
    column a - 1, U holds b - 1 and T holds ab - 1, in increasing b."""
    cols, inv = G.cayley_columns(), G._inv  # cols[b][a] == a * b
    U, T = [], []
    for a in range(1, G.order):
        bs = partners(G, a, q)  # 1 first
        i = bisect_left(bs, inv[a])
        bs = bs[1:i] + bs[i + 1 :]  # less 1 and a^-1
        U.append(array("i", [b - 1 for b in bs]))
        T.append(array("i", [cols[b][a] - 1 for b in bs]))
    return [b - 1 for b in inv[1:]], U, T, [()] * (G.order - 1)


def todd_coxeter(P: Presentation, limit: int = DEFAULT_COSET_LIMIT) -> CosetTable:
    if limit < 1:
        raise ValueError(f"coset limit must be >= 1, got {limit}")
    colimit = isinstance(P, ColimitPresentation)
    IC, U, T, other = _table_forms(P.group, P.q) if colimit else _relator_forms(P)
    W = len(IC)
    # columns in definition order: those of +1, -1, +2, -2, ...
    order = list(dict.fromkeys(c for j in range(P.num_generators) for c in (j, IC[j])))
    # per first column s: its length-3 forms as struct gathers, the rest as
    # words; None for a column with no forms, whose scan could change nothing
    plan = [(*_gather(u), *_gather(t), u, t, r) if u or r else None
            for u, t, r in zip(U, T, other)]

    WB = W * _CELL  # bytes a coset
    blank = array("i", [-1]) * W
    cells = blank[:]
    dead = bytearray(1)  # dead[x]: x was merged into a smaller coset
    fwd: dict[int, int] = {}  # dead coset -> a coset it was merged into
    ded: list[int] = []  # deduction stack of cell indices alpha * W + s

    def rep(x: int) -> int:
        while dead[x]:  # with path halving
            y = fwd[x]
            fwd[x] = x = fwd.get(y, y)
        return x

    def coincidence(a: int, b: int):
        queue: list[int] = []

        def merge(x: int, y: int):
            x, y = rep(x), rep(y)
            if x == y:
                return
            if x > y:
                x, y = y, x
            dead[y], fwd[y] = 1, x
            queue.append(y)

        merge(a, b)
        for g in queue:  # the list grows while it is read
            for x in range(W):
                d = cells[g * W + x]
                if d == -1:
                    continue
                cells[g * W + x] = -1
                cells[d * W + IC[x]] = -1
                mu = rep(g)
                nu = rep(d)
                xi = cells[mu * W + x]
                if xi != -1:
                    merge(nu, xi)
                else:
                    ze = cells[nu * W + IC[x]]
                    if ze != -1:
                        merge(mu, ze)
                    else:
                        cells[mu * W + x] = nu
                        cells[nu * W + IC[x]] = mu
                        ded.append(mu * W + x)

    def scan_generic(start: int, w: tuple[int, ...]):
        L = len(w)
        f = start
        i = 0
        while i < L:
            nxt = cells[f * W + w[i]]
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
            prv = cells[b * W + IC[w[j]]]
            if prv == -1:
                break
            b = prv
            j -= 1
        if j < i:
            coincidence(f, b)
        elif j == i:
            mate = cells[b * W + IC[w[i]]]
            if mate == -1:
                cells[f * W + w[i]] = b
                cells[b * W + IC[w[i]]] = f
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
        forms whose cells differ in the two ``_gather`` reads are visited (one
        that a fill here makes fillable is met again by the scan of that fill).
        A coincidence alone can kill alpha or move the edge, so the scan bails
        out after one; re-homed edges are re-pushed by the merge queue.
        """
        read_u, order_u, read_t, order_t, us, tvs, rot = plan[s]
        zs = read_u(cells, beta * WB)
        ts = read_t(cells, alpha * WB)
        if order_u:
            zs = order_u(zs)
        if order_t:
            ts = order_t(ts)
        if zs != ts:
            aW, bW = alpha * W, beta * W
            for i in compress(range(len(us)), map(ne, zs, ts)):
                u, tv = us[i], tvs[i]
                z, t = cells[bW + u], cells[aW + tv]  # a fill above may have set them
                if z == t:
                    continue
                if z != -1:
                    v = IC[tv]
                    if (w0 := cells[z * W + v]) != -1:
                        coincidence(w0, alpha)
                    elif t != -1:
                        coincidence(z, t)
                    else:
                        cells[z * W + v] = alpha
                        cells[aW + tv] = z
                        ded.append(z * W + v)
                        continue
                else:
                    m = cells[t * W + IC[u]]
                    if m != -1:
                        coincidence(beta, m)
                    else:
                        cells[bW + u] = t
                        cells[t * W + IC[u]] = beta
                        ded.append(beta * W + u)
                        continue
                if dead[alpha] or cells[aW + s] != beta:
                    return
        for w in rot:
            scan_generic(alpha, w)
            if dead[alpha] or cells[alpha * W + s] != beta:
                return

    exceeded = False
    restart = 0
    while not exceeded:
        # for, not while: CPython 3.11 specializes code that runs once only
        # after a few unconditional jumps back, and while loops jump on a test
        for alpha in count(restart):
            if alpha >= len(dead) or exceeded:
                break
            if dead[alpha]:
                continue
            aW = alpha * W
            i = 0
            while i < W:
                if dead[alpha]:
                    break
                s = order[i]
                if cells[aW + s] == -1:
                    beta = len(dead)
                    if beta >= limit:
                        exceeded = True
                        break
                    dead.append(0)
                    cells.extend(blank)
                    cells[aW + s] = beta
                    cells[beta * W + IC[s]] = alpha
                    if plan[s]:
                        scan_edge(alpha, s, beta)
                    while ded:
                        a, c = divmod(e := ded.pop(), W)
                        if (b := cells[e]) != -1 and not dead[a] and plan[c]:
                            scan_edge(a, c, b)
                else:
                    i += 1
        if exceeded:
            break
        # coincidences can transiently erase cells of cosets already passed;
        # rescan until a full pass finds every live coset complete
        restart = next((x for x in range(len(dead)) if not dead[x]
                        and -1 in cells[x * W : x * W + W]), None)
        if restart is None:
            break

    high_water = len(dead)
    if fwd:  # compress live cosets in place, keeping their order (0 stays 0)
        live = array("i", (x for x in range(high_water) if not dead[x]))
        renum = array("i", [-1]) * (high_water + 1)  # renum[-1] keeps -1 cells
        for new, old in enumerate(live):
            renum[old] = new
        for new, old in enumerate(live):
            row = cells[old * W : old * W + W]
            cells[new * W : new * W + W] = array("i", map(renum.__getitem__, row))
        del cells[len(live) * W :]
    return CosetTable(
        presentation=P,
        state=LIMIT_EXCEEDED if exceeded else CLOSED,
        coset_count=high_water - len(fwd),
        high_water=high_water,
        limit=limit,
        cells=cells,
        width=W,
        inverse_column=IC,
    )
