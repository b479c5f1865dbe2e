"""Felsch-style coset enumeration over the trivial subgroup.

The strategy is deduction-stack driven, with coincidences resolved through a
union-find merge queue (Holt's presentation of the algorithm).  Definitions
fill the first empty cell of a coset, trying the signed generators in the
order +1, -1, +2, -2, ..., so runs are deterministic.  The table is one flat
``array('i')``, and a dict forwards each merged coset.

The colimit presentation from ``build_presentation`` is enumerated in
epsilon-coordinates, off G's Cayley table; its relators are never built.  A
coset x has an image eps(x) in G under the counit N_q(G) -> G, and an edge
x.(g) = y has eps(y) = eps(x) g.  So row x holds one slot per element h of
G: slot h holds the y = x.(eps(x)^-1 h), whose image is h, and slot eps(x)
holds x itself.  The two cells of an edge x -> y are (x, eps(y)) and
(y, eps(x)).  The forms are the words (a)(b)(ab)^-1 over b in
P(a) = ``partners(G, a, q)``.  Through an edge x --a--> y, such a form has
its other two cells in one slot, eps(x) a b, of rows y and x, and it gives
nothing exactly when the two rows agree there.  As a P(a) = P(a), a scan of
the edge is the one test "rows x and y agree on the slots eps(x) P(a)".
That set also holds eps(x) and eps(y), where the rows always agree.  Both
rows are read by one precompiled ``struct`` gather, a run of adjacent slots
as one bytes object and a lone slot as an int, and only the items that
differ are walked, slot by slot, to fill or merge.  The set eps(x) P(a)
depends only on the left coset of eps(x) modulo the stabilizer
{h : h P(a) = P(a)}.  The stabilizer contains <a>, and at q = 2 it is
P(a) = C(a) itself.  So a gather is built once per such left coset, and
every edge whose slots it covers shares it.  A merged coset keeps ~eps(x),
a negative image.  Every table, closed or cut at its limit, is returned in
these coordinates with its images, and is read in them: x.(g) is the cell in
slot eps(x) g of row x, and x.(g)^-1 the one in slot eps(x) g^-1.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from itertools import compress, count, repeat
from operator import getitem, itemgetter, ne
from struct import Struct
from typing import NamedTuple, Optional

from .budgets import DEFAULT_COSET_LIMIT
from .groups import partners
from .presentations import Presentation, Word

CLOSED = "closed"
LIMIT_EXCEEDED = "limit-exceeded"
_CELL = array("i").itemsize  # bytes a cell


class TableNotClosedError(RuntimeError):
    """A word-problem query needs a closed coset table."""


class CosetTable(NamedTuple):
    """Result of an enumeration: live cosets renumbered 0..coset_count-1, in
    the enumerator's epsilon-coordinates (see the module docstring), whether
    the table closed or was cut at its limit.  ``epsilon[x]`` is the image of
    coset x in G, and ``cells[x * |G| + h]`` is the neighbour of x whose
    image is h (or -1 while partial), x itself at h = eps(x).  Cells are
    paired: a filled x.(g) = y has y.(g^-1) = x, in partial tables too.
    """

    presentation: Presentation
    state: str
    coset_count: int
    high_water: int
    limit: int
    cells: array
    epsilon: array

    def __repr__(self):
        return f"CosetTable({self.state}, {self.coset_count} cosets, high water {self.high_water})"

    @property
    def closed(self) -> bool:
        return self.state == CLOSED

    def trace(self, word: Word, start: int = 0) -> int:
        """The coset that ``word`` carries ``start`` to (by default coset 0,
        which a word fixes exactly when it is the identity)."""
        if not self.closed:
            raise TableNotClosedError(f"cannot trace words in a {self.state} table")
        G = self.presentation.group
        cols, inv, n = G.cayley_columns(), G._inv, G.order
        x, cells, eps = start, self.cells, self.epsilon
        for signed in word:
            if not 0 < abs(signed) < n:
                raise ValueError(f"generator index {signed} out of range")
            x = cells[x * n + cols[signed if signed > 0 else inv[-signed]][eps[x]]]
        return x

    def breadth_first(self) -> Iterator[tuple[int, int, int]]:
        """Breadth-first spanning tree from coset 0: yields ``(x, signed, y)``
        for each newly reached coset y = x.signed, trying the signed
        generators in the order +1, -1, +2, -2, ..."""
        if not self.closed:
            raise TableNotClosedError(f"cannot traverse a {self.state} table")
        G = self.presentation.group
        cols, inv, n = G.cayley_columns(), G._inv, G.order
        steps = [(s, cols[g]) for j in range(1, n) for s, g in ((j, j), (-j, inv[j]))]
        cells, eps = self.cells, self.epsilon
        seen = [False] * self.coset_count
        seen[0] = True
        queue = [0]
        for x in queue:  # the list grows while it is read: an index queue
            xn, E = x * n, eps[x]
            for s, col in steps:
                y = cells[xn + col[E]]
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
                    yield x, s, y


def _keep(cells: array, live: list[int], W: int) -> None:
    """Renumber the cosets ``live`` (ascending, from 0) 0, 1, ... in place in
    a table of W cells a coset, and drop the others."""
    renum = array("i", [-1]) * (len(cells) // W + 1)  # renum[-1] keeps -1 cells
    for new, old in enumerate(live):
        renum[old] = new
    for new, old in enumerate(live):
        row = cells[old * W : old * W + W]
        cells[new * W : new * W + W] = array("i", map(renum.__getitem__, row))
    del cells[len(live) * W :]


def _reader(distinct: list[int], ranges: dict) -> tuple:
    """``(*runs, read)`` for ascending, distinct cells of a row:
    ``read(cells, byte offset of the row)`` unpacks them in that order, a lone
    cell as an int and a run of two or more adjacent cells as one bytes
    object, and each run holds the cells of one item read, as a range kept
    once in ``ranges``."""
    fmt, runs, end, start = [], [], 0, None
    for p, following in zip(distinct, [*distinct[1:], None]):
        if start is None:
            start = p
        if following == p + 1:
            continue
        size = p + 1 - start
        code = f"{size * _CELL}s" if size > 1 else "i"
        fmt.append(f"{(start - end) * _CELL}x{code}")
        runs.append(ranges.setdefault(run := range(start, p + 1), run))
        end, start = p + 1, None
    return (*runs, Struct("".join(fmt)).unpack_from)


def _stabilizer(cols: list, P: array) -> list[int]:
    """The subgroup {h : hP = P} of G, for a set P of ids that holds 1, so
    that the subgroup lies in P.  An h of P joins when hp is in P for every
    p of P (``cols[p][h]``); a miss mostly fails within the first few p.  The
    group found so far is closed under right products by each new member, so
    no member is tested twice, and at most log2 |P| tests pass."""
    inP = bytearray(len(cols))
    for p in P:
        inP[p] = 1
    Pcols = [cols[p] for p in P]
    S, gens, inS = [0], [], bytearray(len(cols))
    inS[0] = 1
    for h in P:
        if inS[h] or not all(map(inP.__getitem__, map(itemgetter(h), Pcols))):
            continue
        gens.append(h)
        for x in S:  # the list grows while it is read
            for g in gens:
                if not inS[y := cols[g][x]]:
                    inS[y] = 1
                    S.append(y)
    return S


def _colimit_enumeration(P: Presentation, limit: int,
                         seed: Optional[tuple[array, array]] = None) -> CosetTable:
    """``todd_coxeter`` of a colimit presentation, in epsilon-coordinates (see
    the module docstring).  ``seed`` is ``(cells, epsilon)`` of a partial
    table, in those coordinates, to close instead of coset 0 alone: its
    filled cells are queued as deductions.  A coincidence of two cosets with
    different images, which a seed alone can cause, raises RuntimeError."""
    G, q = P.group, P.q
    cols, inv, n = G.cayley_columns(), G._inv, G.order
    NB = n * _CELL  # bytes a coset
    # plan_of[g][E] is the plan, ``_reader``'s (*runs, read), of the slots
    # E P(g).  It is built when a first edge asks for it and shared by the
    # left coset of E modulo the stabilizer S of P(g); None until then.  The
    # empty plan () is for the slot of a coset itself and for a set {1, g},
    # which makes no form.
    plan_of: list[list] = [[()] * n]
    source: list = [None]  # source[g]: [P(g), the columns of S or None]
    records: dict[bytes, tuple] = {}
    ranges: dict[range, range] = {}  # one copy of each run of slots
    for g in range(1, n):
        Pg = partners(G, g, q)
        if (r := records.get(key := Pg.tobytes())) is None:
            r = records[key] = ([None] * n if len(Pg) > 2 else plan_of[0], [Pg, None])
        plan_of.append(r[0])
        source.append(r[1])

    def assign(g: int, E: int) -> tuple:
        """Build the plan of the slots E P(g) and share it over E's left coset."""
        src = source[g]
        if src[1] is None:
            src[1] = [cols[x] for x in (src[0] if q == 2 else _stabilizer(cols, src[0]))]
        plan = _reader(sorted(map(getitem, map(cols.__getitem__, src[0]), repeat(E))), ranges)
        shared = plan_of[g]
        for x in map(itemgetter(E), src[1]):  # the left coset E S: E x = cols[x][E]
            shared[x] = plan
        return plan

    # per generator g tried, in the order +1, -1, +2, ...: (g, the column that
    # gives its slot E g at a coset with image E, its plans)
    steps = [(g, cols[g], plan_of[g]) for g in dict.fromkeys(
        c for g in range(1, n) for c in (g, inv[g]))]
    gcols = cols[1:]  # coincidences walk the slots E g in generator order
    blank = array("i", [-1]) * n
    block = blank * 64
    if seed is None:
        cells, eps = blank[:], array("h", [0])
        cells[0] = 0
    else:
        cells, eps = array("i", seed[0]), array("h", seed[1])
    # a coset x merged into a smaller one is dead: eps[x] is then ~eps(x) < 0
    fwd: dict[int, int] = {}  # dead coset -> a coset it was merged into
    # deduction stack of cells x * n + h, h != eps(x)
    ded = [e for e, y in enumerate(cells) if y != -1 and e % n != eps[e // n]]

    def rep(x: int) -> int:
        while eps[x] < 0:  # with path halving
            y = fwd[x]
            fwd[x] = x = fwd.get(y, y)
        return x

    def coincidence(a: int, b: int):
        queue: list[int] = []

        def merge(x: int, y: int):
            x, y = rep(x), rep(y)
            if x == y:
                return
            if eps[x] != eps[y]:
                raise RuntimeError(f"cosets {x} and {y} coincide but have different images in G")
            if x > y:
                x, y = y, x
            eps[y], fwd[y] = ~eps[y], x
            queue.append(y)

        merge(a, b)
        for g in queue:  # the list grows while it is read
            E, gN = ~eps[g], g * n
            for h in map(itemgetter(E), gcols):
                d = cells[gN + h]
                if d == -1:
                    continue
                cells[gN + h] = -1
                cells[d * n + E] = -1
                mu = rep(g)
                nu = rep(d)
                xi = cells[mu * n + h]
                if xi != -1:
                    merge(nu, xi)
                else:
                    ze = cells[nu * n + E]
                    if ze != -1:
                        merge(mu, ze)
                    else:
                        cells[mu * n + h] = nu
                        cells[nu * n + E] = mu
                        ded.append(mu * n + h)

    def scan(alpha: int, F: int, beta: int, plan: tuple, xs: tuple, ys: tuple):
        """Scan the edge alpha -> beta, F = eps(beta), against its forms,
        given the reads xs of alpha and ys of beta by its plan, which differ.

        A form's slot s gives nothing exactly when z = beta's cell equals
        t = alpha's: paired cells are written together, so z's slot eps(alpha)
        holds alpha iff t = z.  Only the items whose reads differ are walked
        (a form that a fill here makes fillable is met again by the scan of
        that fill).  A coincidence alone can kill alpha or move the edge, so
        the scan bails out after one; re-homed edges are re-pushed by the
        merge queue.
        """
        E, aN, bN = eps[alpha], alpha * n, beta * n
        for run in compress(plan, map(ne, xs, ys)):  # stops before plan's read
            for s in run:
                z, t = cells[bN + s], cells[aN + s]  # a fill above may have set them
                if z == t:
                    continue
                if z != -1:
                    if (w := cells[z * n + E]) != -1:
                        coincidence(w, alpha)
                    elif t != -1:
                        coincidence(z, t)
                    else:
                        cells[z * n + E] = alpha
                        cells[aN + s] = z
                        ded.append(z * n + E)
                        continue
                elif (m := cells[t * n + F]) != -1:
                    coincidence(beta, m)
                else:
                    cells[bN + s] = t
                    cells[t * n + F] = beta
                    ded.append(bN + s)
                    continue
                if eps[alpha] < 0 or cells[aN + F] != beta:
                    return

    # cosets defined, and the rows of cells and images, grown 64 at a time
    top = room = len(eps)
    exceeded = False
    restart = 0
    while not exceeded:
        # for, not while: CPython 3.11 specializes code that runs once only
        # after a few unconditional jumps back, and while loops jump on a test
        for alpha in count(restart):
            if alpha >= top or exceeded:
                break
            if (E := eps[alpha]) < 0:
                continue
            aN = alpha * n
            for g, col, shared in steps:
                s = col[E]
                while cells[aN + s] == -1 and eps[alpha] >= 0:
                    beta = top
                    if beta >= limit:
                        exceeded = True
                        break
                    top += 1
                    if beta == room:  # grow by a block of blank rows, never past the limit
                        room = min(limit, beta + 64)
                        cells.extend(block if room - beta == 64 else blank * (room - beta))
                        eps.extend(repeat(0, room - beta))
                    eps[beta] = s
                    bN = beta * n
                    cells[aN + s] = cells[bN + s] = beta
                    cells[bN + E] = alpha
                    if (plan := shared[E]) is None:
                        plan = assign(g, E)
                    if plan and (xs := (read := plan[-1])(cells, aN * _CELL)) != (
                            ys := read(cells, beta * NB)):
                        scan(alpha, s, beta, plan, xs, ys)
                    while ded:
                        a, h = divmod(e := ded.pop(), n)
                        if (b := cells[e]) == -1 or (A := eps[a]) < 0:
                            continue
                        if (plan := plan_of[c := cols[h][inv[A]]][A]) is None:
                            plan = assign(c, A)
                        if plan and (xs := (read := plan[-1])(cells, a * NB)) != (
                                ys := read(cells, b * NB)):
                            scan(a, h, b, plan, xs, ys)
                if eps[alpha] < 0 or exceeded:
                    break
        if exceeded or not fwd:
            break
        # coincidences can transiently erase cells of cosets already passed;
        # rescan until a full pass finds every live coset complete (with no
        # merge yet, nothing was erased and every row below top is complete)
        restart = next((x for x in range(top) if eps[x] >= 0
                        and -1 in cells[x * n : x * n + n]), None)
        if restart is None:
            break

    high_water = top
    del cells[high_water * n :], eps[high_water:]
    if fwd:
        live = [x for x in range(high_water) if eps[x] >= 0]
        _keep(cells, live, n)
        eps = array("h", map(eps.__getitem__, live))
    return CosetTable(P, LIMIT_EXCEEDED if exceeded else CLOSED, high_water - len(fwd),
                      high_water, limit, cells, eps)


def todd_coxeter(P: Presentation, limit: int = DEFAULT_COSET_LIMIT) -> CosetTable:
    """Enumerate the cosets of the trivial subgroup in epsilon-coordinates
    (see the module docstring).  At most ``limit`` cosets are defined, merged
    ones included; a run that needs more returns a ``LIMIT_EXCEEDED`` table.
    Raises ValueError for a limit below 1."""
    if limit < 1:
        raise ValueError(f"coset limit must be >= 1, got {limit}")
    return _colimit_enumeration(P, limit)
