"""Exact Smith normal form over the integers.

A matrix arrives as a list of sparse rows, one ``{column: nonzero value}``
dict per row, and goes through two phases, over Python ints.

1. Sparse unit-pivot elimination (after Dumas, Saunders & Villard, "On
   efficient sparse integer matrix Smith normal form computations", J.
   Symbolic Comput. 32, 2001).  Rows, then columns, equal to an earlier one
   up to sign are dropped (a unimodular step makes each a zero line), on
   flat keys of 16 bytes a nonzero: a row's column and value tuples, then
   a column's [i, v, i, v, ...] list from one transposition of the rows.
   Each column keeps an exact count of its rows and an append-only holder
   list, 8 bytes a nonzero beside the row's dict entry.  While a row holds a
   +-1 entry, the shortest one is taken, and in it the unit of least count
   (Markowitz-style, to limit fill-in).  Row operations clear that column
   from the live rows on its holder list; SNF(M) = 1 + SNF(M') with M' the
   rest, since clearing the pivot row by column operations touches it only.
2. Dense core.  The rows left hold no unit entry.  They are made dense on
   their nonzero columns, rows and then columns again distinct up to sign,
   and diagonalized by dense elimination (see ``_dense_snf``).

Boundary and relator matrices are sparse with mostly unit entries, so the
core is small: 35 x 15 for d_3 of extraspecial:2:2 (481 x 4,332 live
columns), 7 x 379 for d_2 (127 x 8,065) and 412 x 7 for the relator matrix
(1,450 x 127) of extraspecial:2:3.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import NamedTuple
from math import gcd


class SNFResult(NamedTuple):
    """Rank and elementary divisors (> 1, each dividing the next)."""

    rank: int
    torsion: tuple[int, ...]

    def describe(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def smith_normal_form(rows: list[dict[int, int]]) -> SNFResult:
    """Rank and elementary divisors of the matrix whose rows are ``rows``.

    Each row maps a column index to a nonzero value; ``rows`` is only read.
    Repeated rows are dropped when they list their columns in the same
    order, as the ascending rows of the boundary and relator matrices do.
    """
    seen: set = set()
    flat: dict[int, list[int]] = {}  # column -> [i, v, i, v, ...] of the distinct rows
    for row in rows:
        values = tuple(row.values())
        if values and values[0] < 0:
            values = tuple([-v for v in values])
        key = (tuple(row), values)
        if key not in seen:
            seen.add(key)
            i = len(seen) - 1
            for j, v in zip(key[0], values):
                flat.setdefault(j, []).extend((i, v))
    sparse: list = [{} for _ in seen]
    holders: list[list[int]] = []
    seen = set()
    for j in sorted(flat):
        col = flat.pop(j)
        if col[1] < 0:
            col[1::2] = [-v for v in col[1::2]]
        key = tuple(col)
        if key not in seen:
            seen.add(key)
            k = len(holders)  # one int object for the column's entries
            for i, v in zip(col[::2], col[1::2]):
                sparse[i][k] = v
            holders.append(col[::2])
    del seen, flat
    count = list(map(len, holders))
    _eliminate_unit_pivots(sparse, holders, count)
    core = _dense_snf(_residual_core(sparse, count))
    return SNFResult(sparse.count(None) + core.rank, core.torsion)


def _distinct_dense(lines) -> list[tuple[int, ...]]:
    """Each nonzero dense line unequal to an earlier one up to sign, first nonzero > 0."""
    seen: dict[tuple[int, ...], None] = {}
    for line in lines:
        lead = next(filter(None, line), 0)
        if lead:
            seen.setdefault(line if lead > 0 else tuple([-x for x in line]))
    return list(seen)


def _has_unit(values) -> bool:
    return 1 in values or -1 in values


def _eliminate_unit_pivots(sparse, holders, count) -> None:
    """Eliminate +-1 pivots in place; each pivot row becomes None."""
    heap = [(len(r), i) for i, r in enumerate(sparse) if _has_unit(r.values())]
    heapq.heapify(heap)
    while heap:
        length, r = heapq.heappop(heap)
        prow = sparse[r]
        # stale entry: the row died or changed since it was pushed
        if prow is None or len(prow) != length:
            continue
        units = [j for j, v in prow.items() if v == 1 or v == -1]
        if not units:
            continue
        c = min(units, key=count.__getitem__)
        p = prow[c]
        sparse[r] = None
        for j in prow:
            count[j] -= 1
        for i in holders[c]:
            row = sparse[i]
            if row is None or c not in row:
                continue
            f = row[c] * p  # p is its own inverse
            for j, v in prow.items():
                old = row.get(j)
                if old is None:
                    row[j] = -f * v
                    count[j] += 1
                    holders[j].append(i)
                elif old != f * v:
                    row[j] = old - f * v
                else:
                    del row[j]
                    count[j] -= 1
            if _has_unit(row.values()):
                heapq.heappush(heap, (len(row), i))
        holders[c] = []


def _residual_core(sparse, count) -> list[list[int]]:
    """The rows left, dense on the live columns, with rows then columns distinct up to sign."""
    live = [j for j, n in enumerate(count) if n]
    rows = _distinct_dense(tuple(map(r.get, live, repeat(0))) for r in sparse if r)
    return [list(r) for r in zip(*_distinct_dense(zip(*rows)))]


def _dense_snf(m: list[list[int]]) -> SNFResult:
    """Diagonalize ``m`` in place, then read the divisors off the diagonal.

    Each step takes the smallest nonzero entry as pivot and clears its column
    and row.  An entry the pivot does not divide is combined with the pivot
    line by the 2x2 unimodular step that leaves their gcd in the pivot and 0
    in its place, so one pass clears a column.  Divisibility along the
    diagonal is not forced during elimination, because forcing it (adding a
    row into the pivot row and eliminating again) makes the entries grow
    fast; diag(a, b) ~ diag(gcd(a, b), lcm(a, b)) fixes it at the end.
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    diagonal: list[int] = []
    t = 0
    while t < nr and t < nc:
        pivot = _smallest_pivot(m, t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        column_dirty = True
        while column_dirty:
            for i in range(t + 1, nr):
                a = m[i][t]
                if a:
                    m[t], m[i] = _gcd_step(m[t][t], a, m[t], m[i])
            # column operations: the rows above t are zero from column t on
            below = m[t:]
            pt = m[t]
            column_dirty = False
            for j in range(t + 1, nc):
                a = pt[j]
                if not a:
                    continue
                p = pt[t]
                if a % p == 0:
                    q = a // p
                    for row in below:
                        row[j] -= q * row[t]
                else:
                    g, x, y = _gcdex(p, a)
                    pg, ag = p // g, a // g
                    for row in below:
                        u, v = row[t], row[j]
                        row[t], row[j] = x * u + y * v, ag * u - pg * v
                    column_dirty = True
        diagonal.append(abs(m[t][t]))
        t += 1
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            g = gcd(a, b)
            diagonal[i], diagonal[j] = g, a // g * b
    return SNFResult(len(diagonal), tuple(d for d in diagonal if d > 1))


def _gcd_step(p, a, pivot_row, row):
    """(new pivot row, new row): the pivot entry becomes gcd(p, a), the other 0."""
    if a % p == 0:
        q = a // p
        return pivot_row, [v - q * u for u, v in zip(pivot_row, row)]
    g, x, y = _gcdex(p, a)
    pg, ag = p // g, a // g
    return (
        [x * u + y * v for u, v in zip(pivot_row, row)],
        [ag * u - pg * v for u, v in zip(pivot_row, row)],
    )


def _gcdex(a, b):
    """(g, x, y) with g = gcd(a, b) > 0 and x*a + y*b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _smallest_pivot(m, t):
    best = None
    best_val = None
    for i in range(t, len(m)):
        row = m[i]
        for j in range(t, len(row)):
            a = row[j]
            if a:
                a = -a if a < 0 else a
                if best_val is None or a < best_val:
                    best_val = a
                    best = (i, j)
                    if a == 1:
                        return best
    return best
