"""The low-dimensional skeleton of the commuting classifying space.

Simplices in dimension n are ordered n-tuples of group elements whose span
has nilpotency class below q (for q = 2: pairwise commuting tuples, so the
n-simplices count |Hom(Z^n, G)|).  Chains are normalized: tuples containing
the identity are degenerate and are dropped, along with any face that
produces one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .groups import FiniteGroup, centralizer, closure, nilpotency_class
from .presentations import Presentation, build_presentation
from .snf import SNFResult, smith_normal_form

DEFAULT_MAX_SIMPLICES = 200_000


class BudgetExceededError(RuntimeError):
    """A dimension's simplex count went past the configured budget."""


def hom_count(G: FiniteGroup, n: int, q: int = 2) -> int:
    """Number of n-tuples spanning a class-<q subgroup (identity allowed).

    For q = 2 this is the commuting-tuple count |Hom(Z^n, G)|, computed by
    backtracking over centralizer lists rather than scanning G^n.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    order = G.order
    G.elements()  # enforce the materialization ceiling
    if q == 2:
        cent = [centralizer(G, g) for g in range(order)]
        total = 0
        for g in range(order):  # the first coordinate is unconstrained
            total += _count_commuting_extensions(G, cent, [g], n - 1)
        return total
    admissible = _span_gate(G, q)

    def count(tup: tuple[int, ...]) -> int:
        if len(tup) == n:
            return 1
        return sum(count(tup + (g,)) for g in range(order) if admissible(tup, g))

    return count(())


def _span_gate(G: FiniteGroup, q: int):
    """admissible(partial, g): does partial + (g,) span a class-<q subgroup?"""
    if q == 2:
        cent = [centralizer(G, g) for g in G.elements()]
        return lambda partial, g: all(g in cent[h] for h in partial)
    memo: dict[tuple[int, ...], Optional[int]] = {}  # span members -> class

    def admissible(partial: tuple[int, ...], g: int) -> bool:
        span = closure(G, partial + (g,))
        if span.members not in memo:
            memo[span.members] = nilpotency_class(span)
        cls = memo[span.members]
        return cls is not None and cls < q

    return admissible


def _count_commuting_extensions(G, cent, partial, remaining) -> int:
    if remaining == 0:
        return 1
    out = 0
    sets = [cent[h] for h in partial]
    smallest = min(sets, key=len)
    for g in smallest:
        if all(g in s for s in sets if s is not smallest):
            partial.append(g)
            out += _count_commuting_extensions(G, cent, partial, remaining - 1)
            partial.pop()
    return out


@dataclass
class ChainComplex:
    """Normalized chains up to a dimension cap.

    ``bases[n]`` lists the nondegenerate n-simplices (lexicographic order);
    ``boundary(n)`` is the matrix of the bar differential, with rows indexed
    by (n-1)-simplices and columns by n-simplices, over Python ints.
    """

    group: FiniteGroup
    q: int
    dim_cap: int
    bases: list[list[tuple[int, ...]]]
    boundaries: list[Optional[list[list[int]]]]

    def boundary(self, n: int) -> list[list[int]]:
        if n < 1 or n > self.dim_cap:
            raise ValueError(f"no boundary matrix for dimension {n}")
        return self.boundaries[n]


def build_complex(
    G: FiniteGroup,
    q: int = 2,
    dim_cap: int = 2,
    max_simplices: int = DEFAULT_MAX_SIMPLICES,
) -> ChainComplex:
    if dim_cap < 0:
        raise ValueError("dimension cap must be >= 0")
    bases: list[list[tuple[int, ...]]] = [[()]]
    for n in range(1, dim_cap + 1):
        bases.append(_simplices(G, q, n, max_simplices))
    boundaries: list[Optional[list[list[int]]]] = [None]
    for n in range(1, dim_cap + 1):
        boundaries.append(_boundary_matrix(G, bases[n - 1], bases[n], n))
    return ChainComplex(G, q, dim_cap, bases, boundaries)


def _simplices(G: FiniteGroup, q: int, n: int, cap: int) -> list[tuple[int, ...]]:
    """Nondegenerate n-simplices in lexicographic order."""
    order = G.order
    G.elements()
    out: list[tuple[int, ...]] = []
    admissible = _span_gate(G, q)

    def extend(partial: tuple[int, ...]):
        if len(partial) == n:
            out.append(partial)
            if len(out) > cap:
                raise BudgetExceededError(
                    f"{G.label}: more than {cap} simplices in dimension {n}"
                )
            return
        for g in range(1, order):
            if admissible(partial, g):
                extend(partial + (g,))

    extend(())
    return out


def _boundary_matrix(G, rows_basis, cols_basis, n) -> list[list[int]]:
    index = {t: i for i, t in enumerate(rows_basis)}
    mat = [[0] * len(cols_basis) for _ in rows_basis]
    for cj, t in enumerate(cols_basis):
        for i in range(n + 1):
            if i == 0:
                face = t[1:]
            elif i == n:
                face = t[:-1]
            else:
                merged = G.multiply(t[i - 1], t[i])
                if merged == 0:
                    continue  # degenerate face, zero in normalized chains
                face = t[: i - 1] + (merged,) + t[i + 1 :]
            ri = index.get(face)
            if ri is None:
                raise AssertionError(f"face {face} missing from basis")
            mat[ri][cj] += 1 if i % 2 == 0 else -1
    return mat


def homology(
    G: FiniteGroup,
    q: int = 2,
    k: int = 1,
    max_simplices: int = DEFAULT_MAX_SIMPLICES,
) -> SNFResult:
    """H_k of the normalized complex, k in {0, 1, 2}.

    Free rank is dim C_k - rank d_k - rank d_{k+1}; torsion is read off the
    Smith form of d_{k+1}.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"homology is computed for k in {{0, 1, 2}}, got {k}")
    cx = build_complex(G, q, k + 1, max_simplices)
    dim_k = len(cx.bases[k])
    rank_in = smith_normal_form(cx.boundary(k)).rank if k >= 1 else 0
    down = smith_normal_form(cx.boundary(k + 1))
    return SNFResult(rank=dim_k - rank_in - down.rank, torsion=down.torsion)


def verify_complex(cx: ChainComplex) -> bool:
    """d_n . d_{n+1} = 0 for every consecutive pair of built matrices."""
    for n in range(1, cx.dim_cap):
        a = cx.boundary(n)
        b = cx.boundary(n + 1)
        if not a or not b:
            continue
        for j in range(len(b[0])):
            col = [b[i][j] for i in range(len(b))]
            for i in range(len(a)):
                if sum(a[i][t] * col[t] for t in range(len(col))):
                    return False
    return True


# -- consistency with the colimit presentation --------------------------------

def abelianized_relator_matrix(P: Presentation) -> list[list[int]]:
    """Exponent-sum vectors of the relators over the presentation generators."""
    k = P.num_generators
    rows = []
    for w in P.relators:
        vec = [0] * k
        for signed in w:
            vec[abs(signed) - 1] += 1 if signed > 0 else -1
        rows.append(vec)
    return rows


def h1_consistency(
    G: FiniteGroup, max_simplices: int = DEFAULT_MAX_SIMPLICES, q: int = 2
) -> bool:
    """H_1 of the complex must match the abelianized colimit presentation.

    The fundamental group of the level-q complex is the level-q colimit, so
    its first homology is the abelianization of that presentation.
    """
    h1 = homology(G, q, 1, max_simplices)
    P = build_presentation(G, q)
    rel = abelianized_relator_matrix(P)
    snf = smith_normal_form(rel)
    presented = SNFResult(rank=P.num_generators - snf.rank, torsion=snf.torsion)
    return presented == h1


def matrix_dumps(mat: list[list[int]]) -> str:
    """Dump format: header ``rows cols``, then row-major entries, one row per line."""
    nr = len(mat)
    nc = len(mat[0]) if mat else 0
    lines = [f"{nr} {nc}"]
    for row in mat:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
