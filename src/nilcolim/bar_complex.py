"""The low-dimensional skeleton of the commuting classifying space.

Simplices in dimension n are ordered n-tuples of group elements whose span
has nilpotency class below q (for q = 2: pairwise commuting tuples, so the
n-simplices count |Hom(Z^n, G)|).  Chains are normalized: tuples containing
the identity are degenerate and are dropped, along with any face that
produces one.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional

from .budgets import DEFAULT_MAX_SIMPLICES, BudgetExceededError
from .groups import FiniteGroup, class_below, partners
from .presentations import Presentation, build_presentation
from .snf import SNFResult, smith_normal_form


def hom_count(G: FiniteGroup, n: int, q: int = 2) -> int:
    """Number of n-tuples spanning a class-<q subgroup (identity allowed).

    For q = 2 this is the commuting-tuple count |Hom(Z^n, G)|.  Counts and
    simplices come from one lexicographic walk (``_tuples``) rather than a
    scan of G^n: each slot ranges over the ids that pass ``partners`` with
    every slot before it (for q = 2, the common centralizer); for q > 2,
    from the third slot on, ``class_below`` then tests the whole tuple.
    Nothing is cached beyond the ``partners`` arrays and their class record.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if n == 0:
        return 1
    return sum(1 for _ in _tuples(G, q, n, 0))


def _tuples(G: FiniteGroup, q: int, n: int, first: int) -> Iterator[tuple[int, ...]]:
    """The n-tuples over ids >= first that span a class-<q subgroup, in
    lexicographic order."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    G.elements()  # enforce the materialization ceiling
    ids = range(first, G.order)

    def slot(prefix: tuple[int, ...]) -> Iterable[int]:
        """The ids that extend prefix, ascending."""
        if not prefix:
            return ids
        common = set(partners(G, prefix[0], q)).intersection(
            *(partners(G, h, q) for h in prefix[1:]))
        fits = sorted(g for g in common if g >= first)
        if q > 2 and len(prefix) > 1:  # pairs of class < q need not span one
            return [g for g in fits if class_below(G, prefix + (g,), q)]
        return fits

    def walk(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for g in slot(prefix):
            t = prefix + (g,)
            if len(t) == n:
                yield t
            else:
                yield from walk(t)

    return walk(())


class ChainComplex(NamedTuple):
    """Normalized chains up to a dimension cap.

    ``bases[n]`` lists the nondegenerate n-simplices (lexicographic order);
    ``boundary(n)`` is the matrix of the bar differential as sparse lines,
    one per n-simplex in basis order: its faces as a flat tuple
    ``(i, v, i, v, ...)``, i the index of an (n-1)-simplex, ascending, and
    v a nonzero coefficient.
    """

    group: FiniteGroup
    q: int
    dim_cap: int
    bases: list[list[tuple[int, ...]]]
    boundaries: list[Optional[list[tuple[int, ...]]]]

    def boundary(self, n: int) -> list[tuple[int, ...]]:
        if n < 1 or n > self.dim_cap:
            raise ValueError(f"no boundary matrix for dimension {n}")
        return self.boundaries[n]


def build_complex(
    G: FiniteGroup,
    q: int = 2,
    dim_cap: int = 2,
    max_simplices: int = DEFAULT_MAX_SIMPLICES,
) -> ChainComplex:
    bases = _bases(G, q, dim_cap, max_simplices)
    boundaries: list[Optional[list[tuple[int, ...]]]] = [None]
    for n in range(1, dim_cap + 1):
        boundaries.append(_boundary_matrix(G, bases[n - 1], bases[n], n))
    return ChainComplex(G, q, dim_cap, bases, boundaries)


def _bases(
    G: FiniteGroup, q: int, dim_cap: int, max_simplices: int
) -> list[list[tuple[int, ...]]]:
    """The simplices of dimensions 0 to dim_cap."""
    if dim_cap < 0:
        raise ValueError("dimension cap must be >= 0")
    if max_simplices < 0:
        raise ValueError(f"simplex budget must be >= 0, got {max_simplices}")
    return [[()]] + [_simplices(G, q, n, max_simplices) for n in range(1, dim_cap + 1)]


def _simplices(G: FiniteGroup, q: int, n: int, cap: int) -> list[tuple[int, ...]]:
    """Nondegenerate n-simplices in lexicographic order."""
    out: list[tuple[int, ...]] = []
    for t in _tuples(G, q, n, 1):
        out.append(t)
        if len(out) > cap:
            raise BudgetExceededError(
                f"{G.label}: more than {cap} simplices in dimension {n}"
            )
    return out


def _boundary_matrix(G, faces_basis, basis, n) -> list[tuple[int, ...]]:
    """The lines of d_n: one per n-simplex of ``basis``, indices into ``faces_basis``."""
    index = {t: i for i, t in enumerate(faces_basis)}
    lines = []
    for t in basis:
        line = {index[t[1:]]: 1}
        for i in range(1, n + 1):
            if i == n:
                face = t[:-1]
            else:
                merged = G.multiply(t[i - 1], t[i])
                if merged == 0:
                    continue  # degenerate face, zero in normalized chains
                face = t[: i - 1] + (merged,) + t[i + 1 :]
            ri = index[face]
            line[ri] = line.get(ri, 0) + (-1 if i % 2 else 1)
        lines.append(_flat(line))
    return lines


def _flat(entries: dict[int, int]) -> tuple[int, ...]:
    """The line ``(i, v, i, v, ...)`` of a sparse vector: ascending, zeros dropped."""
    if 0 in entries.values():
        entries = {i: v for i, v in entries.items() if v}
    return tuple(chain.from_iterable(sorted(entries.items())))


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
    bases = _bases(G, q, k + 1, max_simplices)
    rank_in = smith_normal_form(_boundary_matrix(G, bases[k - 1], bases[k], k)).rank if k else 0
    d = _boundary_matrix(G, bases[k], bases[k + 1], k + 1)
    dim_k = len(bases[k])
    del bases  # the Smith form reads d alone
    down = smith_normal_form(d)
    return SNFResult(rank=dim_k - rank_in - down.rank, torsion=down.torsion)


# -- consistency with the colimit presentation --------------------------------

def abelianized_relator_matrix(P: Presentation) -> list[tuple[int, ...]]:
    """Exponent sums of the relators as sparse lines over the generator indices."""
    lines = []
    for w in P.relators:
        sums: dict[int, int] = {}
        for signed in w:
            j = abs(signed) - 1
            sums[j] = sums.get(j, 0) + (1 if signed > 0 else -1)
        lines.append(_flat(sums))
    return lines


def presented_h1(G: FiniteGroup, q: int = 2) -> SNFResult:
    """H_1 read off the level-q colimit presentation: its abelianization."""
    P = build_presentation(G, q)
    snf = smith_normal_form(abelianized_relator_matrix(P))
    return SNFResult(rank=P.num_generators - snf.rank, torsion=snf.torsion)


def h1_consistency(
    G: FiniteGroup, max_simplices: int = DEFAULT_MAX_SIMPLICES, q: int = 2
) -> bool:
    """H_1 of the complex must match the abelianized colimit presentation.

    The level-q complex has the level-q colimit as fundamental group, so its
    H_1 is that presentation abelianized.  d_2 has a column per class-<q pair,
    the presentation a relator per class, so this re-checks that reduction.
    No command runs it; acceptance criterion 7 does.
    """
    return homology(G, q, 1, max_simplices) == presented_h1(G, q)
