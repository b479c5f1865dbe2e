"""Presentations of the abelian-subgroup colimit of a finite group.

The presentation has one generator per non-identity element of G: generator j
(1-based) names the element with id j, as ids are canonical and 0 is the
identity.  For each ordered pair (g, h) of non-identity elements whose span has
class below q, the relator is (g)(h) when gh = 1, always kept, else (k)^-1 (g)(h)
with k = gh.  The pairs (g, h), (h, k^-1), (k^-1, g), (h^-1, g^-1), (g^-1, k)
and (k, h^-1) give one cyclic word up to rotation and inversion once (x^-1) is
read as (x)^-1, as the length-2 relators say, so only the least is kept: the
group is the same, and a map kills all pair relators iff it kills the kept ones.
The relators are built on first read of ``Presentation.relators``: coset
enumeration reads the pair gate off G's Cayley table and never builds them.

Words are sequences of signed 1-based generator indices: +j for generator j,
-j for its inverse.
"""

from __future__ import annotations

from bisect import bisect_left

from .groups import TABLE_MAX_ORDER, FiniteGroup, GroupTooLargeError, partners

Word = tuple[int, ...]


class Presentation:
    """The colimit presentation of N_q(G), made by ``build_presentation``.

    ``relators`` are built on first read and kept; the enumerator reads G's
    Cayley table instead and never builds them."""

    __slots__ = ("group", "q", "generators", "_relators")

    def __init__(self, group: FiniteGroup, q: int):
        self.group = group
        self.q = q
        self.generators = tuple(range(1, group.order))  # element ids, identity excluded
        self._relators = None

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def relators(self) -> list[Word]:
        if self._relators is None:
            self._relators = _pair_relators(self.group, self.q)
        return self._relators

    def __repr__(self):
        """Names the relator count once they are built; never builds them."""
        rels = "relators not built" if self._relators is None else f"{len(self._relators)} relators"
        return (f"Presentation({self.group.label}, q={self.q}, "
                f"{self.num_generators} generators, {rels})")


def build_presentation(G: FiniteGroup, q: int) -> Presentation:
    """The colimit presentation over G's Cayley table: exactly the groups
    with a table can be presented.  Its relators are built on first read."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if not G.cayley_columns():
        raise GroupTooLargeError(
            f"{G.label}: presentations are built for groups of order "
            f"<= {TABLE_MAX_ORDER}, got {G.order}"
        )
    return Presentation(G, q)


def _pair_relators(G: FiniteGroup, q: int) -> list[Word]:
    """The kept pair relators, scanned over G's Cayley table."""
    cols = G.cayley_columns()  # cols[b][a] == a * b
    n = G.order
    inv = list(map(G.inverse, range(n)))
    relators: list[Word] = []
    for g in range(1, n):
        gi = inv[g]
        if gi < g:  # (g^-1, k) < (g, h) for every other h
            relators.append((g, gi))
            continue
        hs = partners(G, g, q)
        # (h, k^-1) < (g, h) when h < g
        for h in hs[bisect_left(hs, g):]:
            k = cols[h][g]
            hi, ki = inv[h], inv[k]
            if k == 0:
                relators.append((g, h))
            elif (g, h) <= min((h, ki), (ki, g), (hi, gi), (gi, k), (k, hi)):
                relators.append((-k, g, h))
    return relators


def presentation_dumps(P: Presentation) -> str:
    """Dump format: line 1 ``gens k``, then one relator per line as
    space-separated signed 1-based generator indices.  No command prints it;
    the frozen presentation digests in tests/test_presentations.py hash it."""
    lines = [f"gens {P.num_generators}", *(" ".join(map(str, w)) for w in P.relators)]
    return "\n".join(lines) + "\n"


# -- word helpers -------------------------------------------------------------

def word_for_element(e: int) -> Word:
    """The canonical generator word of an element id ((identity) = empty)."""
    return () if e == 0 else (e,)


def inverse_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def concat_words(*ws: Word) -> Word:
    out: list[int] = []
    for w in ws:
        out.extend(w)
    return tuple(out)


def power_word(w: Word, n: int) -> Word:
    return inverse_word(w) * -n if n < 0 else w * n


def commutator_word(a: Word, b: Word) -> Word:
    return concat_words(a, b, inverse_word(a), inverse_word(b))
