"""Presentations of the abelian-subgroup colimit of a finite group.

The presentation has one generator per non-identity element of G, and one
relator per ordered pair (g, h) of non-identity elements whose span has
nilpotency class below q: the word (gh)^-1 (g)(h), or (g)(h) when gh = 1.
Since element ids are canonical and the identity is id 0, generator j
(1-based) simply names the element with id j.

Words are sequences of signed 1-based generator indices: +j for generator j,
-j for its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    FiniteGroup,
    GroupTooLargeError,
    pair_generates_class_below,
)

# Building a presentation scans all ordered element pairs, and the coset
# table carries one column per generator; this cap keeps both reasonable.
PRESENTATION_MAX_ORDER = 4096

Word = tuple[int, ...]


@dataclass
class Presentation:
    group: FiniteGroup
    q: int
    generators: tuple[int, ...]  # element ids, identity excluded
    relators: list[Word]

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def __repr__(self):
        return (
            f"Presentation({self.group.label}, q={self.q}, "
            f"{self.num_generators} generators, {len(self.relators)} relators)"
        )


def build_presentation(G: FiniteGroup, q: int) -> Presentation:
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if not G.materialized or G.order > PRESENTATION_MAX_ORDER:
        raise GroupTooLargeError(
            f"{G.label}: presentations are built for groups of order "
            f"<= {PRESENTATION_MAX_ORDER}, got {G.order}"
        )
    n = G.order
    relators: list[Word] = []
    if q == 2:
        # the pair gate is plain commutation; inline it for the n^2 scan
        for g in range(1, n):
            for h in range(1, n):
                gh = G.multiply(g, h)
                if gh != G.multiply(h, g):
                    continue
                relators.append((g, h) if gh == 0 else (-gh, g, h))
    else:
        for g in range(1, n):
            for h in range(1, n):
                if not pair_generates_class_below(G, g, h, q):
                    continue
                gh = G.multiply(g, h)
                relators.append((g, h) if gh == 0 else (-gh, g, h))
    return Presentation(G, q, tuple(range(1, n)), relators)


def presentation_dumps(P: Presentation) -> str:
    """Dump format: line 1 ``gens k``, then one relator per line as
    space-separated signed 1-based generator indices."""
    lines = [f"gens {P.num_generators}"]
    for w in P.relators:
        lines.append(" ".join(str(x) for x in w))
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
    if n < 0:
        return power_word(inverse_word(w), -n)
    return w * n


def commutator_word(a: Word, b: Word) -> Word:
    return concat_words(a, b, inverse_word(a), inverse_word(b))
