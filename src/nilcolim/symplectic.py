"""Symplectic sequences: certification, search, and structure reports.

A sequence g_1, ..., g_2r of distinct non-identity elements is symplectic
when every partner pair (g_i, g_{i+r}) has one common commutator c and all
other pairs commute; it is nontrivial when c != 1.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import cached_property
from itertools import permutations
from typing import NamedTuple, Optional, Sequence, Union

from .budgets import DEFAULT_SEARCH_BUDGET
from .groups import (
    FiniteGroup,
    GroupTooLargeError,
    Subgroup,
    centralizer,
    class_below,
    closure,
    commutator,
    derived_subgroup,
)

# spans past this order report bilinearity_ok as null; the class test no
# longer needs the bound, which stays so that reports keep their bytes
BILINEARITY_MAX_SPAN = 512


class SymplecticSequence:
    """A certified sequence; a plain class so that ``span`` can be cached."""

    def __init__(
        self, group: FiniteGroup, elements: tuple[int, ...], r: int, c: int, nontrivial: bool
    ):
        self.group = group
        self.elements = elements
        self.r = r
        self.c = c
        self.nontrivial = nontrivial

    def __repr__(self):
        return f"SymplecticSequence({self.group.label}, {self.elements}, c={self.c})"

    def names(self) -> list[str]:
        return [self.group.name(e) for e in self.elements]

    @cached_property
    def span(self) -> tuple[FiniteGroup, "SymplecticSequence", tuple[int, ...]]:
        """S = <sequence>, materialized once: (S, sequence over S, to_parent).

        When the sequence spans its whole materialized group, S is that group
        and the sequence over S is this one.
        """
        S, to_parent = sequence_subgroup(self).as_group()
        if S is self.group:
            return S, self, to_parent
        back = {p: i for i, p in enumerate(to_parent)}
        inner = check_symplectic(S, [back[e] for e in self.elements])
        if not isinstance(inner, SymplecticSequence):
            raise AssertionError(f"sequence failed to re-certify in its span: {inner}")
        return S, inner, to_parent


class Violation(NamedTuple):
    kind: str  # "repeated-element" | "commutator-mismatch" | "must-commute"
    positions: tuple[int, ...]  # 1-based positions in the candidate list
    detail: str


class NotFoundWithinBudget(NamedTuple):
    budget: int
    expanded: int


class ExhaustedNone(NamedTuple):
    expanded: int


SearchResult = Union[SymplecticSequence, NotFoundWithinBudget, ExhaustedNone]


def check_symplectic(
    G: FiniteGroup, candidates: Sequence[int]
) -> Union[SymplecticSequence, Violation]:
    """Certify the commutation pattern of a candidate list of element ids."""
    els = tuple(candidates)
    if len(els) < 2 or len(els) % 2 != 0:
        raise ValueError(f"candidate list must have even length >= 2, got {len(els)}")
    known = G.order if G.materialized else len(G._key_of)
    for e in els:
        if e < 0 or e >= known:
            raise ValueError(f"element id {e} out of range for {G.label}")
    if any(e == 0 for e in els):
        raise ValueError("sequences consist of non-identity elements")
    r = len(els) // 2
    if len(set(els)) != len(els):
        dup = next(e for e in els if els.count(e) > 1)
        pos = tuple(i + 1 for i, e in enumerate(els) if e == dup)
        return Violation("repeated-element", pos, f"element id {dup} repeats")
    c = commutator(G, els[0], els[r])
    for i in range(1, r):
        ci = commutator(G, els[i], els[i + r])
        if ci != c:
            return Violation(
                "commutator-mismatch",
                (i + 1, i + r + 1),
                f"[g_{i + 1}, g_{i + 1 + r}] differs from [g_1, g_{1 + r}]",
            )
    for i in range(2 * r):
        for j in range(i + 1, 2 * r):
            if j - i == r:
                continue
            if commutator(G, els[i], els[j]) != 0:
                return Violation(
                    "must-commute",
                    (i + 1, j + 1),
                    f"[g_{i + 1}, g_{j + 1}] != 1 but |i-j| != r",
                )
    return SymplecticSequence(G, els, r, c, c != 0)


def canonical_form(seq: SymplecticSequence) -> SymplecticSequence:
    """Lexicographically least representative under the index symmetries.

    Allowed symmetries: simultaneous permutations of the partner pairs, the
    global swap of the two halves (which inverts c), and individual pair
    swaps when c is an involution.  Pair permutations are only searched for
    r <= 5; larger r keeps the block order as found.
    """
    r = seq.r
    G = seq.group
    pairs = [(seq.elements[i], seq.elements[i + r]) for i in range(r)]
    per_pair_swap = seq.c == G.inverse(seq.c)
    block_orders = permutations(range(r)) if r <= 5 else [tuple(range(r))]
    best: Optional[tuple[int, ...]] = None
    for order in block_orders:
        arranged = [pairs[i] for i in order]
        if per_pair_swap:
            swap_masks = range(1 << r) if r <= 5 else [0]
        else:
            swap_masks = (0, (1 << r) - 1)  # identity or the global swap
        for mask in swap_masks:
            cand = [
                (b, a) if (mask >> i) & 1 else (a, b)
                for i, (a, b) in enumerate(arranged)
            ]
            flat = tuple(x for x, _ in cand) + tuple(y for _, y in cand)
            if best is None or flat < best:
                best = flat
    out = check_symplectic(G, best)
    assert isinstance(out, SymplecticSequence)
    return out


def find_symplectic(
    G: FiniteGroup, r: int = 2, budget: int = DEFAULT_SEARCH_BUDGET
) -> SearchResult:
    """Depth-first search for a nontrivial sequence of length 2r.

    Slots are filled pairwise ((1, 1+r), (2, 2+r), ...) in canonical element
    order, pruning by the centralizer constraints and the fixed commutator.
    A node is one unplaced id in 1..n-1 tried for one slot, in ascending
    order, pruned or not; only ids that pass the centralizer constraints are
    visited, the pruned ones counted in bulk.  The search stops at the first
    node past the budget; ExhaustedNone means every slot ran out of nodes.
    """
    if budget <= 0:
        raise ValueError(f"search budget must be positive, got {budget}")
    if r < 2:
        raise ValueError(f"the search targets the r >= 2 regime, got r={r}")
    if not G.materialized:
        raise GroupTooLargeError(
            f"{G.label} is too large to enumerate candidates; certify an "
            f"explicit candidate list instead"
        )
    n = G.order
    slot_pos = []  # 0-based positions into the sequence, pair by pair
    for i in range(r):
        slot_pos.extend((i, i + r))
    assigned: dict[int, int] = {}  # position -> element id
    used: list[int] = []  # the placed ids, ascending
    state = {"expanded": 0, "exhausted": True}

    def dfs(depth: int) -> Optional[tuple[int, ...]]:
        if depth == 2 * r:
            return tuple(assigned[p] for p in range(2 * r))
        pos = slot_pos[depth]
        partner = pos - r if pos >= r else pos + r
        partner_val = assigned.get(partner)
        c = None
        if len(assigned) >= 2:
            c = commutator(G, assigned[0], assigned[r])
        cents = [centralizer(G, h) for p, h in assigned.items() if p != partner]
        allowed = sorted(set(cents[0]).intersection(*cents[1:])) if cents else range(n)
        base = state["expanded"]  # id g is node g - #(used ids < g) of this frame
        for g in allowed:
            if g == 0 or g in used:
                continue
            node = g - bisect_left(used, g)
            if base + node > budget:
                break
            state["expanded"] = base + node
            if partner_val is not None:
                cc = commutator(G, partner_val, g)
                if cc == 0 or (c is not None and cc != c):  # c != 1 once set
                    continue
            assigned[pos] = g
            insort(used, g)
            got = dfs(depth + 1)
            if got is not None:
                return got
            del assigned[pos]
            used.remove(g)
            if not state["exhausted"]:
                return None
            base = state["expanded"] - node
        end = base + n - 1 - len(used)
        if end > budget:
            end, state["exhausted"] = budget, False
        state["expanded"] = end
        return None

    found = dfs(0)
    if found is None:
        if state["exhausted"]:
            return ExhaustedNone(expanded=state["expanded"])
        return NotFoundWithinBudget(budget=budget, expanded=state["expanded"])
    seq = check_symplectic(G, found)
    assert isinstance(seq, SymplecticSequence) and seq.nontrivial
    return canonical_form(seq)


def sequence_subgroup(seq: SymplecticSequence) -> Subgroup:
    """The subgroup of the ambient group spanned by the sequence."""
    return closure(seq.group, seq.elements)


class StructureReport(NamedTuple):
    span_order: int
    c_order: int
    derived_equals_c_span: bool
    c_in_center: bool
    bilinearity_ok: Optional[bool]  # None past BILINEARITY_MAX_SPAN

    @property
    def all_passed(self) -> bool:
        return (
            self.derived_equals_c_span
            and self.c_in_center
            and self.bilinearity_ok in (True, None)
        )


def structure_report(seq: SymplecticSequence) -> StructureReport:
    """Verify the span's commutator structure: [S,S] = <c>, centrality of c,
    and (for spans of order <= BILINEARITY_MAX_SPAN) bilinearity of the
    commutator, [xy, z] = [x, z][y, z] for all x, y, z.

    Bilinearity is class <= 2.  Fix z: since [xy, z] = x[y, z]x^-1 [x, z],
    the identity for all x, y says that z x z^-1 centralizes every [y, z],
    and x -> z x z^-1 is onto, so every [y, z] is central; conversely a
    central [G, G] makes the commutator bilinear.  So it is
    ``class_below(S, S.generators, 3)``."""
    S, inner, _ = seq.span
    c = inner.c
    small = S.order <= BILINEARITY_MAX_SPAN
    return StructureReport(
        span_order=S.order,
        c_order=S.element_order(c),
        derived_equals_c_span=derived_subgroup(S).members == closure(S, [c]).members,
        c_in_center=len(centralizer(S, c)) == S.order,
        bilinearity_ok=class_below(S, S.generators, 3) if small else None,
    )
