"""Symplectic sequences: certification, search, and structure reports.

A sequence g_1, ..., g_2r of distinct non-identity elements is symplectic
when every partner pair (g_i, g_{i+r}) has one common commutator c and all
other pairs commute; it is nontrivial when c != 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence, Union

from .groups import (
    FiniteGroup,
    GroupTooLargeError,
    Subgroup,
    centralizer,
    closure,
    commutator,
    derived_subgroup,
)

DEFAULT_SEARCH_BUDGET = 10 ** 6

# beyond this span size the exhaustive three-variable bilinearity check is skipped
BILINEARITY_MAX_SPAN = 512


@dataclass(frozen=True)
class SymplecticSequence:
    group: FiniteGroup
    elements: tuple[int, ...]
    r: int
    c: int
    nontrivial: bool

    def names(self) -> list[str]:
        return [self.group.name(e) for e in self.elements]


@dataclass(frozen=True)
class Violation:
    kind: str  # "repeated-element" | "commutator-mismatch" | "must-commute"
    positions: tuple[int, ...]  # 1-based positions in the candidate list
    detail: str


@dataclass(frozen=True)
class NotFoundWithinBudget:
    budget: int
    expanded: int


@dataclass(frozen=True)
class ExhaustedNone:
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
    Every candidate placement counts against the node budget; ExhaustedNone
    is only reported when the whole pruned space was searched.
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
    used: set[int] = set()
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
        allowed = frozenset.intersection(*cents) if cents else range(n)
        for g in range(1, n):
            if g in used:
                continue
            if state["expanded"] >= budget:
                state["exhausted"] = False
                return None
            state["expanded"] += 1
            if g not in allowed:
                continue
            if partner_val is not None:
                cc = commutator(G, partner_val, g)
                if c is None:
                    if cc == 0:  # nontrivial sequences only
                        continue
                else:
                    if cc != c:
                        continue
            assigned[pos] = g
            used.add(g)
            got = dfs(depth + 1)
            if got is not None:
                return got
            del assigned[pos]
            used.discard(g)
            if state["expanded"] >= budget:
                return None
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


@dataclass(frozen=True)
class StructureReport:
    span_order: int
    c_order: int
    derived_equals_c_span: bool
    c_in_center: bool
    bilinearity_ok: Optional[bool]  # None when the span is too big to scan

    @property
    def all_passed(self) -> bool:
        return (
            self.derived_equals_c_span
            and self.c_in_center
            and self.bilinearity_ok in (True, None)
        )


def structure_report(seq: SymplecticSequence) -> StructureReport:
    """Verify the span's commutator structure: [S,S] = <c>, centrality of c,
    and (for spans of order <= 512) full bilinearity of the commutator."""
    G = seq.group
    span = sequence_subgroup(seq)
    derived = derived_subgroup(span)
    c_span = closure(G, [seq.c])
    c_in_center = all(
        G.multiply(seq.c, m) == G.multiply(m, seq.c) for m in span.members
    )
    bilinear: Optional[bool] = None
    if span.order <= BILINEARITY_MAX_SPAN:
        bilinear = _bilinearity_exhaustive(span)
    return StructureReport(
        span_order=span.order,
        c_order=G.element_order(seq.c) if seq.c != 0 else 1,
        derived_equals_c_span=derived.members == c_span.members,
        c_in_center=c_in_center,
        bilinearity_ok=bilinear,
    )


def _bilinearity_exhaustive(span: Subgroup) -> bool:
    """[xy, z] == [x, z][y, z] for all x, y, z in the span.

    The member-index table is read off the parent's Cayley table, or off the
    span's own when the parent is lazy.
    """
    import numpy as np

    G, members = span.parent, span.members
    if not G.cayley_columns():
        G = span.as_group()[0]
        members = G.elements()
    cols = G.cayley_columns()
    n = len(members)
    index = np.zeros(G.order, dtype=np.int32)
    index[list(members)] = np.arange(n)
    # mul[i, j] = index of m_i * m_j, comm[i, j] = index of [m_i, m_j]
    mul = index[np.array([cols[b] for b in members], dtype=np.int32)[:, members].T]
    inv = index[[G.inverse(a) for a in members]]
    comm = mul[mul, mul[np.ix_(inv, inv)]]
    for z in range(n):
        cz = comm[:, z]
        lhs = cz[mul]                    # [xy, z]
        rhs = mul[np.ix_(cz, cz)]        # [x, z][y, z]
        if not np.array_equal(lhs, rhs):
            return False
    return True
