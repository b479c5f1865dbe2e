"""The abelian-subgroup colimit, the multiplication-kernel subgroup D2, and
the machine checks tying them together.

Everything here works through words over the canonical presentation (one
generator per non-identity element) traced in a closed coset table, which
solves the word problem for the finite quotients exactly.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import add
from random import Random
from typing import NamedTuple, Optional, Union

from .budgets import DEFAULT_COSET_LIMIT, DEFAULT_SEARCH_BUDGET
from .coset_enum import CosetTable, TableNotClosedError, todd_coxeter
from .groups import (
    FiniteGroup,
    GroupTooLargeError,
    closure,
    commutator,
    derived_subgroup,
    nilpotency_class,
)
from .presentations import (
    Word,
    build_presentation,
    commutator_word,
    concat_words,
    inverse_word,
    power_word,
    word_for_element,
)
from .symplectic import (
    ExhaustedNone,
    NotFoundWithinBudget,
    SymplecticSequence,
    check_symplectic,
    find_symplectic,
)

# explicit D2 member sets are materialized for groups up to this order, where
# the n^2 member scan reads the group's Cayley table.  It stays below the table
# cap: a member set holds |G| * |[G,G]| pairs (about 16 M for a perfect group
# near 4096), and raising it would add a "d2" section to the verdict report of
# every group of order 1025-4096.
D2_MEMBERS_MAX_ORDER = 1 << 10

MERGE_EXHAUSTIVE_MAX_SPAN = 256
MERGE_SAMPLE_PAIRS = 512


# ---------------------------------------------------------------------------
# D2(G): the kernel of (x, y) -> xy [G,G] inside G x G
# ---------------------------------------------------------------------------

class D2Subgroup(NamedTuple):
    parent: FiniteGroup
    order: int
    derived_order: int
    members: Optional[frozenset[tuple[int, int]]]  # None above the size cap


def d2(G: FiniteGroup) -> D2Subgroup:
    """D2(G) with explicit members for groups of order <= D2_MEMBERS_MAX_ORDER.

    The order is |G| * |[G,G]| in every case: for each x the second
    coordinate ranges over the coset x^-1 [G,G].  The member cap is 1024, below
    the Cayley-table cap, because the set holds |G| * |[G,G]| pairs.
    """
    derived = derived_subgroup(G)
    order = G.order * derived.order
    members = None
    if G.order <= D2_MEMBERS_MAX_ORDER:
        # one gather per y: the x with x*y in [G,G], read down the column cols[y]
        in_derived, ids = frozenset(derived.members).__contains__, G.elements()
        members = frozenset(chain.from_iterable(
            zip(compress(ids, map(in_derived, col)), repeat(y))
            for y, col in enumerate(G.cayley_columns())
        ))
        if len(members) != order:
            raise AssertionError("D2 member scan disagrees with |G|*|[G,G]|")
    return D2Subgroup(G, order, derived.order, members)


def d2_antidiagonal_generation(
    G: FiniteGroup, target: Optional[D2Subgroup] = None
) -> bool:
    """Does {(g, g^-1)} generate all of D2(G) (``target``, if given) inside G x G?"""
    target = target or d2(G)
    if target.members is None:
        raise GroupTooLargeError(
            f"{G.label}: antidiagonal generation needs the explicit member set"
        )
    # add each pair (g, g^-1) not yet reached, then close by a breadth-first walk
    # over pairs coded x * n + y: two Cayley-column gathers per step and level
    n, cols = G.order, G.cayley_columns()
    times_n = range(0, n * n, n).__getitem__
    seen, steps = {0}, []
    for g, g_inv in enumerate(map(G.inverse, range(n))):
        if g * n + g_inv not in seen:
            steps.append((cols[g].__getitem__, cols[g_inv].__getitem__))
            frontier = seen
            while frontier:
                xs, ys = zip(*map(divmod, frontier, repeat(n)))
                reached = (map(add, map(times_n, map(a, xs)), map(b, ys)) for a, b in steps)
                frontier = set().union(*reached) - seen
                seen |= frontier
    return set(map(divmod, seen, repeat(n))) == target.members


def d2_projection_kernel(sub: D2Subgroup) -> frozenset[tuple[int, int]]:
    """Members of D2 with trivial first coordinate (should be 1 x [G,G])."""
    if sub.members is None:
        raise GroupTooLargeError("explicit member set required")
    return frozenset(p for p in sub.members if p[0] == 0)


def d2_projection_kernel_is_derived(G: FiniteGroup, sub: D2Subgroup) -> bool:
    derived = derived_subgroup(G)
    expected = frozenset((0, y) for y in derived.members)
    return d2_projection_kernel(sub) == expected


# ---------------------------------------------------------------------------
# the counit, read off a table as its ``epsilon``, and kernel bookkeeping
# ---------------------------------------------------------------------------

def coset_words(t: CosetTable) -> list[Word]:
    """A representative word for every coset (BFS from 0, shortest-first)."""
    words: list[Optional[Word]] = [None] * t.coset_count
    words[0] = ()
    for x, s, y in t.breadth_first():
        words[y] = words[x] + (s,)
    return words  # type: ignore[return-value]


def coset_order(t: CosetTable, word: Word) -> int:
    """Order of the group element represented by a word, by iterated tracing."""
    x = t.trace(word)
    n = 1
    y = x
    while y != 0:
        y = t.trace(word, y)
        n += 1
    return n


class KernelReport(NamedTuple):
    n2_order: Optional[int]
    kernel_order: Optional[int]
    kernel_is_torsion_free: Optional[bool]
    k_order: Optional[int]
    verdict: str


def epsilon_kernel(
    G: FiniteGroup, t: CosetTable, seq: Optional[SymplecticSequence] = None
) -> KernelReport:
    """Kernel data of the counit N2 -> G read off a closed table.

    A finite nontrivial kernel always has torsion, so torsion-freeness is
    equivalent to kernel order 1 here.  When a sequence (certified inside
    the enumerated group) is supplied, the order of its word k is included.
    """
    if not t.closed:
        return KernelReport(None, None, None, None, "enumeration did not close")
    if t.presentation.group is not G:
        raise ValueError("table does not belong to the given group")
    count = t.coset_count
    if count % G.order != 0:
        raise AssertionError("coset count is not a multiple of |G|")
    kernel_order = count // G.order
    k_order = None
    if seq is not None:
        k_order = coset_order(t, k_word(G, seq))
    if kernel_order == 1:
        verdict = "kernel trivial, hence torsion free"
    else:
        verdict = f"kernel of order {kernel_order} in a finite group: torsion"
    return KernelReport(count, kernel_order, kernel_order == 1, k_order, verdict)


# ---------------------------------------------------------------------------
# words attached to a symplectic sequence
# ---------------------------------------------------------------------------

def k_word(S: FiniteGroup, seq: SymplecticSequence, i: int = 1) -> Word:
    """k_i = (g_i g_{i+r})^-1 (g_i) (g_{i+r}) as a word (i is 1-based)."""
    g = seq.elements[i - 1]
    h = seq.elements[i - 1 + seq.r]
    gh = S.multiply(g, h)
    return concat_words(
        inverse_word(word_for_element(gh)),
        word_for_element(g),
        word_for_element(h),
    )


# ---------------------------------------------------------------------------
# Theorem-level checks
# ---------------------------------------------------------------------------

class Theorem1Report(NamedTuple):
    """Outcome of comparing |N2(S)| against |D2(S)| by enumeration."""

    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"
    s_order: int
    d2_order: int
    n2_order: Optional[int]
    state: str
    kernel: Optional[KernelReport]
    d2_members_in_parent_d2: Optional[bool]
    # working objects for follow-up checks
    s_group: FiniteGroup = None
    sequence: SymplecticSequence = None
    table: Optional[CosetTable] = None
    parent_d2: Optional[D2Subgroup] = None

    def __repr__(self):
        return f"Theorem1Report({self.verdict}, |N2(S)|={self.n2_order}, |D2(S)|={self.d2_order})"


def theorem1_verify(
    seq: SymplecticSequence, coset_limit: int = DEFAULT_COSET_LIMIT
) -> Theorem1Report:
    """Check that N2(S) -> D2(S) is an isomorphism for the span of a
    nontrivial sequence with r >= 2.

    Surjectivity holds for every group (the antidiagonal generates), so a
    closed enumeration with |N2(S)| = |D2(S)| forces the isomorphism; order
    mismatch is a FAIL, and a non-closing enumeration stays INCONCLUSIVE.
    """
    if not seq.nontrivial:
        raise ValueError("theorem 1 needs a nontrivial sequence")
    if seq.r < 2:
        raise ValueError("theorem 1 needs r >= 2")
    S, inner, to_parent = seq.span
    d2sub = d2(S)
    P = build_presentation(S, 2)
    t = todd_coxeter(P, coset_limit)
    G = seq.group
    parent_d2 = None
    if S is G:
        parent_d2 = d2sub
    elif G.materialized and G.order <= D2_MEMBERS_MAX_ORDER:
        parent_d2 = d2(G)
    inclusion_ok = _d2_members_included(to_parent, d2sub, parent_d2)
    if not t.closed:
        return Theorem1Report(
            "INCONCLUSIVE", S.order, d2sub.order, None, t.state, None,
            inclusion_ok, S, inner, t, parent_d2,
        )
    kern = epsilon_kernel(S, t, inner)
    verdict = "PASS" if t.coset_count == d2sub.order else "FAIL"
    return Theorem1Report(
        verdict, S.order, d2sub.order, t.coset_count, t.state, kern,
        inclusion_ok, S, inner, t, parent_d2,
    )


def _d2_members_included(to_parent, d2_of_s, parent_d2) -> Optional[bool]:
    """D2(S) ⊆ D2(G) as pair sets, when the parent is small enough to scan."""
    if parent_d2 is None or d2_of_s.members is None:
        return None
    return all(
        (to_parent[x], to_parent[y]) in parent_d2.members
        for (x, y) in d2_of_s.members
    )


class LemmaSuiteReport(NamedTuple):
    """Word-level checks of the structural relations in N2(S)."""

    k_values_equal: bool
    k_order: int
    c_order: int
    power_identity_ok: bool
    merge_identity_ok: bool
    merge_pairs_checked: int
    merge_exhaustive: bool
    adbc_law_ok: bool
    k_central: bool
    kernel_is_k_span: bool
    kernel_order: int
    seed: int

    @property
    def all_passed(self) -> bool:
        return (
            self.k_values_equal
            and self.power_identity_ok
            and self.merge_identity_ok
            and self.adbc_law_ok
            and self.k_central
            and self.kernel_is_k_span
        )


def lemma_suite(
    seq: SymplecticSequence, t: CosetTable, seed: int = 0
) -> LemmaSuiteReport:
    """Trace the structural relations of N2(S) in a closed table.

    The sequence must be certified inside the enumerated group itself.
    Checks: k_i independence of i, the power identity for k^m, the merge
    identity on <g_i, g_{i+r}> (exhaustive up to 256 elements, seeded
    sampling beyond), the ad-bc commutator exponent law (both signs arise),
    centrality of k, and ker(epsilon) = <k>.
    """
    if not t.closed:
        raise TableNotClosedError("the lemma suite needs a closed table")
    S = t.presentation.group
    if seq.group is not S:
        raise ValueError("sequence must live in the enumerated group")
    r = seq.r
    els = seq.elements
    c = seq.c
    c_order = S.element_order(c)

    kw = k_word(S, seq, 1)
    k_coset = t.trace(kw)
    k_values_equal = all(
        t.trace(k_word(S, seq, i)) == k_coset for i in range(1, r + 1)
    )
    k_order = coset_order(t, kw)

    # powers of c for discrete logs, and coset powers of k
    c_pow = {}
    x = 0
    for a in range(c_order):
        c_pow[x] = a
        x = S.multiply(x, c)
    k_cosets = []
    y = 0
    for _ in range(k_order):
        k_cosets.append(y)
        y = t.trace(kw, y)

    power_ok = True
    for i in range(1, r + 1):
        g, h = els[i - 1], els[i - 1 + r]
        for m in range(1, c_order + 1):
            gm = S.power(g, m)
            rhs = concat_words(
                inverse_word(word_for_element(S.multiply(gm, h))),
                word_for_element(gm),
                word_for_element(h),
            )
            if t.trace(power_word(kw, m)) != t.trace(rhs):
                power_ok = False

    merge_ok = True
    merge_checked = 0
    merge_exhaustive = True
    rng = Random(seed)
    for i in range(1, r + 1):
        g, h = els[i - 1], els[i - 1 + r]
        span = closure(S, [g, h])
        if span.order <= MERGE_EXHAUSTIVE_MAX_SPAN:
            pair_iter = [(x, y) for x in span.members for y in span.members]
        else:
            merge_exhaustive = False
            pair_iter = [
                (rng.choice(span.members), rng.choice(span.members))
                for _ in range(MERGE_SAMPLE_PAIRS)
            ]
        for (x, y) in pair_iter:
            alpha = c_pow.get(commutator(S, x, y))
            if alpha is None:
                merge_ok = False
                continue
            lhs = concat_words(
                word_for_element(x),
                word_for_element(y),
                inverse_word(word_for_element(S.multiply(x, y))),
            )
            if t.trace(lhs) != t.trace(power_word(kw, alpha)):
                merge_ok = False
            merge_checked += 1

    adbc_ok = True
    for i in range(1, r + 1):
        gi, hi = els[i - 1], els[i - 1 + r]
        for j in range(1, r + 1):
            base = commutator_word(
                word_for_element(els[j - 1]), word_for_element(els[j - 1 + r])
            )
            for a in range(c_order + 1):
                for b in range(c_order + 1):
                    u = S.multiply(S.power(gi, a), S.power(hi, b))
                    for cc in range(c_order + 1):
                        for dd in range(c_order + 1):
                            v = S.multiply(S.power(gi, cc), S.power(hi, dd))
                            lhs = commutator_word(
                                word_for_element(u), word_for_element(v)
                            )
                            n = a * dd - b * cc
                            if t.trace(lhs) != t.trace(power_word(base, n)):
                                adbc_ok = False

    k_central = all(
        t.trace(kw, t.trace((j,))) == t.trace(concat_words(kw, (j,)))
        for j in range(1, t.presentation.num_generators + 1)
    )

    kernel = {x for x, e in enumerate(t.epsilon) if e == 0}
    kernel_is_k_span = kernel == set(k_cosets)

    return LemmaSuiteReport(
        k_values_equal=k_values_equal,
        k_order=k_order,
        c_order=c_order,
        power_identity_ok=power_ok,
        merge_identity_ok=merge_ok,
        merge_pairs_checked=merge_checked,
        merge_exhaustive=merge_exhaustive,
        adbc_law_ok=adbc_ok,
        k_central=k_central,
        kernel_is_k_span=kernel_is_k_span,
        kernel_order=len(kernel),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# top-level verdicts
# ---------------------------------------------------------------------------

class KPi1Verdict(NamedTuple):
    answer: str  # "NOT_K_PI_1" | "K_PI_1" | "INCONCLUSIVE"
    reason: str
    certificate: Optional[dict]
    search: Optional[Union[SymplecticSequence, ExhaustedNone, NotFoundWithinBudget]]
    theorem1: Optional[Theorem1Report]
    kernel: Optional[KernelReport]
    g_table: Optional[CosetTable]
    budgets: dict

    def __repr__(self):
        return f"KPi1Verdict({self.answer}: {self.reason})"


def kpi1_verdict(
    G: FiniteGroup,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    coset_limit: int = DEFAULT_COSET_LIMIT,
    seed_sequence: Optional[list[int]] = None,
) -> KPi1Verdict:
    """Decide whether the commuting classifying space of G can be aspherical.

    NOT_K_PI_1 comes with a certificate: either a nontrivial symplectic
    sequence with r >= 2, or (when the colimit enumeration closes) a torsion
    element of the counit kernel.  Abelian groups are K_PI_1; everything
    else is INCONCLUSIVE with the exhausted budgets recorded.
    """
    budgets = {"search_budget": search_budget, "coset_limit": coset_limit}
    search: Optional[Union[SymplecticSequence, ExhaustedNone, NotFoundWithinBudget]] = None
    if not G.is_abelian:  # decidable from the generators alone, even when lazy
        if seed_sequence is not None:
            search = check_symplectic(G, seed_sequence)
            if not isinstance(search, SymplecticSequence):
                raise ValueError(f"seed sequence failed certification: {search}")
        else:
            try:
                search = find_symplectic(G, 2, search_budget)
            except GroupTooLargeError:
                budgets["search_skipped"] = "group too large to enumerate candidates"

    if isinstance(search, SymplecticSequence) and search.nontrivial:
        thm = theorem1_verify(search, coset_limit)
        cert = {
            "type": "symplectic-sequence",
            "r": search.r,
            "elements": list(search.elements),
            "element_names": search.names(),
            "c": search.c,
            "c_name": search.group.name(search.c),
            "c_order": search.group.element_order(search.c),
        }
        return KPi1Verdict(
            "NOT_K_PI_1",
            "nontrivial symplectic sequence with r >= 2",
            cert,
            search,
            thm,
            thm.kernel,
            thm.table if thm.s_group is G else None,
            budgets,
        )

    # abelian, or no sequence: enumerate the colimit of G itself
    g_table = kern = None
    if G.cayley_columns():
        g_table = todd_coxeter(build_presentation(G, 2), coset_limit)
        if g_table.closed:
            kern = epsilon_kernel(G, g_table)
    answer, reason, cert = "INCONCLUSIVE", "no certificate within the given budgets", None
    if G.is_abelian:
        answer = "K_PI_1"
        reason = "abelian: the commuting classifying space is the classifying space"
    elif g_table is None:
        budgets["enumeration_skipped"] = "group too large to present"
    elif not g_table.closed:
        budgets["coset_limit_hit"] = g_table.high_water
    elif kern.kernel_order and kern.kernel_order > 1:
        words = coset_words(g_table)
        witness = g_table.epsilon.index(0, 1)
        answer, reason = "NOT_K_PI_1", "counit kernel has torsion"
        cert = {
            "type": "torsion-kernel-element",
            "word": list(words[witness]),
            "order": coset_order(g_table, words[witness]),
            "kernel_order": kern.kernel_order,
        }
    return KPi1Verdict(answer, reason, cert, search, None, kern, g_table, budgets)


class ConjectureReport(NamedTuple):
    q: int
    nclass: Optional[int]  # None = not nilpotent
    predicted_iso: bool
    state: str
    coset_count: Optional[int]
    actual_iso: Optional[bool]
    verdict: str  # "agree" | "disagree" | "inconclusive"


def conjecture_probe(
    G: FiniteGroup, q: int, coset_limit: int = DEFAULT_COSET_LIMIT
) -> ConjectureReport:
    """Gather evidence for the nilpotency characterization at level q.

    The prediction is: the counit is an isomorphism exactly when the class
    of G is below q.  This probes single instances and never settles the
    general statement.
    """
    ncls = nilpotency_class(G)
    predicted = ncls is not None and ncls < q
    t = todd_coxeter(build_presentation(G, q), coset_limit)
    if not t.closed:
        # a non-closing enumeration can still agree when the prediction is
        # "not iso" only if we could prove infiniteness; we never claim that
        return ConjectureReport(q, ncls, predicted, t.state, None, None, "inconclusive")
    actual = t.coset_count == G.order
    verdict = "agree" if actual == predicted else "disagree"
    return ConjectureReport(q, ncls, predicted, t.state, t.coset_count, actual, verdict)
