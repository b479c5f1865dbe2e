"""The abelian-subgroup colimit, the multiplication-kernel subgroup D2, and
the machine checks tying them together.

Everything here works through words over the canonical presentation (one
generator per non-identity element) traced in a closed coset table, which
solves the word problem for the finite quotients exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Optional, Union

from .coset_enum import (
    DEFAULT_COSET_LIMIT,
    CosetTable,
    TableNotClosedError,
    todd_coxeter,
    trace_word,
)
from .groups import (
    CAYLEY_MAX_ORDER,
    FiniteGroup,
    GroupTooLargeError,
    closure,
    commutator,
    derived_subgroup,
    nilpotency_class,
)
from .presentations import (
    PRESENTATION_MAX_ORDER,
    Word,
    build_presentation,
    commutator_word,
    concat_words,
    inverse_word,
    power_word,
    word_for_element,
)
from .symplectic import (
    DEFAULT_SEARCH_BUDGET,
    ExhaustedNone,
    NotFoundWithinBudget,
    SymplecticSequence,
    check_symplectic,
    find_symplectic,
)

# explicit D2 member sets are materialized for groups up to this order, where
# the n^2 member scan reads the group's Cayley table
D2_MEMBERS_MAX_ORDER = CAYLEY_MAX_ORDER

MERGE_EXHAUSTIVE_MAX_SPAN = 256
MERGE_SAMPLE_PAIRS = 512


# ---------------------------------------------------------------------------
# D2(G): the kernel of (x, y) -> xy [G,G] inside G x G
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class D2Subgroup:
    parent: FiniteGroup
    order: int
    derived_order: int
    members: Optional[frozenset[tuple[int, int]]]  # None above the size cap


def d2(G: FiniteGroup) -> D2Subgroup:
    """D2(G) with explicit members for groups of order <= 1024.

    The order is |G| * |[G,G]| in every case: for each x the second
    coordinate ranges over the coset x^-1 [G,G].
    """
    derived = derived_subgroup(G)
    order = G.order * derived.order
    members = None
    if G.order <= D2_MEMBERS_MAX_ORDER:
        dset = frozenset(derived.members)
        members = frozenset(
            (x, y)
            for x in G.elements()
            for y in G.elements()
            if G.multiply(x, y) in dset
        )
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
    gens = [(g, G.inverse(g)) for g in G.elements() if g != 0]
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        new = []
        for (x, y) in frontier:
            for (a, b) in gens:
                nxt = (G.multiply(x, a), G.multiply(y, b))
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    return seen == target.members


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
# the counit: coset -> group element, and kernel bookkeeping
# ---------------------------------------------------------------------------

def epsilon_images(t: CosetTable) -> list[int]:
    """Element of the source group represented by each coset (BFS from 0)."""
    if not t.closed:
        raise TableNotClosedError("epsilon needs a closed table")
    P = t.presentation
    G = P.group
    images = [-1] * t.coset_count
    images[0] = 0
    for x, s, y in t.breadth_first():
        e = P.generators[abs(s) - 1]
        images[y] = G.multiply(images[x], e if s > 0 else G.inverse(e))
    if any(v == -1 for v in images):
        raise AssertionError("coset table is not transitive")
    return images


def epsilon_bar_images(t: CosetTable) -> list[tuple[int, int]]:
    """Image of each coset under (g) -> (g, g^-1) into G x G.

    Assigned by BFS from coset 0 and then certified on every table edge, so
    the assignment is independent of representative words: this is the
    machine check that the map is well defined on the enumerated quotient.
    """
    if not t.closed:
        raise TableNotClosedError("the pair map needs a closed table")
    P = t.presentation
    G = P.group
    pair: dict[int, tuple[int, int]] = {}  # signed generator -> (u, v)
    for j, e in enumerate(P.generators, 1):
        inv = G.inverse(e)
        pair[j] = (e, inv)
        pair[-j] = (inv, e)
    images: list[Optional[tuple[int, int]]] = [None] * t.coset_count
    images[0] = (0, 0)
    for x, s, y in t.breadth_first():
        a, b = images[x]
        u, v = pair[s]
        images[y] = (G.multiply(a, u), G.multiply(b, v))
    for x in range(t.coset_count):
        a, b = images[x]
        for s, (u, v) in pair.items():
            target = (G.multiply(a, u), G.multiply(b, v))
            if images[t.trace((s,), x)] != target:
                raise AssertionError(
                    "the pair substitution is inconsistent across the table"
                )
    return images  # type: ignore[return-value]


def certified_bar_counit_isomorphism(thm: "Theorem1Report") -> bool:
    """Full certificate that the pair map is an isomorphism onto D2(S).

    Combines the edge-level well-definedness of epsilon_bar_images with
    injectivity (all coset images distinct) and exact image equality with
    the explicit D2 member set.
    """
    if thm.table is None or not thm.table.closed:
        return False
    S = thm.s_group
    images = epsilon_bar_images(thm.table)
    if len(set(images)) != len(images):
        return False
    target = d2(S)
    if target.members is None:
        return False
    return set(images) == set(target.members)


def coset_words(t: CosetTable) -> list[Word]:
    """A representative word for every coset (BFS from 0, shortest-first)."""
    if not t.closed:
        raise TableNotClosedError("representative words need a closed table")
    words: list[Optional[Word]] = [None] * t.coset_count
    words[0] = ()
    for x, s, y in t.breadth_first():
        words[y] = words[x] + (s,)
    return words  # type: ignore[return-value]


def coset_order(t: CosetTable, word: Word) -> int:
    """Order of the group element represented by a word, by iterated tracing."""
    x = trace_word(t, word)
    n = 1
    y = x
    while y != 0:
        y = t.trace(word, y)
        n += 1
    return n


@dataclass(frozen=True)
class KernelReport:
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


def span_as_group(
    seq: SymplecticSequence,
) -> tuple[FiniteGroup, SymplecticSequence, tuple[int, ...]]:
    """Materialize S = <sequence> standalone; re-certify the sequence there.

    Returns (S, sequence over S, to_parent id map).
    """
    sub = closure(seq.group, seq.elements)
    S, to_parent = sub.as_group()
    back = {p: i for i, p in enumerate(to_parent)}
    inner = check_symplectic(S, [back[e] for e in seq.elements])
    if not isinstance(inner, SymplecticSequence):
        raise AssertionError(f"sequence failed to re-certify in its span: {inner}")
    return S, inner, to_parent


# ---------------------------------------------------------------------------
# Theorem-level checks
# ---------------------------------------------------------------------------

@dataclass
class Theorem1Report:
    """Outcome of comparing |N2(S)| against |D2(S)| by enumeration."""

    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"
    s_order: int
    d2_order: int
    n2_order: Optional[int]
    state: str
    kernel: Optional[KernelReport]
    d2_members_in_parent_d2: Optional[bool]
    # working objects for follow-up checks
    s_group: FiniteGroup = field(repr=False, default=None)
    sequence: SymplecticSequence = field(repr=False, default=None)
    table: Optional[CosetTable] = field(repr=False, default=None)
    parent_d2: Optional[D2Subgroup] = field(repr=False, default=None)


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
    S, inner, to_parent = span_as_group(seq)
    d2sub = d2(S)
    P = build_presentation(S, 2)
    t = todd_coxeter(P, coset_limit)
    G = seq.group
    parent_d2 = d2(G) if G.materialized and G.order <= D2_MEMBERS_MAX_ORDER else None
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


@dataclass(frozen=True)
class LemmaSuiteReport:
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
    c_order = S.element_order(c) if c != 0 else 1

    kw = k_word(S, seq, 1)
    k_coset = trace_word(t, kw)
    k_values_equal = all(
        trace_word(t, k_word(S, seq, i)) == k_coset for i in range(1, r + 1)
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
            if trace_word(t, power_word(kw, m)) != trace_word(t, rhs):
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
            if trace_word(t, lhs) != trace_word(t, power_word(kw, alpha)):
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
                            if trace_word(t, lhs) != trace_word(
                                t, power_word(base, n)
                            ):
                                adbc_ok = False

    k_central = all(
        t.trace(kw, trace_word(t, (j,))) == trace_word(t, concat_words(kw, (j,)))
        for j in range(1, t.presentation.num_generators + 1)
    )

    eps = epsilon_images(t)
    kernel = {x for x in range(t.coset_count) if eps[x] == 0}
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


@dataclass(frozen=True)
class SpanEmbeddingReport:
    """How the span's colimit sits inside a closed ambient colimit.

    ``sequence_generated_order`` is the order of the subgroup generated by
    the canonical images of the 2r sequence elements alone.  In the verified
    instances that subgroup is a proper complement of the central <k>: the
    image of the whole span colimit also needs the product generators, so
    image_order = |k| * sequence_generated_order.
    """

    well_defined: bool
    injective: bool
    image_order: int
    sequence_generated_order: int

    @property
    def embeds(self) -> bool:
        return self.well_defined and self.injective


def span_map_into_ambient_colimit(
    seq: SymplecticSequence,
    g_table: CosetTable,
    s_table: Optional[CosetTable] = None,
) -> Optional[SpanEmbeddingReport]:
    """Machine check of the embedding claim when the ambient colimit closes.

    Maps each coset of the span's colimit into the ambient one by relabeling
    its representative word, verifies the mapped relators all die (the map
    is well defined) and that distinct cosets stay distinct, and measures
    the subgroup generated by the sequence images for comparison.
    """
    G = seq.group
    if g_table.presentation.group is not G:
        raise ValueError("ambient table does not belong to the sequence's group")
    if not g_table.closed:
        return None
    S, inner, to_parent = span_as_group(seq)
    if s_table is None:
        s_table = todd_coxeter(build_presentation(S, 2), g_table.limit)
    if not s_table.closed:
        return None

    def relabel(word: Word) -> Word:
        return tuple(to_parent[x] if x > 0 else -to_parent[-x] for x in word)

    well_defined = all(
        trace_word(g_table, relabel(rel)) == 0
        for rel in s_table.presentation.relators
    )
    words = coset_words(s_table)
    images = [trace_word(g_table, relabel(w)) for w in words]
    injective = len(set(images)) == len(images)
    # reachable set of coset 0 under the sequence-image generators only
    gens = [s for e in inner.elements for s in (to_parent[e], -to_parent[e])]
    reached = 1 + sum(1 for _ in g_table.breadth_first(gens))
    return SpanEmbeddingReport(
        well_defined=well_defined,
        injective=injective,
        image_order=len(set(images)),
        sequence_generated_order=reached,
    )


@dataclass(frozen=True)
class SequenceImageReport:
    is_symplectic: bool
    nontrivial: bool
    commutator_coset: Optional[int]


def sequence_image_in_n2(seq: SymplecticSequence, t: CosetTable) -> SequenceImageReport:
    """Do the generator images {(g_i)} form a symplectic sequence in N2(S)?

    All checks happen at the word level in the closed table: partner pairs
    share one commutator coset, all other pairs commute, and nontriviality
    means that common coset is not the identity coset.
    """
    if not t.closed:
        raise TableNotClosedError("needs a closed table")
    S = t.presentation.group
    if seq.group is not S:
        raise ValueError("sequence must live in the enumerated group")
    r = seq.r
    words = [word_for_element(e) for e in seq.elements]
    common = None
    ok = True
    for i in range(2 * r):
        for j in range(i + 1, 2 * r):
            cw = commutator_word(words[i], words[j])
            coset = trace_word(t, cw)
            if j - i == r:
                if common is None:
                    common = coset
                elif coset != common:
                    ok = False
            else:
                if coset != 0:
                    ok = False
    return SequenceImageReport(ok, ok and common != 0, common)


@dataclass(frozen=True)
class OmegaReport:
    n: int
    well_defined: bool
    involutive: Optional[bool]  # only evaluated for n = -1


def omega_check(t: CosetTable, n: int) -> OmegaReport:
    """Is the power substitution (g) -> (g^n) a well-defined endomorphism?

    The substitution is applied to every relator and traced; all images must
    die.  For n = -1 the induced coset map is additionally checked to be an
    involution, which makes it an automorphism.
    """
    if not t.closed:
        raise TableNotClosedError("needs a closed table")
    P = t.presentation
    S = P.group

    sub_word: dict[int, Word] = {}

    def omega_of(signed: int) -> Word:
        w = sub_word.get(signed)
        if w is None:
            e = abs(signed)
            en = S.power(e, n)
            w = word_for_element(en)
            if signed < 0:
                w = inverse_word(w)
            sub_word[signed] = w
        return w

    well = True
    for rel in P.relators:
        image = concat_words(*(omega_of(x) for x in rel))
        if trace_word(t, image) != 0:
            well = False
            break
    involutive = None
    if n == -1 and well:
        phi = [-1] * t.coset_count
        phi[0] = 0
        for x, s, y in t.breadth_first():
            phi[y] = t.trace(omega_of(s), phi[x])
        involutive = all(phi[phi[x]] == x for x in range(t.coset_count))
    return OmegaReport(n, well, involutive)


# ---------------------------------------------------------------------------
# top-level verdicts
# ---------------------------------------------------------------------------

@dataclass
class KPi1Verdict:
    answer: str  # "NOT_K_PI_1" | "K_PI_1" | "INCONCLUSIVE"
    reason: str
    certificate: Optional[dict]
    search: Optional[Union[SymplecticSequence, ExhaustedNone, NotFoundWithinBudget]]
    theorem1: Optional[Theorem1Report]
    kernel: Optional[KernelReport]
    g_table: Optional[CosetTable] = field(repr=False, default=None)
    budgets: dict = field(default_factory=dict)


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
    if G.is_abelian:  # decidable from the generators alone, even when lazy
        g_table = None
        if G.materialized and G.order <= PRESENTATION_MAX_ORDER:
            g_table = todd_coxeter(build_presentation(G, 2), coset_limit)
        return KPi1Verdict(
            "K_PI_1",
            "abelian: the commuting classifying space is the classifying space",
            None,
            None,
            None,
            epsilon_kernel(G, g_table) if g_table is not None and g_table.closed else None,
            g_table,
            budgets,
        )

    search: Optional[Union[SymplecticSequence, ExhaustedNone, NotFoundWithinBudget]]
    if seed_sequence is not None:
        checked = check_symplectic(G, seed_sequence)
        if not isinstance(checked, SymplecticSequence):
            raise ValueError(f"seed sequence failed certification: {checked}")
        search = checked
    else:
        try:
            search = find_symplectic(G, 2, search_budget)
        except GroupTooLargeError:
            search = None
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
            thm.table if thm.s_order == G.order else None,
            budgets,
        )

    # no sequence: fall back to enumerating the colimit of G itself
    g_table = None
    kern = None
    if G.materialized and G.order <= PRESENTATION_MAX_ORDER:
        g_table = todd_coxeter(build_presentation(G, 2), coset_limit)
        if g_table.closed:
            kern = epsilon_kernel(G, g_table)
            if kern.kernel_order and kern.kernel_order > 1:
                words = coset_words(g_table)
                eps = epsilon_images(g_table)
                witness = next(
                    x for x in range(1, g_table.coset_count) if eps[x] == 0
                )
                cert = {
                    "type": "torsion-kernel-element",
                    "word": list(words[witness]),
                    "order": coset_order(g_table, words[witness]),
                    "kernel_order": kern.kernel_order,
                }
                return KPi1Verdict(
                    "NOT_K_PI_1",
                    "counit kernel has torsion",
                    cert,
                    search,
                    None,
                    kern,
                    g_table,
                    budgets,
                )
        else:
            budgets["coset_limit_hit"] = g_table.high_water
    else:
        budgets["enumeration_skipped"] = "group too large to present"

    return KPi1Verdict(
        "INCONCLUSIVE",
        "no certificate within the given budgets",
        None,
        search,
        None,
        kern,
        g_table,
        budgets,
    )


@dataclass(frozen=True)
class ConjectureReport:
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
