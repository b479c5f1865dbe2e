"""Theorem-level machinery: D2, the counit kernel, lemma tracing, verdicts."""

import pytest

from nilcolim import build
from nilcolim.constructions import (
    extraspecial_symplectic_basis,
    gl_symplectic_sequence,
    seeded_gl_sequence_in_sym,
)
from nilcolim.colimit import (
    D2Subgroup,
    conjecture_probe,
    coset_words,
    d2,
    d2_antidiagonal_generation,
    d2_projection_kernel,
    d2_projection_kernel_is_derived,
    epsilon_kernel,
    k_word,
    kpi1_verdict,
    lemma_suite,
    theorem1_verify,
)
from nilcolim.coset_enum import (
    LIMIT_EXCEEDED,
    TableNotClosedError,
    todd_coxeter,
)
from nilcolim.groups import closure, derived_subgroup
from nilcolim.presentations import build_presentation, word_for_element
from nilcolim.snf import SNFResult, smith_normal_form
from nilcolim.symplectic import (
    ExhaustedNone,
    NotFoundWithinBudget,
    SymplecticSequence,
    Violation,
    check_symplectic,
    find_symplectic,
)

import oracles as O

D2_SUITE = ["cyclic:6", "cyclic:12", "product:(cyclic:2),(cyclic:4)", "sym:3",
            "dihedral:4", "quaternion", "extraspecial:2:2", "sym:4", "alt:4"]


# -- D2 --------------------------------------------------------------------------

@pytest.mark.parametrize("spec", D2_SUITE)
def test_d2_matches_brute_force(spec):
    G = build(spec)
    sub = d2(G)
    assert sub.order == G.order * derived_subgroup(G).order
    oracle = O.d2_pair_set(G.multiply, 0, range(G.order))
    assert sub.members == frozenset(oracle)


@pytest.mark.parametrize("spec", D2_SUITE)
def test_d2_antidiagonal_generates(spec):
    assert d2_antidiagonal_generation(build(spec))


@pytest.mark.parametrize("spec", D2_SUITE)
def test_d2_projection_kernel(spec):
    G = build(spec)
    sub = d2(G)
    assert d2_projection_kernel_is_derived(G, sub)
    kernel = d2_projection_kernel(sub)
    assert len(kernel) == derived_subgroup(G).order


def test_d2_abelian_is_graph_of_inversion():
    G = build("cyclic:6")
    sub = d2(G)
    assert sub.members == frozenset((x, G.inverse(x)) for x in range(6))


def test_d2_orders():
    assert d2(build("sym:3")).order == 18
    assert d2(build("extraspecial:2:2")).order == 64
    assert d2(build("extraspecial:3:2")).order == 729


def test_d2_antidiagonal_generation_odd_extraspecial():
    assert d2_antidiagonal_generation(build("extraspecial:3:2"))


@pytest.mark.parametrize("spec", [
    "cyclic:6", "sym:3", "dihedral:4", "quaternion", "alt:4", "extraspecial:2:2",
])
def test_antidiagonal_reaches_the_keyed_bfs_pair_set(spec):
    # True exactly when the pairs reached are the target's members
    G = build(spec)
    oracle = frozenset(O.antidiagonal_pair_set(G.multiply, 0, range(G.order)))
    target = D2Subgroup(G, len(oracle), derived_subgroup(G).order, oracle)
    assert d2_antidiagonal_generation(G, target)
    assert oracle == d2(G).members


def test_d2_antidiagonal_generation_false_for_a_larger_target():
    G = build("sym:3")
    everything = frozenset((x, y) for x in range(6) for y in range(6))
    assert not d2_antidiagonal_generation(G, D2Subgroup(G, 36, 6, everything))


# -- theorem 1 ---------------------------------------------------------------------

def test_theorem1_extraspecial_2():
    G, basis = extraspecial_symplectic_basis(2, 2)
    rep = theorem1_verify(check_symplectic(G, basis))
    assert rep.verdict == "PASS"
    assert rep.s_order == 32 and rep.d2_order == 64 and rep.n2_order == 64
    assert rep.kernel.kernel_order == 2 and rep.kernel.k_order == 2
    assert rep.d2_members_in_parent_d2 is True


def test_theorem1_extraspecial_3(e32_bundle):
    rep = e32_bundle
    assert rep.verdict == "PASS"
    assert rep.s_order == 243 and rep.d2_order == 729 and rep.n2_order == 729
    assert rep.kernel.kernel_order == 3 and rep.kernel.k_order == 3


def test_theorem1_gl42():
    gl, ids = gl_symplectic_sequence(4, 2)
    rep = theorem1_verify(check_symplectic(gl, ids))
    assert rep.verdict == "PASS"
    assert rep.s_order == 32 and rep.d2_order == 64 and rep.n2_order == 64
    assert rep.kernel.kernel_order == 2  # 64 / 32
    assert rep.kernel.k_order == 2


def test_theorem1_sym16_seeded():
    sym16, ids = seeded_gl_sequence_in_sym(16)
    rep = theorem1_verify(check_symplectic(sym16, ids))
    assert rep.verdict == "PASS"
    assert rep.s_order == 32 and rep.n2_order == 64


def test_theorem1_reads_the_sequence_span():
    G, basis = extraspecial_symplectic_basis(2, 2)
    seq = check_symplectic(G, basis)
    rep = theorem1_verify(seq)
    assert rep.s_group is seq.span[0] is G  # the basis spans G
    assert rep.sequence is seq and rep.parent_d2.parent is G
    sym16, ids = seeded_gl_sequence_in_sym(16)
    seq = check_symplectic(sym16, ids)
    rep = theorem1_verify(seq)
    assert rep.s_group is seq.span[0] and rep.s_group.order == 32
    assert rep.sequence is seq.span[1] and rep.parent_d2 is None


def test_theorem1_rejects_trivial_or_short():
    z = build("product:(cyclic:2),(product:(cyclic:2),(cyclic:2))")
    trivial = check_symplectic(z, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        theorem1_verify(trivial)
    G, basis = extraspecial_symplectic_basis(2, 1)
    short = check_symplectic(G, basis)
    assert short.nontrivial and short.r == 1
    with pytest.raises(ValueError):
        theorem1_verify(short)


def _assert_pair_map_is_onto_d2(rep):
    """The pair map (g) -> (g, g^-1) on the closed table of ``rep`` is a
    bijection onto D2(S): its images, from two breadth-first walks (the
    second steps by -s where the first steps by s), agree on every table
    edge, are distinct, and are the pairs (x, y) with xy in [S, S]."""
    t, S = rep.table, rep.s_group
    n, mul, inv = S.order, S.multiply, S.inverse

    def step(x, s):
        return t.trace((s,), x)

    firsts = O.counit_images(t.coset_count, step, mul, inv, n)
    seconds = O.counit_images(t.coset_count, lambda x, s: step(x, -s), mul, inv, n)
    pairs = list(zip(firsts, seconds))
    for x, (a, b) in enumerate(pairs):
        for j in range(1, n):
            assert pairs[step(x, j)] == (mul(a, j), mul(b, inv(j)))
            assert pairs[step(x, -j)] == (mul(a, inv(j)), mul(b, j))
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == O.d2_pair_set(mul, 0, range(n))


def test_theorem1_full_isomorphism_certificate():
    """Beyond order equality: the pair map itself is bijective onto D2(S),
    with well-definedness checked on every table edge."""
    G, basis = extraspecial_symplectic_basis(2, 2)
    _assert_pair_map_is_onto_d2(theorem1_verify(check_symplectic(G, basis)))
    gl, ids = gl_symplectic_sequence(4, 2)
    _assert_pair_map_is_onto_d2(theorem1_verify(check_symplectic(gl, ids)))


def test_theorem1_full_isomorphism_certificate_p3(e32_bundle):
    _assert_pair_map_is_onto_d2(e32_bundle)


def test_sequence_images_span_complement_of_k():
    """Inside N2(S) itself, <(g_1),...,(g_2r)> is a complement of <k>."""
    from nilcolim.coset_enum import todd_coxeter as tc

    for p in (2, 3):
        G, basis = extraspecial_symplectic_basis(p, 2)
        S, inner, _ = check_symplectic(G, basis).span
        t = tc(build_presentation(S, 2))
        gens = [s for e in inner.elements for s in (e, -e)]
        seen = {0}
        frontier = [0]
        while frontier:
            new = []
            for x in frontier:
                for s in gens:
                    y = t.trace((s,), x)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        assert len(seen) == S.order           # a complement: one per element
        assert t.coset_count == p * S.order   # the kernel <k> is missing
        assert t.trace(k_word(S, inner)) not in seen


def test_theorem1_epsilon_bar_factorization():
    """(g) -> (g, g^-1) -> g: the composite agrees with the counit."""
    G, basis = extraspecial_symplectic_basis(2, 2)
    rep = theorem1_verify(check_symplectic(G, basis))
    S = rep.s_group
    d2_members = d2(S).members
    eps = rep.table.epsilon
    for g in range(1, S.order):
        coset = rep.table.trace((g,))
        assert eps[coset] == g
        assert (g, S.inverse(g)) in d2_members


# -- the lemma suite ---------------------------------------------------------------

@pytest.fixture(scope="module")
def e22_bundle():
    G, basis = extraspecial_symplectic_basis(2, 2)
    rep = theorem1_verify(check_symplectic(G, basis))
    return rep


@pytest.fixture(scope="module")
def e32_bundle():
    G, basis = extraspecial_symplectic_basis(3, 2)
    rep = theorem1_verify(check_symplectic(G, basis))
    return rep


def test_lemma_suite_e22(e22_bundle):
    rep = lemma_suite(e22_bundle.sequence, e22_bundle.table)
    assert rep.all_passed
    assert rep.k_order == 2 and rep.c_order == 2
    assert rep.kernel_order == 2
    assert rep.merge_exhaustive and rep.merge_pairs_checked == 128  # 64 pairs per i
    assert rep.seed == 0


def test_lemma_suite_e32(e32_bundle):
    rep = lemma_suite(e32_bundle.sequence, e32_bundle.table)
    assert rep.all_passed
    assert rep.k_order == 3 and rep.c_order == 3
    assert rep.kernel_order == 3
    assert rep.merge_exhaustive  # spans have 27 elements -> 729 pairs each


def test_lemma_suite_trivial_sequence_k_dies():
    """In an abelian group every merge is free and k traces to the identity."""
    z = build("product:(cyclic:2),(product:(cyclic:2),(cyclic:2))")
    seq = check_symplectic(z, [1, 2, 3, 4])
    S, inner, _ = seq.span
    t = todd_coxeter(build_presentation(S, 2))
    assert t.trace(k_word(S, inner)) == 0


def test_k_word_shape(e22_bundle):
    S = e22_bundle.s_group
    seq = e22_bundle.sequence
    w = k_word(S, seq, 1)
    g, h = seq.elements[0], seq.elements[0 + seq.r]
    assert w == (-S.multiply(g, h), g, h)


# -- counit kernel ------------------------------------------------------------------

def test_epsilon_kernel_abelian():
    G = build("cyclic:12")
    t = todd_coxeter(build_presentation(G, 2))
    rep = epsilon_kernel(G, t)
    assert rep.kernel_order == 1 and rep.kernel_is_torsion_free


def test_epsilon_kernel_extraspecial(e22_bundle):
    rep = e22_bundle.kernel
    assert rep.n2_order == 64 and rep.kernel_order == 2
    assert rep.kernel_is_torsion_free is False
    assert rep.k_order == 2


def test_epsilon_images_consistency(e22_bundle):
    """Tracing (g)(h) lands on the coset of gh whenever g, h commute."""
    t = e22_bundle.table
    S = e22_bundle.s_group
    eps = t.epsilon
    assert eps[0] == 0
    for g in range(1, S.order):
        for h in range(1, S.order):
            coset = t.trace(word_for_element(g) + word_for_element(h))
            assert eps[coset] == S.multiply(g, h)


def test_coset_words_roundtrip(e22_bundle):
    t = e22_bundle.table
    words = coset_words(t)
    assert words[0] == ()
    for x, w in enumerate(words):
        assert t.trace(w) == x


@pytest.mark.parametrize("read", [coset_words])
def test_reading_a_table_that_did_not_close_raises(read):
    """The coset words walk the table breadth first, and that walk refuses
    a table that hit its limit."""
    t = todd_coxeter(build_presentation(build("sym:3"), 2), limit=50)
    assert t.state == LIMIT_EXCEEDED
    with pytest.raises(TableNotClosedError):
        read(t)


# -- verdicts ----------------------------------------------------------------------

def test_verdict_extraspecial():
    G, _ = extraspecial_symplectic_basis(2, 2)
    v = kpi1_verdict(G)
    assert v.answer == "NOT_K_PI_1"
    assert v.certificate["type"] == "symplectic-sequence"
    assert v.theorem1.verdict == "PASS"


def test_verdict_abelian():
    v = kpi1_verdict(build("cyclic:12"))
    assert v.answer == "K_PI_1"
    assert v.g_table is not None and v.g_table.coset_count == 12


def test_verdict_s3_inconclusive():
    v = kpi1_verdict(build("sym:3"), coset_limit=20000)
    assert v.answer == "INCONCLUSIVE"
    assert isinstance(v.search, ExhaustedNone)
    assert v.budgets["coset_limit_hit"] == 20000


def test_verdict_torsion_route():
    """A group with no r >= 2 sequence but nontrivial finite colimit kernel.

    The quaternion group has no symplectic sequence with r >= 2 and its q=2
    colimit is infinite; at the scale of this suite the torsion route is
    exercised through a group whose colimit closes: the dihedral group of
    order 8 also fails to close, so use extraspecial:2:1 = quaternion-like
    spans... in fact every nonabelian group here with a closing q=2 colimit
    has a sequence.  The route is covered instead by certifying behavior on
    a seeded table: remove the sequence search by budget starvation.
    """
    G, _ = extraspecial_symplectic_basis(2, 2)
    v = kpi1_verdict(G, search_budget=1)
    # with a starved search the enumeration fallback still finds torsion
    assert v.answer == "NOT_K_PI_1"
    assert v.certificate["type"] == "torsion-kernel-element"
    # the breadth-first word of the least coset but 0 that maps to the identity
    assert v.certificate["word"] == [1, 3, -6]
    assert v.certificate["order"] == 2
    assert v.certificate["kernel_order"] == 2
    # the witness word really has order 2 in the enumerated colimit
    word = tuple(v.certificate["word"])
    assert v.g_table.trace(word) != 0
    assert v.g_table.trace(word + word) == 0


def test_verdict_seeded_sym16():
    sym16, ids = seeded_gl_sequence_in_sym(16)
    v = kpi1_verdict(sym16, seed_sequence=ids)
    assert v.answer == "NOT_K_PI_1"
    assert v.theorem1.verdict == "PASS"
    assert v.theorem1.s_order == 32


def test_verdict_lazy_group_without_seed():
    v = kpi1_verdict(build("sym:16"))
    assert v.answer == "INCONCLUSIVE"
    assert "search_skipped" in v.budgets and "enumeration_skipped" in v.budgets


def test_verdict_lazy_abelian_group():
    """Abelianness is read off the generators, so big products still resolve."""
    g = build("product:(cyclic:2048),(cyclic:1024)")
    assert not g.materialized
    v = kpi1_verdict(g)
    assert v.answer == "K_PI_1"
    assert v.g_table is None  # too big to enumerate, not needed for the verdict


# -- conjecture probe ---------------------------------------------------------------

@pytest.mark.parametrize("spec,q,expected_class", [
    ("quaternion", 3, 2),
    ("dihedral:4", 3, 2),
])
def test_conjecture_agreement_at_q3(spec, q, expected_class):
    rep = conjecture_probe(build(spec), q)
    assert rep.nclass == expected_class
    assert rep.predicted_iso and rep.actual_iso
    assert rep.coset_count == build(spec).order
    assert rep.verdict == "agree"


def test_conjecture_extraspecial_q2():
    rep = conjecture_probe(build("extraspecial:2:2"), 2)
    assert rep.nclass == 2 and not rep.predicted_iso
    assert rep.coset_count == 64 and rep.actual_iso is False
    assert rep.verdict == "agree"


def test_conjecture_abelian_q2():
    rep = conjecture_probe(build("cyclic:15"), 2)
    assert rep.nclass == 1 and rep.predicted_iso and rep.actual_iso
    assert rep.verdict == "agree"


def test_conjecture_inconclusive():
    rep = conjecture_probe(build("sym:3"), 2, coset_limit=5000)
    assert rep.verdict == "inconclusive"
    assert rep.coset_count is None


# -- result records ----------------------------------------------------------------

def test_result_records_behave_as_the_code_uses_them():
    """Result records are NamedTuples; SymplecticSequence and Subgroup are plain
    classes.  This pins the behaviour of theirs that callers rely on."""
    G = build("extraspecial:2:2")
    outcomes = {
        SymplecticSequence: find_symplectic(G, 2),
        ExhaustedNone: find_symplectic(build("quaternion"), 2),
        NotFoundWithinBudget: find_symplectic(build("cyclic:4"), 2, 3),
        Violation: check_symplectic(build("quaternion"), [1, 2, 3, 4]),
    }
    for kind, result in outcomes.items():
        assert [isinstance(result, k) for k in outcomes] == [k is kind for k in outcomes]

    assert smith_normal_form([(0, 2), (1, 4)]) == SNFResult(2, (2, 4))
    assert smith_normal_form([(0, 2)]) != SNFResult(1, ())

    sub = closure(G, [1])
    assert all(sub.contains(a) for a in sub.members)
    assert not any(sub.contains(a) for a in range(G.order) if a not in sub.members)

    seq = outcomes[SymplecticSequence]
    assert seq.span is seq.span  # computed once, then cached

    t = todd_coxeter(build_presentation(G, 2))
    assert t.closed and t.coset_count == 64
    assert len(repr(t)) < 200 and "array(" not in repr(t)
