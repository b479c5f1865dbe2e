"""Certification and search for symplectic sequences."""

import pytest

from nilcolim import build, closure, commutator, nilpotency_class
from nilcolim.constructions import (
    embed_gl_in_sym,
    extraspecial_symplectic_basis,
    gl_symplectic_sequence,
    seeded_gl_sequence_in_sym,
)
from nilcolim.groups import GroupTooLargeError, full_subgroup
from nilcolim.permutations import parse_cycles
from nilcolim.symplectic import (
    ExhaustedNone,
    NotFoundWithinBudget,
    SymplecticSequence,
    Violation,
    _bilinearity_exhaustive,
    canonical_form,
    check_symplectic,
    find_symplectic,
    sequence_subgroup,
    structure_report,
)


def test_check_extraspecial_basis():
    G, basis = extraspecial_symplectic_basis(2, 2)
    seq = check_symplectic(G, basis)
    assert isinstance(seq, SymplecticSequence)
    assert seq.nontrivial and seq.r == 2
    assert G.element_order(seq.c) == 2


def test_check_gl_sequence():
    gl, ids = gl_symplectic_sequence(4, 2)
    seq = check_symplectic(gl, ids)
    assert isinstance(seq, SymplecticSequence)
    assert seq.nontrivial
    assert sequence_subgroup(seq).order == 32


def test_check_abelian_trivial_sequence():
    z = build("product:(cyclic:2),(product:(cyclic:2),(cyclic:2))")
    seq = check_symplectic(z, [1, 2, 3, 4])
    assert isinstance(seq, SymplecticSequence)
    assert not seq.nontrivial and seq.c == 0


def test_check_reports_violations():
    q8 = build("quaternion")
    names = {q8.name(a): a for a in range(8)}
    # i, j do not commute and are not partners in this arrangement
    bad = check_symplectic(q8, [names["i"], names["j"], names["-1"], names["-1"]])
    assert isinstance(bad, Violation)
    s3 = build("sym:3")
    v = check_symplectic(s3, [1, 1, 2, 2])
    assert isinstance(v, Violation) and v.kind == "repeated-element"


def test_check_input_errors():
    q8 = build("quaternion")
    with pytest.raises(ValueError):
        check_symplectic(q8, [1, 2, 3])        # odd length
    with pytest.raises(ValueError):
        check_symplectic(q8, [0, 1, 2, 3])     # identity present


def test_pair_swap_symmetry_gives_inverse_commutator():
    """Swapping every partner pair simultaneously re-certifies with c^-1."""
    G, basis = extraspecial_symplectic_basis(3, 2)
    seq = check_symplectic(G, basis)
    swapped = basis[2:] + basis[:2]
    seq2 = check_symplectic(G, swapped)
    assert isinstance(seq2, SymplecticSequence)
    assert seq2.c == G.inverse(seq.c)


def test_c_commutes_with_all_entries():
    for builder in [
        lambda: extraspecial_symplectic_basis(2, 2),
        lambda: extraspecial_symplectic_basis(3, 2),
        lambda: gl_symplectic_sequence(4, 2),
    ]:
        G, ids = builder()
        seq = check_symplectic(G, ids)
        assert isinstance(seq, SymplecticSequence) and seq.r >= 2
        for g in seq.elements:
            assert commutator(G, seq.c, g) == 0


def test_find_extraspecial():
    G, _ = extraspecial_symplectic_basis(2, 2)
    got = find_symplectic(G, 2)
    assert isinstance(got, SymplecticSequence)
    assert got.nontrivial
    # soundness: the result re-certifies
    again = check_symplectic(G, got.elements)
    assert isinstance(again, SymplecticSequence)


def test_find_deterministic():
    G, _ = extraspecial_symplectic_basis(2, 2)
    a = find_symplectic(G, 2)
    b = find_symplectic(G, 2)
    assert a.elements == b.elements


def test_find_exhausts_quaternion():
    got = find_symplectic(build("quaternion"), 2)
    assert isinstance(got, ExhaustedNone)


def test_find_exhausts_abelian():
    got = find_symplectic(build("cyclic:12"), 2)
    assert isinstance(got, ExhaustedNone)


def test_find_exhausts_sym3():
    got = find_symplectic(build("sym:3"), 2)
    assert isinstance(got, ExhaustedNone)


def test_find_budget_cap():
    # a budget too small to even place the first pair
    got = find_symplectic(build("sym:4"), 2, budget=3)
    assert isinstance(got, (NotFoundWithinBudget, SymplecticSequence))
    if isinstance(got, NotFoundWithinBudget):
        assert got.expanded <= 3


def test_find_input_errors():
    with pytest.raises(ValueError):
        find_symplectic(build("quaternion"), 2, budget=0)
    with pytest.raises(ValueError):
        find_symplectic(build("quaternion"), 1)
    with pytest.raises(GroupTooLargeError):
        find_symplectic(build("sym:16"), 2)


def test_canonical_form_is_orbit_minimum():
    G, basis = extraspecial_symplectic_basis(2, 2)
    seq = check_symplectic(G, basis)
    canon = canonical_form(seq)
    # canonicalizing any block permutation of the same pairs lands on the same form
    reordered = [basis[1], basis[0], basis[3], basis[2]]
    seq2 = check_symplectic(G, reordered)
    assert canonical_form(seq2).elements == canon.elements
    swapped = basis[2:] + basis[:2]
    seq3 = check_symplectic(G, swapped)
    assert canonical_form(seq3).elements == canon.elements  # c is an involution here


def test_sequence_preserved_under_embeddings():
    """Images under the vector embedding and under sym inclusion re-certify."""
    gl, ids = gl_symplectic_sequence(4, 2)
    seq = check_symplectic(gl, ids)
    emb = embed_gl_in_sym(4, 2)
    sym16 = emb.target
    image = [emb.image_of(e) for e in ids]
    iseq = check_symplectic(sym16, image)
    assert isinstance(iseq, SymplecticSequence)
    assert iseq.nontrivial and iseq.r == seq.r
    assert iseq.c == emb.image_of(seq.c)

    # pad into a bigger symmetric group by fixing extra points
    sym20, ids20 = seeded_gl_sequence_in_sym(20)
    iseq20 = check_symplectic(sym20, ids20)
    assert isinstance(iseq20, SymplecticSequence) and iseq20.nontrivial


def test_structure_reports():
    G, basis = extraspecial_symplectic_basis(2, 2)
    rep = structure_report(check_symplectic(G, basis))
    assert rep.all_passed
    assert rep.span_order == 32 and rep.c_order == 2

    G3, basis3 = extraspecial_symplectic_basis(3, 2)
    rep3 = structure_report(check_symplectic(G3, basis3))
    assert rep3.all_passed
    assert rep3.span_order == 243 and rep3.c_order == 3

    # trivial sequence spanning (Z/2)^4: derived subgroup trivial
    z16 = build("product:(product:(cyclic:2),(cyclic:2)),(product:(cyclic:2),(cyclic:2))")
    gens = list(z16.generators)
    seq = check_symplectic(z16, gens)
    assert not seq.nontrivial
    rep_t = structure_report(seq)
    assert rep_t.span_order == 16
    assert rep_t.c_order == 1 and rep_t.derived_equals_c_span
    assert rep_t.bilinearity_ok


def test_structure_report_gl():
    gl, ids = gl_symplectic_sequence(4, 2)
    rep = structure_report(check_symplectic(gl, ids))
    assert rep.all_passed and rep.span_order == 32 and rep.c_order == 2


@pytest.mark.parametrize("spec", [
    "cyclic:6", "quaternion", "dihedral:4", "extraspecial:2:2",
    "extraspecial:3:1", "sym:3", "alt:4", "dihedral:6",
])
def test_bilinearity_is_class_at_most_two(spec):
    # [xy, z] = [x, z][y, z] for all x, y, z exactly when [G, G] is central
    G = build(spec)
    assert _bilinearity_exhaustive(full_subgroup(G)) == (nilpotency_class(G) in (1, 2))


def test_bilinearity_inside_a_lazy_parent():
    sym16, ids = seeded_gl_sequence_in_sym(16)
    assert _bilinearity_exhaustive(closure(sym16, ids))
    s3 = closure(sym16, [sym16.id_of_key(parse_cycles(c, 16)) for c in ("(1 2)", "(1 2 3)")])
    assert s3.order == 6 and not _bilinearity_exhaustive(s3)


def test_find_soundness_randomized_groups():
    for spec in ["dihedral:4", "dihedral:6", "sym:4", "alt:4"]:
        got = find_symplectic(build(spec), 2)
        if isinstance(got, SymplecticSequence):
            assert got.nontrivial
            assert isinstance(check_symplectic(got.group, got.elements), SymplecticSequence)
        else:
            assert isinstance(got, ExhaustedNone)
