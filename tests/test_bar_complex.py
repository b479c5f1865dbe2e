"""Commuting-tuple skeleton: counts, boundary matrices, homology."""

import itertools
import random
import tracemalloc

import pytest

from nilcolim import build, closure, conjugacy_classes
from nilcolim.bar_complex import (
    BudgetExceededError,
    _tuples,
    abelianized_relator_matrix,
    build_complex,
    h1_consistency,
    hom_count,
    homology,
    presented_h1,
)
from nilcolim.constructions import elementary_matrix, extraspecial_group
from nilcolim.groups import partners
from nilcolim.presentations import build_presentation
from nilcolim.snf import SNFResult
import oracles as O

SUITE = ["cyclic:6", "sym:3", "dihedral:4", "quaternion", "extraspecial:2:2",
         "product:(cyclic:2),(cyclic:4)", "alt:4"]


# -- commuting tuple counts ------------------------------------------------------

@pytest.mark.parametrize("spec", SUITE)
def test_hom_count_n1_is_order(spec):
    G = build(spec)
    assert hom_count(G, 1) == G.order


@pytest.mark.parametrize("spec,expected", [
    ("sym:3", 18),
    ("quaternion", 40),
])
def test_hom_count_n2_frozen(spec, expected):
    assert hom_count(build(spec), 2) == expected


def test_hom_count_q8_triples_vs_oracle():
    got = hom_count(build("quaternion"), 3)
    assert got == 176  # frozen from the full 8^3 scan oracle
    assert got == O.commuting_tuple_count(O.q8_mult, range(8), 3)


@pytest.mark.parametrize("spec", SUITE)
def test_hom_count_burnside_identity(spec):
    """|Hom(Z^2, G)| = #classes * |G|, both sides computed independently."""
    G = build(spec)
    assert hom_count(G, 2) == len(conjugacy_classes(G)) * G.order


@pytest.mark.parametrize("spec", ["sym:3", "dihedral:4", "quaternion"])
def test_hom_count_matches_scan(spec):
    G = build(spec)
    for n in (2, 3):
        assert hom_count(G, n) == O.commuting_tuple_count(
            G.multiply, range(G.order), n
        )


def test_hom_count_higher_q():
    q8 = build("quaternion")
    # every tuple of quaternions spans a class <= 2 subgroup
    assert hom_count(q8, 2, q=3) == 64
    assert hom_count(q8, 3, q=3) == 512
    s3 = build("sym:3")
    # S3 itself is not nilpotent, so q=3 adds nothing over q=2 here
    assert hom_count(s3, 2, q=3) == hom_count(s3, 2, q=2)
    d8 = build("dihedral:8")  # order 16 and class 3: q = 2, 3, 4 all differ
    assert [hom_count(d8, 2, q) for q in (2, 3, 4)] == [112, 160, 256]


def test_walk_tests_whole_tuples_past_the_pair_gate():
    """Class < q on every pair does not give class < q on the tuple: in
    UT(4, 2), spanned by the transvections E_12, E_23, E_34, those three span
    pairs of class <= 2 and together class 3.  At q = 3 the walk keeps the
    triples that pass the pair gate and span class < 3, checked by the oracle
    on samples of the triples kept and of those dropped."""
    gl = build("gl:4:2")
    U = closure(gl, [elementary_matrix(4, 2, i, i + 1) for i in (1, 2, 3)]).as_group()[0]
    gate = [set(partners(U, a, 3)) for a in U.elements()]
    paired = {(a, b, c) for a in U.elements() for b in gate[a] for c in gate[a] & gate[b]}
    walk = set(_tuples(U, 3, 3, 0))
    assert walk < paired and tuple(U.generators) in paired - walk
    rng = random.Random(3)
    for kept, triples in ((True, walk), (False, paired - walk)):
        for t in rng.sample(sorted(triples), 60):
            span = O.fixpoint_closure(U.multiply, 0, t)
            assert (O.nilpotency_class_of(U.multiply, 0, span) < 3) == kept


def test_hom_count_keeps_no_per_tuple_cache():
    """Above q = 2 the walk tests each tuple by its commutators, so all it
    keeps is the pair gate's arrays: a few KB, not an entry per tuple."""
    G = extraspecial_group(2, 2)  # not ``build``'s cached group: no partners yet
    G.cayley_columns()
    tracemalloc.start()
    try:
        count = hom_count(G, 3, 3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count == 32 ** 3 and held <= 200_000  # class 2: every triple


def test_hom_count_edge_cases():
    G = build("cyclic:5")
    assert hom_count(G, 0) == 1
    with pytest.raises(ValueError):
        hom_count(G, -1)


# -- one walk for counts and simplices ---------------------------------------------

@pytest.mark.parametrize("spec", ["dihedral:8", "sym:3", "quaternion",
                                  "product:(dihedral:4),(cyclic:2)"])
def test_walk_matches_scan_of_all_tuples(spec):
    """hom_count and the simplex bases agree with a scan of G^n, order included."""
    G = build(spec)
    classes = {}  # element set -> nilpotency class of its span, by the oracles

    def admissible(t, q):
        key = frozenset(t)
        if key not in classes:
            span = O.fixpoint_closure(G.multiply, 0, key)
            classes[key] = O.nilpotency_class_of(G.multiply, 0, span)
        return classes[key] is not None and classes[key] < q

    for q in (2, 3, 4):
        for n in (1, 2, 3):
            scan = [t for t in itertools.product(range(G.order), repeat=n)
                    if admissible(t, q)]
            assert hom_count(G, n, q) == len(scan)
            assert build_complex(G, q, n).bases[n] == [t for t in scan if 0 not in t]


# -- the chain complex -----------------------------------------------------------

def squares_to_zero(cx):
    return O.boundaries_square_to_zero([cx.boundary(n) for n in range(1, cx.dim_cap + 1)])


def test_z2_complex_shape():
    G = build("cyclic:2")
    cx = build_complex(G, 2, 3)
    assert [len(b) for b in cx.bases] == [1, 1, 1, 1]
    assert squares_to_zero(cx)


@pytest.mark.parametrize("spec", SUITE)
def test_boundary_squares_to_zero(spec):
    G = build(spec)
    cx = build_complex(G, 2, 3 if G.order <= 12 else 2)
    assert squares_to_zero(cx)


@pytest.mark.parametrize("spec", SUITE)
def test_boundaries_are_sparse_rows(spec):
    """d_n is one sparse line per n-simplex: its faces as ascending
    (i, v) pairs, flattened, with no zero v."""
    G = build(spec)
    cx = build_complex(G, 2, 3 if G.order <= 12 else 2)
    for n in range(1, cx.dim_cap + 1):
        d = cx.boundary(n)
        assert len(d) == len(cx.bases[n])
        for line in d:
            faces, values = line[::2], line[1::2]
            assert 0 not in values
            assert list(faces) == sorted(set(faces))
            assert set(faces) <= set(range(len(cx.bases[n - 1])))
            # an n-simplex has n + 1 faces
            assert len(faces) <= n + 1


def test_verify_complex_detects_a_wrong_entry():
    """The d.d = 0 oracle the boundary tests rely on fails on a flipped sign."""
    cx = build_complex(build("sym:3"), 2, 3)
    d2, d3 = cx.boundary(2), cx.boundary(3)
    t = next(line[0] for line in d3 if line and d2[line[0]])
    assert squares_to_zero(cx)
    # a column of d_2 . d_3 whose d_3 line holds t with coefficient w moves
    # by -2 w v at row i, for (i, v) the first entry of d_2's line t
    i, v, *rest = d2[t]
    d2[t] = (i, -v, *rest)
    assert not squares_to_zero(cx)


def test_s3_simplex_counts():
    G = build("sym:3")
    cx = build_complex(G, 2, 2)
    assert len(cx.bases[1]) == 5
    # commuting ordered pairs with no identity slot
    assert len(cx.bases[2]) == 18 - (2 * 6 - 1)


def test_simplices_monotone_in_q():
    """Every class-below-2 tuple is a class-below-3 tuple."""
    for spec in ["sym:3", "quaternion", "dihedral:4"]:
        G = build(spec)
        for n in (1, 2):
            s2 = set(build_complex(G, 2, n).bases[n])
            s3 = set(build_complex(G, 3, n).bases[n])
            assert s2 <= s3


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        build_complex(build("extraspecial:2:2"), 2, 2, max_simplices=100)


def test_negative_budget_is_rejected_and_zero_is_legal():
    G = build("extraspecial:2:2")
    with pytest.raises(ValueError, match="simplex budget must be >= 0, got -5"):
        build_complex(G, 2, 1, max_simplices=-5)
    assert build_complex(build("cyclic:1"), 2, 2, max_simplices=0).bases == [[()], [], []]
    with pytest.raises(BudgetExceededError):
        build_complex(G, 2, 1, max_simplices=0)


# -- homology ---------------------------------------------------------------------

@pytest.mark.parametrize("spec", SUITE)
def test_h0_is_z(spec):
    res = homology(build(spec), 2, 0)
    assert res.rank == 1 and res.torsion == ()


@pytest.mark.parametrize("spec,n", [("cyclic:6", 6), ("cyclic:12", 12),
                                    ("product:(cyclic:2),(cyclic:4)", 8)])
def test_h1_abelian_recovers_group(spec, n):
    res = homology(build(spec), 2, 1)
    assert res.rank == 0
    total = 1
    for d in res.torsion:
        total *= d
    assert total == n


def test_h1_s3_frozen():
    res = homology(build("sym:3"), 2, 1)
    assert res.rank == 0 and res.torsion == (2, 2, 6)  # = (Z/2)^3 + Z/3


def test_h1_q8_frozen():
    res = homology(build("quaternion"), 2, 1)
    assert res.rank == 0 and res.torsion == (2, 2, 4)  # = Z/4 + Z/2 + Z/2


def test_h1_frozen_values_match_amalgam_oracle():
    """The independent oracle: abelian invariants of the colimit relators."""
    for spec, expected in [("sym:3", (2, 2, 6)), ("quaternion", (2, 2, 4))]:
        G = build(spec)
        P = build_presentation(G, 2)
        dense = [[0] * P.num_generators for _ in P.relators]
        for vec, w in zip(dense, P.relators):
            for signed in w:
                vec[abs(signed) - 1] += 1 if signed > 0 else -1
        assert abelianized_relator_matrix(P) == O.sparse_lines(dense)
        rank, torsion = O.abelian_invariants(P.num_generators, dense)
        assert rank == 0 and tuple(torsion) == expected


@pytest.mark.parametrize("spec", ["cyclic:6", "sym:3", "dihedral:4", "quaternion",
                                  "extraspecial:2:2"])
def test_h1_consistency(spec):
    assert h1_consistency(build(spec))


def test_h1_consistency_at_q3():
    """At q=3 the class-2 groups become fully coherent: H_1 = G^ab."""
    for spec, expected in [("quaternion", (2, 2)), ("dihedral:4", (2, 2))]:
        G = build(spec)
        assert h1_consistency(G, q=3)
        res = homology(G, 3, 1)
        assert res.rank == 0 and res.torsion == expected


def test_h2_of_small_cyclic_groups_vanishes():
    # the commuting complex of an abelian group is the full classifying space
    assert homology(build("cyclic:2"), 2, 2).describe() == "0"
    assert homology(build("cyclic:3"), 2, 2).describe() == "0"


def test_h2_klein_is_z2():
    # H_2 of the rank-2 elementary abelian group is Z/2
    res = homology(build("product:(cyclic:2),(cyclic:2)"), 2, 2)
    assert res.rank == 0 and res.torsion == (2,)


def test_h2_extraspecial_2_2():
    # d_3 is 481 x 4351
    res = homology(build("extraspecial:2:2"), 2, 2)
    assert res == SNFResult(rank=0, torsion=(2,) * 11 + (4,) * 4)


def test_h1_extraspecial_3_2_matches_presentation():
    # d_2 is 242 x 19684, one column per commuting pair; the relator matrix
    # is 3563 x 242, one row per rotation-and-inversion class
    G = build("extraspecial:3:2")
    assert h1_consistency(G)
    assert presented_h1(G) == SNFResult(rank=0, torsion=(3,) * 5)


def test_abelian_complex_equals_bar_complex():
    """For abelian groups every tuple commutes: the skeleta are all of BG."""
    G = build("cyclic:4")
    cx = build_complex(G, 2, 2)
    assert len(cx.bases[1]) == 3 and len(cx.bases[2]) == 9


def test_homology_rejects_bad_k():
    with pytest.raises(ValueError):
        homology(build("cyclic:2"), 2, 3)
