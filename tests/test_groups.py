"""Core group operations checked against the brute-force oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcolim import (
    GroupTooLargeError,
    InvalidTableError,
    abelianization,
    build,
    center,
    closure,
    commutator,
    conjugacy_classes,
    derived_subgroup,
    is_nilq_map,
    load_multiplication_table,
    lower_central_series,
    nilpotency_class,
)
from nilcolim.groups import (
    MapTable,
    centralizer,
    full_subgroup,
    identity_map,
    inversion_map,
)
from nilcolim.constructions import symmetric_group
from nilcolim.permutations import format_cycles

import oracles as O

SMALL_SPECS = [
    "cyclic:6",
    "cyclic:12",
    "sym:3",
    "dihedral:4",
    "dihedral:6",
    "quaternion",
    "alt:4",
    "product:(cyclic:2),(cyclic:4)",
    "extraspecial:2:2",
]


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_group_axioms_exhaustive(spec):
    G = build(spec)
    n = G.order
    assert n <= 1000
    for a in range(n):
        assert G.multiply(0, a) == a
        assert G.multiply(a, 0) == a
        assert G.multiply(G.inverse(a), a) == 0
        assert G.multiply(a, G.inverse(a)) == 0
    rng = random.Random(7)
    triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(300)]
    for a, b, c in triples:
        assert G.multiply(G.multiply(a, b), c) == G.multiply(a, G.multiply(b, c))


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_generators_generate(spec):
    G = build(spec)
    assert closure(G, G.generators).order == G.order


def test_closure_examples():
    s3 = build("sym:3")
    transposition = next(g for g in range(6) if s3.element_order(g) == 2)
    assert closure(s3, [transposition]).order == 2
    assert closure(s3, []).members == (0,)
    # against the fixpoint oracle
    got = closure(s3, list(s3.generators)).members
    oracle = O.fixpoint_closure(
        s3.multiply, 0, list(s3.generators)
    )
    assert set(got) == oracle


def test_closure_gl_elementary_generators():
    from nilcolim.constructions import gl_symplectic_sequence

    gl, seq = gl_symplectic_sequence(4, 2)
    assert closure(gl, seq).order == 32
    # independent matrix-arithmetic oracle for the same four transvections
    gens = [O.elementary(4, 1, 2), O.elementary(4, 1, 3),
            O.elementary(4, 2, 4), O.elementary(4, 3, 4)]
    oracle = O.fixpoint_closure(
        lambda a, b: O.mat_mult(a, b, 4, 2), O.mat_identity(4), gens
    )
    assert len(oracle) == 32


def test_quaternion_associativity_exhaustive():
    q8 = build("quaternion")
    for a in range(8):
        for b in range(8):
            for c in range(8):
                assert q8.multiply(q8.multiply(a, b), c) == q8.multiply(a, q8.multiply(b, c))


def test_closure_idempotent():
    for spec in ["sym:3", "quaternion", "dihedral:6"]:
        G = build(spec)
        sub = closure(G, list(G.generators[:1]))
        again = closure(G, list(sub.members))
        assert again.members == sub.members


def test_closure_rejects_bad_ids():
    G = build("cyclic:6")
    with pytest.raises(ValueError):
        closure(G, [99])


def test_commutator_basics():
    q8 = build("quaternion")
    names = {q8.name(a): a for a in range(8)}
    assert commutator(q8, names["i"], names["i"]) == 0
    assert commutator(q8, names["i"], names["j"]) == names["-1"]
    z = build("cyclic:12")
    for a in range(12):
        for b in range(12):
            assert commutator(z, a, b) == 0


@pytest.mark.parametrize("spec,expected_order", [
    ("cyclic:12", 1),
    ("sym:3", 3),
    ("quaternion", 2),
    ("dihedral:4", 2),
    ("extraspecial:2:2", 2),
    ("extraspecial:3:1", 3),
])
def test_derived_subgroup_orders(spec, expected_order):
    G = build(spec)
    got = derived_subgroup(G)
    assert got.order == expected_order
    oracle = O.derived_members(G.multiply, 0, range(G.order))
    assert set(got.members) == oracle


def test_derived_subgroup_is_normal():
    for spec in ["sym:3", "quaternion", "dihedral:6", "alt:4"]:
        G = build(spec)
        d = derived_subgroup(G)
        member_set = set(d.members)
        for g in range(G.order):
            assert {G.conjugate(m, g) for m in d.members} == member_set


@pytest.mark.parametrize("spec,expected", [
    ("cyclic:6", 6),
    ("sym:3", 1),
    ("quaternion", 2),
    ("extraspecial:2:2", 2),
    ("extraspecial:3:2", 3),
])
def test_center_orders(spec, expected):
    G = build(spec)
    got = center(G)
    assert got.order == expected
    assert set(got.members) == O.center_members(G.multiply, range(G.order))


@pytest.mark.parametrize("spec,expected", [
    ("cyclic:6", 1),
    ("dihedral:4", 2),
    ("quaternion", 2),
    ("extraspecial:2:2", 2),
    ("extraspecial:3:2", 2),
    ("sym:3", None),
    ("alt:4", None),
])
def test_nilpotency_class(spec, expected):
    G = build(spec)
    assert nilpotency_class(G) == expected
    assert nilpotency_class(G) == O.nilpotency_class_of(G.multiply, 0, range(G.order))


def test_lower_central_series_shape():
    d8 = build("dihedral:4")
    series = lower_central_series(d8)
    orders = [s.order for s in series]
    assert orders == [8, 2, 1]
    for bigger, smaller in zip(series, series[1:]):
        assert set(smaller.members) <= set(bigger.members)
    s3 = build("sym:3")
    series = lower_central_series(s3)
    assert [s.order for s in series] == [6, 3]  # stabilizes at the 3-cycle subgroup


def test_nilpotency_class_matches_abelian():
    for spec in SMALL_SPECS:
        G = build(spec)
        cls = nilpotency_class(G)
        assert (cls == 1) == (G.is_abelian and G.order > 1)


@pytest.mark.parametrize("spec,expected", [
    ("cyclic:7", 7),
    ("sym:3", 3),
    ("quaternion", 5),
    ("dihedral:4", 5),
    ("extraspecial:2:2", 17),
])
def test_conjugacy_classes(spec, expected):
    G = build(spec)
    classes = conjugacy_classes(G)
    assert len(classes) == expected
    assert sorted(x for cl in classes for x in cl) == list(range(G.order))
    assert len(classes) == O.conjugacy_class_count(G.multiply, 0, range(G.order))


def test_abelianization():
    s3 = build("sym:3")
    ab, phi = abelianization(s3)
    assert ab.order == 2 and ab.is_abelian
    # quotient map is a homomorphism
    for a in range(6):
        for b in range(6):
            assert ab.multiply(phi.image_of(a), phi.image_of(b)) == phi.image_of(s3.multiply(a, b))
    z6 = build("cyclic:6")
    ab6, phi6 = abelianization(z6)
    assert ab6.order == 6
    assert [phi6.image_of(a) for a in range(6)] == list(range(6))
    e22 = build("extraspecial:2:2")
    ab22, _ = abelianization(e22)
    assert ab22.order == 16 and ab22.is_abelian
    assert all(ab22.element_order(a) in (1, 2) for a in range(16))  # (Z/2)^4


def test_is_nilq_map_identity_and_inversion():
    for spec in ["sym:3", "quaternion", "extraspecial:2:2"]:
        G = build(spec)
        ok, witness = is_nilq_map(identity_map(G), 2)
        assert ok and witness is None
        ok, witness = is_nilq_map(inversion_map(G), 2)
        assert ok and witness is None


def test_is_nilq_map_transposition_swap_passes():
    # swapping two transpositions respects every commuting pair: their
    # centralizers only contain themselves and the identity
    s3 = build("sym:3")
    names = {s3.name(a): a for a in range(6)}
    images = list(range(6))
    a, b = names["(1 2)"], names["(1 3)"]
    images[a], images[b] = images[b], images[a]
    ok, witness = is_nilq_map(MapTable(s3, s3, images), 2)
    assert ok and witness is None


def test_is_nilq_map_detects_violation():
    # collapsing one 3-cycle but not its square breaks inside <(1 2 3)>
    s3 = build("sym:3")
    names = {s3.name(a): a for a in range(6)}
    images = list(range(6))
    images[names["(1 3 2)"]] = 0
    phi = MapTable(s3, s3, images)
    ok, witness = is_nilq_map(phi, 2)
    assert not ok
    g, h = witness
    # the witness really is a commuting pair where multiplicativity fails
    assert s3.multiply(g, h) == s3.multiply(h, g)
    assert s3.multiply(images[g], images[h]) != images[s3.multiply(g, h)]


def test_nilq_direction_strictness():
    """Passing at q=2 does not grant q=3: inversion on a class-2 group."""
    q8 = build("quaternion")
    inv = inversion_map(q8)
    ok2, _ = is_nilq_map(inv, 2)
    ok3, witness = is_nilq_map(inv, 3)
    assert ok2 and not ok3
    g, h = witness
    assert nilpotency_class(closure(q8, [g, h])) == 2
    # and a genuine homomorphism passes at every q
    ident = identity_map(q8)
    assert is_nilq_map(ident, 2)[0] and is_nilq_map(ident, 3)[0] and is_nilq_map(ident, 5)[0]


def test_homomorphisms_are_nilq_for_all_q():
    s3 = build("sym:3")
    ab, phi = abelianization(s3)
    for q in (2, 3, 4):
        ok, _ = is_nilq_map(MapTable(s3, ab, [phi.image_of(a) for a in range(6)]), q)
        assert ok


def test_subgroup_as_group_roundtrip():
    s4 = build("sym:4")
    d = derived_subgroup(s4)  # A4
    grp, to_parent = d.as_group()
    assert grp.order == 12
    for a in range(grp.order):
        for b in range(grp.order):
            assert to_parent[grp.multiply(a, b)] == s4.multiply(to_parent[a], to_parent[b])


def test_lazy_group_refuses_enumeration():
    sym16 = build("sym:16")
    assert not sym16.materialized
    assert sym16.order == 20922789888000
    with pytest.raises(GroupTooLargeError):
        sym16.elements()
    with pytest.raises(GroupTooLargeError):
        conjugacy_classes(sym16)


def test_element_order_and_power():
    q8 = build("quaternion")
    names = {q8.name(a): a for a in range(8)}
    assert q8.element_order(names["i"]) == 4
    assert q8.element_order(names["-1"]) == 2
    assert q8.power(names["i"], 2) == names["-1"]
    assert q8.power(names["i"], -1) == names["-i"]
    assert q8.power(names["i"], 0) == 0


# -- multiplication-table files ------------------------------------------------

def _write_table(tmp_path, rows):
    path = tmp_path / "g.tbl"
    n = len(rows)
    path.write_text(
        f"{n}\n" + "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"
    )
    return path


def test_table_file_roundtrip(tmp_path):
    z5 = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    G = load_multiplication_table(_write_table(tmp_path, z5))
    assert G.order == 5
    assert G.multiply(2, 4) == 1
    assert nilpotency_class(G) == 1
    # ids are the file ids, verbatim
    assert [G.key_of(i) for i in range(5)] == list(range(5))


def test_table_file_rejects_non_identity_zero(tmp_path):
    rows = [[1, 0], [0, 1]]  # id 0 is not the identity
    with pytest.raises(InvalidTableError):
        load_multiplication_table(_write_table(tmp_path, rows))


def test_table_file_rejects_non_associative(tmp_path):
    # a Latin square with identity that is not a group (order 5 loop)
    rows = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidTableError, match="associativity"):
        load_multiplication_table(_write_table(tmp_path, rows))


def test_table_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_text("2\n0 1\n")
    with pytest.raises(InvalidTableError):
        load_multiplication_table(path)
    path.write_text("2\n0 1\n1 7\n")
    with pytest.raises(InvalidTableError):
        load_multiplication_table(path)


def test_random_abelian_tables(tmp_path):
    rng = random.Random(11)
    for _ in range(5):
        n = rng.randrange(2, 9)
        rows = [[(a + b) % n for b in range(n)] for a in range(n)]
        G = load_multiplication_table(_write_table(tmp_path, rows))
        assert G.is_abelian and G.order == n


def test_full_subgroup_and_center_of_subgroup():
    e22 = build("extraspecial:2:2")
    sub = full_subgroup(e22)
    assert center(sub).order == 2
    assert derived_subgroup(sub).order == 2


def test_table_file_rejects_non_associative_loop_of_order_600(tmp_path):
    # Z/600 is a group and loads; swapping the intercalate {1, 301} x {2, 302}
    # keeps a Latin square with identity 0 that is not associative
    n = 600
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    assert load_multiplication_table(_write_table(tmp_path, rows)).order == n
    a, c = 1, 2
    for x in (a, a + n // 2):
        rows[x][c], rows[x][c + n // 2] = rows[x][c + n // 2], rows[x][c]
    assert all(sorted(r) == list(range(n)) for r in rows)
    assert all(sorted(col) == list(range(n)) for col in zip(*rows))
    with pytest.raises(InvalidTableError, match="associativity"):
        load_multiplication_table(_write_table(tmp_path, rows))


# -- the Cayley table against the keyed backing --------------------------------

_FACTORS = ["cyclic:2", "cyclic:3", "cyclic:4", "sym:3", "quaternion"]


def _keyed_multiply(G, a, b):
    return G.id_of_key(G._mul_key(G.key_of(a), G.key_of(b)))


@st.composite
def _perm_specs(draw, max_degree=5):
    degree = draw(st.integers(2, max_degree))
    perms = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return "perm:" + ";".join(format_cycles(p) for p in perms)


@st.composite
def _small_specs(draw):
    kind = draw(st.sampled_from(["product", "perm", "dihedral"]))
    if kind == "dihedral":
        return f"dihedral:{draw(st.integers(2, 12))}"
    if kind == "product":
        left, right = draw(st.sampled_from(_FACTORS)), draw(st.sampled_from(_FACTORS))
        return f"product:({left}),({right})"
    return draw(_perm_specs())


@settings(max_examples=30, deadline=None)
@given(_small_specs())
def test_cayley_table_matches_keyed_arithmetic(spec):
    G = build(spec)
    ids = G.elements()
    assert [[G.multiply(a, b) for b in ids] for a in ids] == [
        [_keyed_multiply(G, a, b) for b in ids] for a in ids
    ]
    assert [G.inverse(a) for a in ids] == [
        G.id_of_key(G._inv_key(G.key_of(a))) for a in ids
    ]
    assert len(G.cayley_columns()) == G.order


def test_cayley_table_is_built_on_first_use():
    G = symmetric_group(5)  # a fresh group, not the build() cache's
    assert G._cols is None
    assert G.inverse(1) == G.id_of_key(G._inv_key(G.key_of(1)))
    assert len(G.cayley_columns()) == 120 and len(G._inv) == 120


@pytest.mark.parametrize("spec", ["sym:4", "sym:7", "sym:16"])
def test_out_of_range_ids_raise(spec):
    G = build(spec)
    n = G.order if G.materialized else len(G._key_of)
    with pytest.raises(IndexError):
        G.multiply(0, n)
    with pytest.raises(IndexError):
        G.multiply(n, 0)
    with pytest.raises(IndexError):
        G.inverse(n)
    # only materialized groups up to order 1024 are tabulated
    assert bool(G.cayley_columns()) == (spec == "sym:4")


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_centralizer_is_the_commuting_set(spec):
    G = build(spec)
    for g in G.elements():
        assert centralizer(G, g) == {
            h for h in G.elements()
            if _keyed_multiply(G, g, h) == _keyed_multiply(G, h, g)
        }
    # sum over g of |C(g)| = (number of classes) * |G|
    assert sum(len(centralizer(G, g)) for g in G.elements()) == (
        len(conjugacy_classes(G)) * G.order
    )


@settings(max_examples=25, deadline=None)
@given(_perm_specs(max_degree=6))
def test_derived_and_center_match_sympy(spec):
    from sympy.combinatorics import Permutation, PermutationGroup

    G = build(spec)
    degree = max(len(G.key_of(0)), 1)
    oracle = PermutationGroup(
        [Permutation(list(G.key_of(g)), size=degree) for g in G.generators]
        or [Permutation(degree - 1)]
    )
    assert G.order == oracle.order()
    assert derived_subgroup(G).order == oracle.derived_subgroup().order()
    assert center(G).order == oracle.center().order()


def test_derived_subgroup_is_computed_once_per_group():
    G = symmetric_group(4)
    assert derived_subgroup(G) is derived_subgroup(G)
    assert derived_subgroup(G).order == 12
