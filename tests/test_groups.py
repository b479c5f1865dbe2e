"""Core group operations checked against the brute-force oracles."""

import random
import tracemalloc
from array import array

import pytest
from hypothesis import assume, given, settings
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
    TABLE_MAX_ORDER,
    MapTable,
    centralizer,
    class_below,
    full_subgroup,
    group_from_table_rows,
    partners,
)
from nilcolim.constructions import (
    cyclic_group,
    extraspecial_group,
    general_linear_group,
    product_group,
    symmetric_group,
)
from nilcolim.permutations import format_cycles, parse_cycles

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


# gl:3:2 (order 168): cayley_columns derives most inverses from those of
# elements met earlier in its breadth-first fill
@pytest.mark.parametrize("spec", SMALL_SPECS + ["gl:3:2"])
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
    ("sym:6", 11),  # partitions of 6
    ("extraspecial:3:2", 83),  # p central elements, p^(2r) - 1 classes of size p
    ("gl:3:2", 6),  # the simple group of order 168
])
def test_conjugacy_classes(spec, expected):
    G = build(spec)
    classes = conjugacy_classes(G)
    assert len(classes) == expected
    assert sorted(x for cl in classes for x in cl) == list(range(G.order))
    assert len(classes) == O.conjugacy_class_count(G.multiply, 0, range(G.order))
    # partners and conjugacy_classes read one class record: a group whose
    # record was filled by a partners sweep gives the partition of a fresh one
    swept = _fresh_copy(G)
    for a in swept.elements():
        partners(swept, a, 2)
    assert conjugacy_classes(swept) == conjugacy_classes(_fresh_copy(G)) == classes


def test_conjugacy_classes_need_a_cayley_table():
    sym7 = build("sym:7")  # materialized, but past the table cap
    assert sym7.materialized and not sym7.cayley_columns()
    with pytest.raises(GroupTooLargeError):
        conjugacy_classes(sym7)


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
        ok, witness = is_nilq_map(MapTable(G, G, list(G.elements())), 2)
        assert ok and witness is None
        inversion = MapTable(G, G, [G.inverse(a) for a in G.elements()])
        ok, witness = is_nilq_map(inversion, 2)
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
    inv = MapTable(q8, q8, [q8.inverse(a) for a in q8.elements()])
    ok2, _ = is_nilq_map(inv, 2)
    ok3, witness = is_nilq_map(inv, 3)
    assert ok2 and not ok3
    g, h = witness
    assert nilpotency_class(closure(q8, [g, h])) == 2
    # and a genuine homomorphism passes at every q
    ident = MapTable(q8, q8, list(q8.elements()))
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


def test_whole_subgroup_materializes_as_its_parent():
    for spec in ("sym:4", "extraspecial:2:2", "quaternion"):
        G = build(spec)
        grp, to_parent = full_subgroup(G).as_group()
        assert grp is G and to_parent == tuple(range(G.order))
        grp, _ = closure(G, list(G.elements())[::-1]).as_group()
        assert grp is G


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
    assert q8.element_order(q8.identity) == 1
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
    # a proper subgroup of a tabled group and one of a lazy group: D4 in S4 and S16
    for G in (build("sym:4"), build("sym:16")):
        gens = [G.id_of_key(parse_cycles(c, len(G.key_of(0)))) for c in ("(1 2 3 4)", "(1 3)")]
        d4 = closure(G, gens)
        z = center(d4)
        assert d4.order == 8 and z.members == (0, G.id_of_key(parse_cycles("(1 3)(2 4)", len(G.key_of(0)))))


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


@pytest.mark.parametrize("n", [1, 2])
def test_cayley_columns_of_the_smallest_groups(n):
    """Each column past the generators is one ``itemgetter`` gather, which
    returns a bare id, not a tuple, when given a single index; every column is
    then packed into an ``array('H')``."""
    G = cyclic_group(n)
    assert G.cayley_columns() == [array("H", [(a + b) % n for a in range(n)]) for b in range(n)]
    assert conjugacy_classes(G) == [(a,) for a in range(n)]


def test_cayley_cells_fit_two_bytes():
    """Every id of a tabulated group is below TABLE_MAX_ORDER, so the cap
    must stay within what an ``array('H')`` cell holds."""
    assert TABLE_MAX_ORDER <= 1 << 8 * array("H").itemsize


def test_cayley_table_memory_per_cell():
    """gl:2:7 (order 2016) holds its table at about 2 bytes a cell: one
    ``array('H')`` a column, packed as soon as its children are gathered, so
    the build never holds the whole table as tuples of 8-byte pointers."""
    G = general_linear_group(2, 7)  # a fresh group, not the build() cache's
    cells = G.order ** 2
    tracemalloc.start()
    try:
        G.cayley_columns()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 2.5 * cells and peak <= 4 * cells


def test_cayley_table_rows_match_keyed_arithmetic_above_1024():
    G = build("gl:2:7")  # order 2016, tabulated since the cap is 4096
    rows = (0, 1, 2, 5, 77, 2015)
    ids = G.elements()
    assert [[G.multiply(a, b) for b in ids] for a in rows] == [
        [_keyed_multiply(G, a, b) for b in ids] for a in rows
    ]
    assert [G.inverse(a) for a in ids] == [
        G.id_of_key(G._inv_key(G.key_of(a))) for a in ids
    ]
    assert len(G.cayley_columns()) == G.order


def test_is_abelian_builds_no_table():
    big = product_group(extraspecial_group(2, 5), cyclic_group(2))
    cyc = cyclic_group(TABLE_MAX_ORDER)
    assert big.order == cyc.order == TABLE_MAX_ORDER
    assert not big.is_abelian and cyc.is_abelian
    assert big._cols is None and cyc._cols is None


def test_is_abelian_registers_lazy_products_as_multiply_does():
    """The lazy registry after ``is_abelian`` holds the keys that comparing
    ``multiply(a, b)`` with ``multiply(b, a)`` over the generators registers."""
    G, H = symmetric_group(16), symmetric_group(16)
    assert not G.materialized and not G.is_abelian
    gens = H.generators
    assert not all(
        H.multiply(a, b) == H.multiply(b, a)
        for i, a in enumerate(gens)
        for b in gens[i + 1 :]
    )
    assert G._key_of == H._key_of and len(G._key_of) > len(gens) + 1


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
    # only materialized groups up to TABLE_MAX_ORDER (4096) are tabulated;
    # sym:7 has order 5040 and sym:16 is lazy
    assert bool(G.cayley_columns()) == (spec == "sym:4")


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_centralizer_is_the_commuting_set(spec):
    G = build(spec)
    for g in G.elements():
        C = centralizer(G, g)
        assert list(C) == sorted(C)
        assert set(C) == {
            h for h in G.elements()
            if _keyed_multiply(G, g, h) == _keyed_multiply(G, h, g)
        }
    # sum over g of |C(g)| = (number of classes) * |G|
    assert sum(len(centralizer(G, g)) for g in G.elements()) == (
        len(conjugacy_classes(G)) * G.order
    )


@pytest.mark.parametrize("spec,mult,ids", [
    ("sym:4", O.perm_mult, None),
    ("quaternion", O.q8_mult, None),
    ("extraspecial:3:1", O.heisenberg_mult(3, 1), None),
    ("gl:2:7", O.perm_mult, (0, 1, 2, 5, 77, 2015)),  # order 2016: tabulated
    ("sym:7", O.perm_mult, (0, 1, 2, 5, 77, 5039)),  # order 5040: keyed
])
def test_centralizer_matches_the_oracle_commuting_set(spec, mult, ids):
    G = build(spec)
    keys = [G.key_of(h) for h in G.elements()]
    for g in ids or G.elements():
        k = keys[g]
        C = centralizer(G, g)
        assert list(C) == sorted(C)
        assert set(C) == {
            h for h, kh in enumerate(keys) if mult(k, kh) == mult(kh, k)
        }
    assert bool(G.cayley_columns()) == (G.order <= TABLE_MAX_ORDER)


def test_centralizers_take_at_most_8_bytes_a_member():
    """Every centralizer is cached for the group's lifetime, so it is kept as
    an ``array('i')`` of 4-byte ids: a frozenset took about 102 bytes a
    member (2.05 MB for the 20,169 members over extraspecial:3:2)."""
    G = extraspecial_group(3, 2)  # not ``build``'s cached group: no centralizer yet
    G.cayley_columns()
    tracemalloc.start()
    try:
        members = sum(len(centralizer(G, g)) for g in G.elements())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert members == 20169 and held <= 8 * members


@settings(max_examples=30, deadline=None)
@given(_small_specs(), st.data())
def test_partners_are_the_pairs_spanning_class_below_q(spec, data):
    """``partners`` lists, ascending, the b for which <a, b> has class < q,
    against the class of each pair's own closure.  The ids are asked in a
    drawn order on a fresh copy, so a class member is often asked before the
    one whose array it is conjugated from."""
    G = build(spec)
    assume(G.order <= 24)
    spans = [[nilpotency_class(closure(G, (a, b))) for b in G.elements()] for a in G.elements()]
    F = _fresh_copy(G)
    for q in (2, 3, 4):
        for a in data.draw(st.permutations(G.elements())):
            assert list(partners(F, a, q)) == [
                b for b, c in enumerate(spans[a]) if c is not None and c < q
            ]


@pytest.mark.parametrize("spec,q", [("sym:5", 2), ("gl:3:2", 2), ("gl:3:2", 3)])
def test_partners_asked_in_descending_order_match_a_direct_scan(spec, q):
    """Large classes, asked from the largest member down: every member but
    the least takes a conjugated array before the least is asked."""
    G = _fresh_copy(build(spec))
    ids = G.elements()
    for a in reversed(ids):
        if q == 2:
            direct = [b for b in ids if G.multiply(a, b) == G.multiply(b, a)]
        else:
            direct = [b for b in ids if class_below(G, (a, b), q)]
        assert list(partners(G, a, q)) == direct


def _fresh_copy(G):
    """G over its own ids, with no cache: no class record and no partners."""
    return group_from_table_rows(list(zip(*G.cayley_columns())), G.generators)


@st.composite
def _class_specs(draw):
    """product: and perm: specs; those of order <= 64 have class up to 4
    (dihedral:16 x cyclic:2) or none."""
    if draw(st.booleans()):
        return draw(_perm_specs())
    factors = _FACTORS + ["dihedral:8", "dihedral:16"]
    left, right = draw(st.sampled_from(factors)), draw(st.sampled_from(factors))
    return f"product:({left}),({right})"


@settings(max_examples=40, deadline=None)
@given(_class_specs(), st.data())
def test_class_below_matches_the_class_of_the_closure(spec, data):
    """``class_below`` reads the class off generator commutators; the oracle
    closes the set and takes its lower central series."""
    G = build(spec)
    assume(G.order <= 64)
    ids = st.integers(0, G.order - 1)
    for xs in (data.draw(st.lists(ids, min_size=1, max_size=3)), G.generators):
        span = O.fixpoint_closure(G.multiply, 0, set(xs))
        c = O.nilpotency_class_of(G.multiply, 0, span)
        for q in (2, 3, 4, 5):
            assert class_below(G, xs, q) == (c is not None and c < q), (xs, q, c)


def _sympy_group(G):
    from sympy.combinatorics import Permutation, PermutationGroup

    degree = max(len(G.key_of(0)), 1)
    return PermutationGroup(
        [Permutation(list(G.key_of(g)), size=degree) for g in G.generators]
        or [Permutation(degree - 1)]
    )


@settings(max_examples=25, deadline=None)
@given(_perm_specs(max_degree=6))
def test_derived_and_center_match_sympy(spec):
    G = build(spec)
    oracle = _sympy_group(G)
    assert G.order == oracle.order()
    assert derived_subgroup(G).order == oracle.derived_subgroup().order()
    assert center(G).order == oracle.center().order()


@settings(max_examples=25, deadline=None)
@given(_perm_specs(max_degree=6))
def test_lower_central_series_matches_sympy(spec):
    # each term after [G, G] is [K, G] with K the previous term, a proper
    # subgroup of G unless G is perfect
    G = build(spec)
    oracle = _sympy_group(G)
    assert [H.order for H in lower_central_series(G)] == [
        H.order() for H in oracle.lower_central_series()
    ]
    assert (nilpotency_class(G) is not None) == oracle.is_nilpotent


def test_derived_subgroup_is_computed_once_per_group():
    G = symmetric_group(4)
    assert derived_subgroup(G) is derived_subgroup(G)
    assert derived_subgroup(G).order == 12
