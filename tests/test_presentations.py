"""The colimit presentation: relator sets, dump format, word helpers."""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilcolim import build, presentations, presented_h1, todd_coxeter
from nilcolim.budgets import DEFAULT_COSET_LIMIT
from nilcolim.groups import TABLE_MAX_ORDER, GroupTooLargeError, class_below
from nilcolim.permutations import format_cycles
from nilcolim.presentations import (
    build_presentation,
    commutator_word,
    concat_words,
    inverse_word,
    power_word,
    presentation_dumps,
    word_for_element,
)

import oracles as O
from test_coset_enum import _colimit_specs, _columns


def _relator_pair(G, w):
    """Recover the ordered pair (g, h) a relator word encodes."""
    if len(w) == 2:
        return (w[0], w[1])
    return (w[1], w[2])


def test_generator_indexing_matches_ids():
    G = build("cyclic:5")
    P = build_presentation(G, 2)
    assert P.generators == (1, 2, 3, 4)
    assert P.num_generators == 4


def test_repr():
    P = build_presentation(build("sym:3"), 2)
    assert repr(P) == "Presentation(sym:3, q=2, 5 generators, relators not built)"
    assert P._relators is None  # the repr builds nothing
    assert len(P.relators) == 6
    assert repr(P) == "Presentation(sym:3, q=2, 5 generators, 6 relators)"


def test_relators_are_built_once_on_first_read(monkeypatch):
    """``build_presentation`` builds no relators: for extraspecial:3:2 at
    q = 2 it allocates a small fraction of what its 3,563-relator list takes.
    The first read of ``relators`` builds that list, and later reads return
    it."""
    builds, pair_relators = [], presentations._pair_relators

    def counted(G, q):
        builds.append((G, q))
        return pair_relators(G, q)

    monkeypatch.setattr(presentations, "_pair_relators", counted)
    G = build("extraspecial:3:2")
    G.cayley_columns()
    tracemalloc.start()
    try:
        P = build_presentation(G, 2)
        built, unread = tracemalloc.get_traced_memory()[1], builds[:]
        tracemalloc.reset_peak()
        relators = P.relators
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unread == [] and len(relators) == 3563 and built * 20 < read
    assert P.relators is relators and builds == [(G, 2)]


def _keyed(G):
    """G's multiplication through its keys, apart from its Cayley table."""
    return lambda a, b: G.id_of_key(G._mul_key(G.key_of(a), G.key_of(b)))


def _full_relators(G, q):
    """The oracle's relator for every class-<q pair, in row-major order."""
    return O.colimit_pair_relators(_keyed(G), G.order, q)


def _assert_one_relator_per_class(G, q, P):
    """P keeps every length-2 relator and exactly the first relator of each
    rotation-and-inversion class of the full pair scan; every class-<q pair
    lies in the class of exactly one kept relator.  Returns the full list."""
    mult = _keyed(G)
    inv = [O.element_inverse(mult, 0, a) for a in range(G.order)]
    full = O.colimit_pair_relators(mult, G.order, q)
    assert P.relators == O.first_of_each_class(full, inv)
    kept = Counter(O.relator_class_key(w, inv) for w in P.relators if len(w) == 3)
    assert set(kept.values()) <= {1}
    assert {O.relator_class_key(w, inv) for w in full if len(w) == 3} == set(kept)
    return full


# ids name the commuting ordered pairs of non-identity elements: the full scan
@pytest.mark.parametrize("spec,pairs,kept", [
    pytest.param("cyclic:4", 9, 4, id="cyclic:4-9"),  # all pairs commute
    pytest.param("cyclic:16", 225, 50, id="cyclic:16-225"),
    # pairs inside the four abelian subgroups
    pytest.param("sym:3", 7, 6, id="sym:3-7"),
    # 40 commuting pairs minus 15 with an identity slot
    pytest.param("quaternion", 25, 10, id="quaternion-25"),
    pytest.param("extraspecial:2:2", 481, 106, id="extraspecial:2:2-481"),
])
def test_relator_counts_q2(spec, pairs, kept):
    G = build(spec)
    P = build_presentation(G, 2)
    assert len(P.relators) == kept
    full = _assert_one_relator_per_class(G, 2, P)
    assert len(full) == pairs
    # oracle: commuting ordered pairs among non-identity elements
    assert pairs == sum(
        1
        for g in range(1, G.order)
        for h in range(1, G.order)
        if G.multiply(g, h) == G.multiply(h, g)
    )


_FACTORS = ["cyclic:2", "cyclic:3", "cyclic:4", "sym:3"]


@st.composite
def _small_specs(draw):
    """product: groups of order at most 16 and perm: groups on at most 4 points."""
    if draw(st.booleans()):
        left, right = draw(st.sampled_from(_FACTORS)), draw(st.sampled_from(_FACTORS))
        if "sym:3" in (left, right) and "cyclic:2" not in (left, right):
            right = "cyclic:2"
        return f"product:({left}),({right})"
    degree = draw(st.integers(2, 4))
    perms = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return "perm:" + ";".join(format_cycles(p) for p in perms)


@settings(max_examples=30, deadline=None)
@given(_small_specs(), st.sampled_from([2, 3]))
def test_one_relator_per_class_property(spec, q):
    G = build(spec)
    _assert_one_relator_per_class(G, q, build_presentation(G, q))


def test_relator_words_encode_products():
    G = build("sym:3")
    P = build_presentation(G, 2)
    for w in P.relators:
        g, h = _relator_pair(G, w)
        gh = G.multiply(g, h)
        if len(w) == 2:
            assert gh == 0
        else:
            assert w == (-gh, g, h)


def test_s3_same_relators_q2_q3():
    """No generating pair of this group is nilpotent, so q=3 adds nothing."""
    G = build("sym:3")
    r2 = build_presentation(G, 2).relators
    r3 = build_presentation(G, 3).relators
    assert r2 == r3


def test_relators_grow_with_q():
    for spec in ["quaternion", "dihedral:4", "extraspecial:2:2"]:
        G = build(spec)
        r2 = set(build_presentation(G, 2).relators)
        r3 = set(build_presentation(G, 3).relators)
        assert r2 <= r3
        assert len(r3) > len(r2)  # class-2 pairs appear at q=3 in these groups


def test_q3_relators_for_quaternion():
    # every pair of quaternions spans a subgroup of class <= 2
    G = build("quaternion")
    P = build_presentation(G, 3)
    assert len(P.relators) == 14
    assert len(_assert_one_relator_per_class(G, 3, P)) == 49


def test_presentation_size_ceiling():
    """A group is presented exactly when it has a Cayley table: materialized
    and of order <= TABLE_MAX_ORDER, on both sides of the cap."""
    specs = ["sym:4", "gl:2:7", "sym:7", "gl:4:2", "sym:16"]
    tabled = [bool(build(spec).cayley_columns()) for spec in specs]
    assert tabled == [True, True, False, False, False]
    for spec, has_table in zip(specs, tabled):
        G = build(spec)
        if has_table:
            assert G.order <= TABLE_MAX_ORDER
            assert build_presentation(G, 2).generators == tuple(range(1, G.order))
        else:
            with pytest.raises(GroupTooLargeError):
                build_presentation(G, 2)


def test_presentation_rejects_bad_q():
    with pytest.raises(ValueError):
        build_presentation(build("cyclic:4"), 1)


def test_dump_format():
    G = build("cyclic:3")
    P = build_presentation(G, 2)
    text = presentation_dumps(P)
    lines = text.strip().split("\n")
    assert lines[0] == "gens 2"
    assert len(lines) == 1 + len(P.relators)
    parsed = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    assert parsed == P.relators
    for w in parsed:
        assert all(x != 0 and abs(x) <= 2 for x in w)


def test_word_helpers():
    assert word_for_element(0) == ()
    assert word_for_element(3) == (3,)
    assert inverse_word((1, -2, 3)) == (-3, 2, -1)
    assert concat_words((1,), (), (2, 3)) == (1, 2, 3)
    assert power_word((1, 2), 3) == (1, 2, 1, 2, 1, 2)
    assert power_word((1, 2), -2) == (-2, -1, -2, -1)
    assert power_word((1,), 0) == ()
    assert commutator_word((1,), (2,)) == (1, 2, -1, -2)


def test_trivial_group_presentation():
    G = build("cyclic:1")
    P = build_presentation(G, 2)
    assert P.num_generators == 0 and P.relators == []


# -- one relator per class changes no answer -------------------------------------

def _table_state(t):
    return (t.state, t.coset_count, t.high_water, *_columns(t))


@pytest.mark.parametrize("spec,q", [
    ("cyclic:16", 2), ("sym:3", 2), ("quaternion", 2), ("extraspecial:2:2", 2),
    ("sym:4", 2), ("quaternion", 3), ("dihedral:4", 3), ("extraspecial:2:2", 3),
])
def test_full_relator_list_enumerates_the_same_table(spec, q):
    G = build(spec)
    reduced = todd_coxeter(build_presentation(G, q), 2000)
    full = O.relator_todd_coxeter(G.order - 1, _full_relators(G, q), 2000)
    assert _table_state(reduced) == _table_state(full)


@settings(max_examples=30, deadline=None)
@given(_colimit_specs(), st.sampled_from([2, 3]))
def test_epsilon_core_matches_the_relator_core_property(spec, q):
    """A colimit presentation is enumerated in epsilon-coordinates off the
    Cayley table; its relators go through the relator-by-relator reference
    enumerator of tests/oracles.py.  The two tables agree in state, counts and
    every cell: at a small limit always, and at the default limit when G has
    class < q, so that N_q(G) = G closes."""
    G = build(spec)
    assume(G.order <= 64)
    P = build_presentation(G, q)
    limits = [50, DEFAULT_COSET_LIMIT] if class_below(G, G.generators, q) else [50]
    for limit in limits:
        table = todd_coxeter(P, limit)
        reference = O.relator_todd_coxeter(P.num_generators, P.relators, limit)
        assert _table_state(table) == _table_state(reference)


@pytest.mark.parametrize("spec,q", [
    ("cyclic:6", 2), ("sym:3", 2), ("quaternion", 2), ("dihedral:4", 2),
    ("extraspecial:2:2", 2), ("quaternion", 3), ("dihedral:4", 3),
])
def test_full_relator_list_has_the_presented_h1(spec, q):
    G = build(spec)
    dense = []
    for w in _full_relators(G, q):
        vec = [0] * (G.order - 1)
        for signed in w:
            vec[abs(signed) - 1] += 1 if signed > 0 else -1
        dense.append(vec)
    rank, torsion = O.abelian_invariants(G.order - 1, dense)
    res = presented_h1(G, q)
    assert (res.rank, res.torsion) == (rank, tuple(torsion))
