"""The Felsch enumerator on colimit presentations, and the relator-by-relator
reference enumerator of tests/oracles.py on classic ones."""

import functools
import hashlib
import math
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilcolim import build, coset_enum, presentations
from nilcolim.coset_enum import (
    LIMIT_EXCEEDED,
    TableNotClosedError,
    todd_coxeter,
)
from nilcolim.groups import class_below, partners
from nilcolim.permutations import format_cycles
from nilcolim.presentations import build_presentation

import oracles as O


def _manual(ngens, relators, limit=10 ** 6):
    """The reference enumeration of <x_1..x_ngens | relators>."""
    return O.relator_todd_coxeter(ngens, relators, limit)


def _every_pair_relator(G):
    """The oracle's relator for every commuting pair of G, not only the one
    per rotation-and-inversion class that ``build_presentation`` keeps."""
    return O.colimit_pair_relators(G.multiply, G.order, 2)


def _columns(t):
    """``(width, inverse columns, cells)`` of a table in generator columns: a
    reference table's own, or a colimit table's, whose column j - 1 carries
    generator j and is undone by the column of the inverse element, read out
    of its epsilon-coordinates by the oracle."""
    if isinstance(t, O.RelatorTable):
        return t.width, t.inverse_column, list(t.cells)
    G = t.presentation.group
    return (G.order - 1, [G.inverse(j) - 1 for j in range(1, G.order)],
            O.generator_columns(t.cells, t.epsilon, G.cayley_columns()))


def _digest(t, high_water):
    """The sha256 of the state, the counts, the inverse columns and every
    cell, coset by coset, in generator columns: it does not depend on how
    the cells are stored."""
    _, IC, cells = _columns(t)
    frozen = repr((t.state, t.coset_count, high_water, IC, cells))
    return hashlib.sha256(frozen.encode()).hexdigest()


def _assert_closed_action(t, relators):
    """Every column permutes the cosets, column ``IC[c]`` undoes column c
    (and the map is an involution), and every relator fixes every coset."""
    n, (W, IC, cells) = t.coset_count, _columns(t)
    assert t.closed and len(cells) == n * W
    assert all(IC[IC[c]] == c for c in range(W))
    for c in range(W):
        col = cells[c::W]
        assert sorted(col) == list(range(n))  # each column is a permutation
        assert all(cells[y * W + IC[c]] == x for x, y in enumerate(col))
    for w in relators:
        assert all(t.trace(w, x) == x for x in range(n))


def _assert_paired(t):
    """Every filled cell x.c = y has y.IC[c] = x, in a partial table too: the
    epsilon-coordinate scan skips the slots where two rows agree on this
    ground."""
    W, IC, cells = _columns(t)
    assert len(cells) == t.coset_count * W
    for e, y in enumerate(cells):
        x, c = divmod(e, W)
        assert y == -1 or cells[y * W + IC[c]] == x


# -- classic presentations, by the reference enumerator -------------------------

def test_sym3_presentation():
    t = _manual(2, [(1, 1, 1), (2, 2), (1, 2, 1, 2)])
    assert t.closed and t.coset_count == 6


def test_trivial_group_with_collapse():
    t = _manual(2, [(1, 2, -1, -2, -2), (2, 1, -2, -1, -1)])
    assert t.closed and t.coset_count == 1
    assert t.high_water > 1  # cosets were defined and then merged away


def _fibonacci(n):
    """Relators x_i x_{i+1} x_{i+2}^-1 (indices mod n) of F(2, n)."""
    return [(i, i % n + 1, -((i + 1) % n + 1)) for i in range(1, n + 1)]


def test_fibonacci_f25_is_z11():
    t = _manual(5, _fibonacci(5))
    assert t.closed and t.coset_count == 11
    assert t.high_water > 11


F27_RELATORS = _fibonacci(7)

# S3 with c = d = ab: the forms (1, 2, -3) and (1, 2, -4) start in one column
# and share their middle letter
S3_SHARED_MIDDLE = (4, [(1, 1), (2, 2), (1, 2, -3), (1, 2, -4), (1, 2, 1, 2, 1, 2)])
# Z6 with c = ab = ba: the forms of column 0, in sorted order, end in
# columns out of order
Z6_PERMUTED_ENDS = (3, [(1, 2, -3), (2, 1, -3), (1, 1, 1), (2, 2)])


@functools.cache
def _f27():
    """F(2,7) = <x1..x7 | x_i x_{i+1} = x_{i+2}>, cyclic of order 29; the
    enumeration defines 33,239 cosets before the coincidences close it."""
    return _manual(7, F27_RELATORS)


def test_fibonacci_f27_is_z29():
    t = _f27()
    assert t.closed and t.coset_count == 29
    assert t.high_water == 33239
    _assert_closed_action(t, F27_RELATORS)


def test_quaternion_presentation():
    t = _manual(2, [(1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1)])
    assert t.closed and t.coset_count == 8


def test_coxeter_b3():
    t = _manual(3, [(1, 1), (2, 2), (3, 3),
                    (1, 2) * 3, (2, 3) * 4, (1, 3) * 2])
    assert t.closed and t.coset_count == 48


def test_limit_behavior():
    t = _manual(2, [(1, 1), (2, 2, 2), (1, 2) * 7], limit=150)
    assert t.state == LIMIT_EXCEEDED
    assert t.high_water == 150
    assert t.coset_count <= 150
    t = todd_coxeter(build_presentation(build("sym:3"), 2), limit=150)
    assert t.state == LIMIT_EXCEEDED and t.high_water == t.coset_count == 150
    with pytest.raises(TableNotClosedError):
        t.trace((1,))


def test_free_group_hits_limit():
    t = _manual(2, [], limit=50)
    assert t.state == LIMIT_EXCEEDED


@pytest.mark.parametrize("ngens,relators,order", [
    # every column has exactly one form, of length 3
    (1, [(1, 1, 1)], 3),
    (2, [(1, 1, 1), (2, 2, 2), (1, 2, -1, -2)], 9),
])
def test_columns_with_a_single_form(ngens, relators, order):
    t = _manual(ngens, relators)
    assert t.closed and t.coset_count == order
    _assert_closed_action(t, relators)


@pytest.mark.parametrize("run", [
    lambda: todd_coxeter(build_presentation(build("sym:3"), 2), limit=20000),
    # F(2,7) merges its first cosets after about 25,000 definitions
    lambda: _manual(7, F27_RELATORS, limit=30000),
    # x1 x1^-1 x1 kills x1: about half the cosets defined merge before the cut
    lambda: _manual(2, [(1, -1, 1)], limit=1000),
], ids=["sym:3 q=2 limit 20000", "F(2,7) limit 30000", "trivial x1 limit 1000"])
def test_partial_tables_are_paired(run):
    t = run()
    assert t.state == LIMIT_EXCEEDED
    _assert_paired(t)


def _traced_peak(P, limit):
    """``todd_coxeter(P, limit)`` and the peak bytes tracemalloc saw it allocate.

    tracemalloc looks up the line of every allocation.  Python 3.11 finds it
    by walking the code object's line table, unless the code holds the line
    array that CPython builds for code run under ``sys.settrace``; the walk
    made these tests about 8x slower than the enumeration.  So one short
    enumeration runs first under a no-op trace, and the measured run is
    untraced.  The warm-up speeds up 3.13 alike and leaves 3.12 as it was.
    """
    previous = sys.gettrace()
    sys.settrace(lambda *event: None)
    try:
        todd_coxeter(P, limit=1000)
    finally:
        sys.settrace(previous)
    tracemalloc.start()
    try:
        t = todd_coxeter(P, limit=limit)
        return t, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_memory_per_cell():
    """Peak Python allocation of a wide table grown to its limit: the table
    is one flat array('i') of 4-byte cells (8-byte pointers plus boxed ints
    in a list would take over 9 bytes a cell)."""
    P = build_presentation(build("gl:3:2"), 2)
    t, peak = _traced_peak(P, limit=20000)
    assert t.state == LIMIT_EXCEEDED and P.num_generators == 167
    assert peak <= 6 * t.high_water * P.num_generators


def test_table_memory_per_coset():
    """Peak Python allocation of a narrow table (5 generator columns, kept
    as 6 slots, 24 bytes of cells a coset) grown to its limit: a coset costs
    its cells and a 2-byte image in G, with no object of its own (an
    array('i') row and a boxed union-find parent a coset took about 170
    bytes a coset)."""
    P = build_presentation(build("sym:3"), 2)
    t, peak = _traced_peak(P, limit=100000)
    assert t.state == LIMIT_EXCEEDED and P.num_generators == 5 and t.high_water == 100000
    assert peak <= 32 * t.high_water


# -- frozen tables: the enumeration is pinned cell for cell --------------------

FROZEN = {
    "F(2,5)": (lambda: _manual(5, _fibonacci(5)),
               "c265615304546f4014eb941ae045711780506ea227d4cf3f02ccce481be7d0cf"),
    "F(2,7)": (_f27,
               "a104648c668ec8f519b14b03f4cc1af7a5d759f5420a8af122b543bb15088298"),
    "collapse": (lambda: _manual(2, [(1, 2, -1, -2, -2), (2, 1, -2, -1, -1)]),
                 "48cf3210499d1ecb9e167ba5334b11291ca4f9a4b33b9d8d50e73b39cf5479f5"),
    "S3 c=d=ab": (lambda: _manual(*S3_SHARED_MIDDLE),
                  "3beb73333cd0b72b24c3ba3182427521d7c844924af35d247c914cb82545aabe"),
    "Z6 c=ab=ba": (lambda: _manual(*Z6_PERMUTED_ENDS),
                   "67bcea527d74bdb0691eea0b19d9b507b7b039f24a630c09f2e19a7974187af7"),
    "extraspecial:2:2 q=2": (
        lambda: todd_coxeter(build_presentation(build("extraspecial:2:2"), 2)),
        "d09ff832d186fbf2da292916b4ec341391a9b5c75c75015910d3f34c14a75a2c"),
    "quaternion q=3": (
        lambda: todd_coxeter(build_presentation(build("quaternion"), 3)),
        "5eb81a823ec1488e020612b4e9c8131f67266be77540a703de5a5d3aa4ff71e9"),
    # limit-exceeded: 52,884 cells are still -1
    "sym:3 q=2 limit 20000": (
        lambda: todd_coxeter(build_presentation(build("sym:3"), 2), limit=20000),
        "37c7b00110796f33cbb3fa0374b3148080d4bd3ca82d0c2a534cdbd9c7b5712f"),
    # the paper's headline table: 729 cosets x 242 columns, closing
    "extraspecial:3:2 q=2": (
        lambda: todd_coxeter(build_presentation(build("extraspecial:3:2"), 2)),
        "80a5e65f7397bee8a8d124d77e473ad45cdea982f4413a100cd98fe48c311279"),
    # a wide table (167 columns) cut at its limit
    "gl:3:2 q=2 limit 5000": (
        lambda: todd_coxeter(build_presentation(build("gl:3:2"), 2), limit=5000),
        "3445fbef54623c9d48a735b1319d60c783e71ad716b38097f385ea321536f9b9"),
}


@pytest.mark.parametrize("name", list(FROZEN))
def test_frozen_table(name):
    """Definition order, deduction order and coincidence handling all show in
    the final table; any change to them moves one of these digests."""
    run, digest = FROZEN[name]
    t = run()
    assert _digest(t, t.high_water) == digest


# -- coincidences in epsilon-coordinates ------------------------------------------

def _seed(G, eps, edges):
    """A partial colimit table in epsilon-coordinates: coset x has image
    eps[x] and holds itself in its slot eps[x]; each (x, slot, y) fills the
    slot of row x with y (consistent only when slot = eps[y])."""
    n = G.order
    cells = array("i", [-1]) * (len(eps) * n)
    for x, e in enumerate(eps):
        cells[x * n + e] = x
    for x, slot, y in edges:
        cells[x * n + slot] = y
    return cells, eps


@pytest.mark.parametrize("spec,q", [("extraspecial:2:2", 2), ("quaternion", 3)])
def test_seeded_duplicate_coset_merges_to_the_frozen_table(spec, q):
    """No colimit run has met a coincidence, so one is seeded: cosets 1 and 2
    are 0.(b) and 0.(bc), the first two definitions of a run, and coset 3 is
    1.(c), a second copy of 0.(bc) as b and c commute.  Closing the seed
    merges 3 into 2, and the table is the frozen one with one more coset
    defined."""
    G = build(spec)
    P = build_presentation(G, q)
    inv = [G.inverse(x) for x in range(G.order)]
    b, bc = list(dict.fromkeys(y for x in range(1, G.order) for y in (x, inv[x])))[:2]
    c = G.multiply(inv[b], bc)
    assert G.multiply(b, c) == G.multiply(c, b)
    cells, eps = _seed(G, [0, b, bc, bc], [(0, b, 1), (1, 0, 0), (0, bc, 2), (2, 0, 0),
                                           (1, bc, 3), (3, b, 1)])
    t = coset_enum._colimit_enumeration(P, 10 ** 6, seed=(cells, eps))
    assert t.closed and t.high_water == t.coset_count + 1
    assert _digest(t, t.high_water - 1) == FROZEN[f"{spec} q={q}"][1]
    _assert_closed_action(t, _every_pair_relator(G) if q == 2 else P.relators)


def test_coincidence_across_images_raises():
    """Two cosets merge only if the counit maps them to one element.  A seed
    with 0 --a--> 1 --b--> 2 whose row 2 names, as 2.(b^-1 a^-1), a coset 3
    whose image is not 1 forces the scan of 0 --a--> 1 to merge 3 with 0."""
    G = build("extraspecial:2:2")
    P = build_presentation(G, 2)
    a = 1
    b = next(x for x in partners(G, a, 2) if x not in (0, G.inverse(a)))
    ab = G.multiply(a, b)
    y = next(x for x in range(1, G.order) if x not in (a, ab))
    seed = _seed(G, [0, a, ab, y], [(0, a, 1), (1, 0, 0), (1, ab, 2), (2, a, 1),
                                   (2, 0, 3), (3, ab, 2)])
    with pytest.raises(RuntimeError, match="different images"):
        coset_enum._colimit_enumeration(P, 10 ** 6, seed=seed)


# -- colimit forms read off the Cayley table -----------------------------------

def _assert_forms_agree(P):
    """The forms that the epsilon-coordinate enumeration reads off the pair
    gate, (a)(b)(ab)^-1 for b in ``partners(G, a, q)`` less 1 and a^-1, are
    the ones the presentation's relators give, column for column and in the
    same order, and every form has length 3.  The gathers of a scan are
    shared per left coset of the stabilizer of P(a) = ``partners(G, a, q)``,
    so a P(a) = P(a) must hold too."""
    G = P.group
    inv = [G.inverse(x) for x in range(G.order)]
    IC, forms = O.relator_forms(P.num_generators, P.relators)
    assert IC == [x - 1 for x in inv[1:]] and len(forms) == len(IC)
    for a in range(1, G.order):
        Pa = list(partners(G, a, P.q))
        assert sorted(G.multiply(a, b) for b in Pa) == Pa
        bs = [b for b in Pa if b not in (0, inv[a])]
        # the column word of (a)(b)(ab)^-1: ab's inverse column ends it
        assert forms[a - 1] == [(a - 1, b - 1, IC[G.multiply(a, b) - 1]) for b in bs]
    assert all(len(f) == 3 for column in forms for f in column)


@pytest.mark.parametrize("spec", [
    "sym:3", "sym:4", "quaternion", "dihedral:8", "extraspecial:2:2", "gl:3:2",
    "extraspecial:3:2",
])
def test_table_forms_are_the_relator_forms(spec):
    G = build(spec)  # one group for every q: the classes of its pairs are cached
    for q in (2, 3, 4):
        _assert_forms_agree(build_presentation(G, q))


_FACTORS = ["cyclic:2", "cyclic:3", "cyclic:4", "sym:3", "quaternion", "dihedral:4"]


@st.composite
def _colimit_specs(draw):
    """product: and perm: specs; the test keeps those of order at most 64."""
    if draw(st.booleans()):
        left, right = draw(st.sampled_from(_FACTORS)), draw(st.sampled_from(_FACTORS))
        return f"product:({left}),({right})"
    degree = draw(st.integers(2, 5))
    perms = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return "perm:" + ";".join(format_cycles(p) for p in perms)


@settings(max_examples=40, deadline=None)
@given(_colimit_specs())
def test_table_forms_are_the_relator_forms_property(spec):
    G = build(spec)
    assume(G.order <= 64)
    for q in (2, 3):
        _assert_forms_agree(build_presentation(G, q))


@pytest.mark.parametrize("q", [2, 3])
@settings(max_examples=30, deadline=None)
@given(_colimit_specs())
def test_every_table_carries_its_counit_images_property(q, spec):
    """Every table keeps the image in G of each coset.  At limit 50, every
    filled slot h of a row holds a coset whose image is h.  A closed table
    (at the default limit when G has class < q, so that N_q(G) = G) has the
    images of a breadth-first walk that multiplies along its edges, and
    eps(x.(g)) = eps(x) g on every edge."""
    G = build(spec)
    assume(G.order <= 64)
    n, P = G.order, build_presentation(G, q)
    tables = [todd_coxeter(P, 50)]
    if class_below(G, G.generators, q):
        tables.append(todd_coxeter(P))
    for t in tables:
        eps, cells = t.epsilon, t.cells
        assert len(eps) == t.coset_count and len(cells) == t.coset_count * n
        assert all(y == -1 or eps[y] == e % n for e, y in enumerate(cells))
        if not t.closed:
            continue
        walk = O.counit_images(t.coset_count, lambda x, s: t.trace((s,), x),
                               G.multiply, G.inverse, n)
        assert walk == list(eps)
        for x in range(t.coset_count):
            for g in range(1, n):
                assert eps[t.trace((g,), x)] == G.multiply(eps[x], g)
                assert eps[t.trace((-g,), x)] == G.multiply(eps[x], G.inverse(g))


def _unbuilt(*args):
    raise AssertionError("the relators were built")


def test_colimit_enumeration_reads_no_relators(monkeypatch):
    """A presentation from ``build_presentation`` is enumerated from its
    group's Cayley table: with the relator build made to fail, it still
    closes to the frozen table, at q = 2 and at q = 3, and setting up the
    enumeration stays small (the relator forms of extraspecial:3:2 peaked at
    2.38 MB)."""
    monkeypatch.setattr(presentations, "_pair_relators", _unbuilt)
    for spec, q in (("extraspecial:3:2", 2), ("quaternion", 3)):
        t = todd_coxeter(build_presentation(build(spec), q))
        assert _digest(t, t.high_water) == FROZEN[f"{spec} q={q}"][1]
    P = build_presentation(build("extraspecial:3:2"), 2)
    tracemalloc.start()
    try:
        todd_coxeter(P, limit=1)
        assert tracemalloc.get_traced_memory()[1] <= 1.5 * 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ngens,relators,repeats", [
    # A4 = <a, b | a^2, b^3, (ab)^3>: (ab)^3 again, rotated, and inverted
    (2, [(1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2)],
     [(2, 1, 2, 1, 2, 1), (-2, -1, -2, -1, -2, -1), (-2, -2, -2)]),
    # the "collapse" presentation: a rotation and the inverse of its first relator
    (2, [(1, 2, -1, -2, -2), (2, 1, -2, -1, -1)],
     [(-1, -2, -2, 1, 2), (2, 2, 1, -2, -1)]),
])
def test_repeated_relator_forms_change_nothing(ngens, relators, repeats):
    """A relator that is a rotation of another, or of its inverse, adds no
    form; listed before or after it, the table is the same cell for cell."""
    once = _manual(ngens, relators)
    for listed in (relators + repeats, repeats + relators):
        again = _manual(ngens, listed)
        assert (again.state, again.high_water, _columns(again)) == (
            once.state, once.high_water, _columns(once))


# -- how the inverse columns are derived ------------------------------------------

@pytest.mark.parametrize("ngens,relators,order,ic", [
    # a self-paired involution shares one column with its inverse
    (1, [(1, 1)], 2, [0]),
    # mutual unique partners share a column pair
    (2, [(1, 2), (2, 1), (1, 1, 1)], 3, [1, 0]),
    # 1 has two partners: nobody pairs, all keep formal inverse columns
    (3, [(1, 2), (1, 3), (1, 1, 1)], 3, [3, 4, 5, 0, 1, 2]),
    # no length-2 relators at all
    (2, [(1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1)], 8, [2, 3, 0, 1]),
    # involutions 1 and 2 keep one column each, 3 and 4 formal inverse columns;
    # column 0's two forms share their middle letter
    (*S3_SHARED_MIDDLE, 6, [0, 1, 4, 5, 2, 3]),
    # the involution 2 keeps one column, 1 and 3 formal inverse columns
    (*Z6_PERMUTED_ENDS, 6, [3, 1, 4, 0, 2]),
])
def test_inverse_column_pairing(ngens, relators, order, ic):
    t = _manual(ngens, relators)
    assert t.coset_count == order == _sympy_order(ngens, relators)
    assert t.inverse_column == ic and t.width == len(ic)
    _assert_paired(t)
    _assert_closed_action(t, relators)
    for j in range(1, ngens + 1):
        for x in range(order):
            assert t.trace((j, -j), x) == x == t.trace((-j, j), x)


def test_bad_limit():
    with pytest.raises(ValueError):
        todd_coxeter(build_presentation(build("sym:3"), 2), limit=0)


@pytest.mark.parametrize("relator", [(0, 1, 1), (1, 0), (1, 1, 3), (1, -3)])
def test_letters_outside_the_generators_are_rejected(relator):
    # letter 0 would read the last inverse column, letters past k index past it
    with pytest.raises(ValueError) as exc:
        _manual(1, [relator])
    assert str(relator) in str(exc.value)


# -- colimit presentations -------------------------------------------------------

@pytest.mark.parametrize("spec,expected", [
    ("cyclic:4", 4),
    ("cyclic:16", 16),
    ("product:(cyclic:2),(cyclic:4)", 8),
    ("extraspecial:2:2", 64),
])
def test_colimit_enumerations_close(spec, expected):
    G = build(spec)
    t = todd_coxeter(build_presentation(G, 2))
    assert t.closed and t.coset_count == expected


def test_sym3_colimit_does_not_close():
    G = build("sym:3")
    t = todd_coxeter(build_presentation(G, 2), limit=100000)
    assert t.state == LIMIT_EXCEEDED
    assert t.high_water == 100000


def test_q8_closes_at_q3_but_not_q2():
    G = build("quaternion")
    t3 = todd_coxeter(build_presentation(G, 3))
    assert t3.closed and t3.coset_count == 8
    t2 = todd_coxeter(build_presentation(G, 2), limit=30000)
    assert t2.state == LIMIT_EXCEEDED


def test_surjection_chain_counts():
    """Closed counts shrink as q grows, down to |G| once the class is reached."""
    G = build("extraspecial:2:2")
    t2 = todd_coxeter(build_presentation(G, 2))
    t3 = todd_coxeter(build_presentation(G, 3))
    assert t2.coset_count >= t3.coset_count >= G.order
    assert t2.coset_count == 64 and t3.coset_count == 32


def test_determinism():
    G = build("extraspecial:2:2")
    P = build_presentation(G, 2)
    a = todd_coxeter(P)
    b = todd_coxeter(P)
    assert (a.epsilon, a.cells) == (b.epsilon, b.cells)
    assert a.high_water == b.high_water


def test_all_relators_trace_to_zero_everywhere():
    """Every commuting-pair relator dies at every coset."""
    for spec in ["cyclic:6", "extraspecial:2:2", "product:(cyclic:3),(cyclic:3)"]:
        G = build(spec)
        t = todd_coxeter(build_presentation(G, 2))
        for w in _every_pair_relator(G):
            for x in range(t.coset_count):
                assert t.trace(w, x) == x


def test_trace_words():
    G = build("cyclic:4")
    t = todd_coxeter(build_presentation(G, 2))
    assert t.trace(()) == 0
    # (1)^4 is the identity and (1)(3) merges to (1*3 = 0): both die
    assert t.trace((1, 1, 1, 1)) == 0
    assert t.trace((1, 3)) == 0
    assert t.trace((1,)) != 0
    # tracing is an action: concatenation composes
    w1, w2 = (1, 2), (3, 1)
    assert t.trace(w2, t.trace(w1)) == t.trace(w1 + w2)


def test_trace_rejects_bad_generator():
    """Letters past +-3, and 0, name no generator of cyclic:4's presentation."""
    G = build("cyclic:4")
    t = todd_coxeter(build_presentation(G, 2))
    for word in [(9,), (0,), (-9,), (1, 4)]:
        with pytest.raises(ValueError):
            t.trace(word)


def test_trivial_presentation_closes_instantly():
    G = build("cyclic:1")
    t = todd_coxeter(build_presentation(G, 2))
    assert t.closed and t.coset_count == 1
    # no generators: coset 0 holds only itself, and no generator column
    assert list(t.cells) == [0] and _columns(t) == (0, [], [])
    _assert_paired(t)
    _assert_closed_action(t, [])
    assert t.trace(()) == 0 and list(t.breadth_first()) == []


def test_closed_table_is_complete_permutation_action():
    G = build("extraspecial:2:2")
    P = build_presentation(G, 2)
    t = todd_coxeter(P)
    # the inverse of every colimit generator is the inverse element's generator
    assert all(t.trace((-j,), x) == t.trace((G.inverse(j),), x)
               for j in P.generators for x in range(t.coset_count))
    _assert_closed_action(t, _every_pair_relator(G))


def test_breadth_first_tree():
    """One tree edge per non-zero coset, parents discovered first, in the
    order +1, -1, +2, -2, ... of a shortest-first search."""
    G = build("extraspecial:2:2")
    t = todd_coxeter(build_presentation(G, 2))
    edges = list(t.breadth_first())
    assert sorted(y for _, _, y in edges) == list(range(1, t.coset_count))
    depth = {0: 0}
    for x, s, y in edges:
        assert x in depth and t.trace((s,), x) == y
        depth[y] = depth[x] + 1
    assert [depth[y] for _, _, y in edges] == sorted(depth[y] for _, _, y in edges)
    assert edges[0] == (0, 1, t.trace((1,)))
    with pytest.raises(TableNotClosedError):
        next(todd_coxeter(build_presentation(build("sym:3"), 2), limit=5).breadth_first())


# -- independent oracles -----------------------------------------------------------

@pytest.mark.parametrize("spec", [
    "cyclic:4", "product:(cyclic:2),(cyclic:2)", "cyclic:6",
])
def test_order_matches_sympy_coset_enumeration(spec):
    G = build(spec)
    P = build_presentation(G, 2)
    t = todd_coxeter(P)
    assert t.closed
    assert t.coset_count == _sympy_order(P.num_generators, _every_pair_relator(G))


def _sympy_order(ngens, relators):
    """|<x_1..x_ngens | relators>| by sympy's own coset enumeration."""
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    F, *x = free_group(",".join(f"x{j}" for j in range(1, ngens + 1)))
    rels = []
    for w in relators:
        r = F.identity
        for s in w:
            r = r * (x[s - 1] if s > 0 else x[-s - 1] ** -1)
        rels.append(r)
    return FpGroup(F, rels).order()


def _product_spec(orders):
    spec = f"cyclic:{orders[0]}"
    for n in orders[1:]:
        spec = f"product:({spec}),(cyclic:{n})"
    return spec


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
    lambda orders: math.prod(orders) <= 16
))
def test_abelian_colimit_is_the_group(orders):
    """For abelian G the colimit is G itself: the table closes at |G|."""
    G = build(_product_spec(orders))
    P = build_presentation(G, 2)
    t = todd_coxeter(P)
    assert t.closed and t.coset_count == G.order
    _assert_closed_action(t, _every_pair_relator(G))


@st.composite
def _presentations(draw):
    k = draw(st.integers(2, 3))
    letter = st.integers(-k, k).filter(bool)
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=6).map(tuple),
                             min_size=1, max_size=4))
    return k, relators


@settings(max_examples=60, deadline=None)
@given(_presentations())
def test_random_presentations_close_to_an_action(presentation):
    """Small random presentations are coincidence-heavy: whenever one closes
    within the limit, the table is a consistent permutation action, and a
    second run reproduces it cell for cell."""
    k, relators = presentation
    t = _manual(k, relators, limit=2000)
    _assert_paired(t)
    if t.closed:
        _assert_closed_action(t, relators)
        again = _manual(k, relators, limit=2000)
        assert (again.high_water, again.cells) == (t.high_water, t.cells)
