"""Permutation utilities and the stabilizer chain."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcolim.permutations import (
    StabilizerChain,
    compose,
    extend,
    format_cycles,
    identity_perm,
    invert,
    parse_cycles,
)

import oracles as O


def test_compose_convention_right_factor_first():
    s = parse_cycles("(1 2)", 3)
    t = parse_cycles("(2 3)", 3)
    st = compose(s, t)
    # (s*t)(x) = s(t(x)): point 3 -> t -> 2 -> s -> 1
    assert st[2] == 0
    assert st == parse_cycles("(1 2 3)", 3)


def test_compose_matches_oracle():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(2, 9)
        s = list(range(n)); rng.shuffle(s)
        t = list(range(n)); rng.shuffle(t)
        assert compose(tuple(s), tuple(t)) == O.perm_mult(tuple(s), tuple(t))


def test_invert():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randrange(1, 10)
        s = list(range(n)); rng.shuffle(s)
        s = tuple(s)
        assert compose(s, invert(s)) == identity_perm(n)
        assert compose(invert(s), s) == identity_perm(n)


def test_cycles_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 12)
        s = list(range(n)); rng.shuffle(s)
        s = tuple(s)
        assert parse_cycles(format_cycles(s), n) == s
    assert format_cycles(identity_perm(4)) == "()"
    assert parse_cycles("()", 3) == identity_perm(3)


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(ValueError):
        parse_cycles("1 2 3", 3)


def test_extend():
    s = parse_cycles("(1 2)", 2)
    assert extend(s, 5) == (1, 0, 2, 3, 4)
    with pytest.raises(ValueError):
        extend(identity_perm(5), 3)


@pytest.mark.parametrize("gens,degree,order", [
    (["(1 2)", "(1 2 3 4 5)"], 5, 120),           # S5
    (["(1 2 3)", "(3 4 5)"], 5, 60),              # A5
    (["(1 2 3 4)"], 4, 4),
    (["(1 2)(3 4)", "(1 3)(2 4)"], 4, 4),         # Klein
    (["(1 2 3 4 5 6 7 8)", "(1 2)"], 8, math.factorial(8)),
    (["(1 2 3)", "(2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)"], 16,
     math.factorial(16) // 2),                    # A16
    (["(1 2)", "(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20)"], 20,
     math.factorial(20)),                         # S20
])
def test_stabilizer_chain_order(gens, degree, order):
    chain = StabilizerChain([parse_cycles(g, degree) for g in gens], degree)
    assert chain.order() == order


@st.composite
def _generating_sets(draw, min_degree=1, max_degree=9, min_size=0, max_size=3):
    degree = draw(st.integers(min_degree, max_degree))
    gens = st.lists(st.permutations(range(degree)), min_size=min_size, max_size=max_size)
    return degree, draw(gens)


def _assert_order_matches_sympy(case):
    from sympy.combinatorics import Permutation, PermutationGroup

    degree, gens = case
    oracle = PermutationGroup(
        [Permutation(g, size=degree) for g in gens] or [Permutation(degree - 1)]
    )
    assert StabilizerChain(gens, degree).order() == oracle.order()


@settings(max_examples=100, deadline=None)
@given(_generating_sets())
def test_stabilizer_chain_order_matches_sympy(case):
    _assert_order_matches_sympy(case)


@settings(max_examples=20, deadline=None)
@given(_generating_sets(min_degree=10, max_degree=16, min_size=2, max_size=2))
def test_stabilizer_chain_order_matches_sympy_two_random_gens(case):
    """Two random permutations mostly generate Alt or Sym of degree 10-16,
    whose long chains need every Schreier generator sifted."""
    _assert_order_matches_sympy(case)


def test_stabilizer_chain_membership():
    degree = 5
    gens = [parse_cycles("(1 2 3)", degree), parse_cycles("(3 4 5)", degree)]
    chain = StabilizerChain(gens, degree)  # A5
    rng = random.Random(8)
    for _ in range(60):
        s = list(range(degree)); rng.shuffle(s)
        s = tuple(s)
        assert chain.contains(s) == (O.perm_parity(s) == 0)


def test_stabilizer_chain_sym16_membership():
    degree = 16
    gens = [parse_cycles("(1 2)", degree),
            parse_cycles("(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)", degree)]
    chain = StabilizerChain(gens, degree)
    assert chain.order() == math.factorial(16)
    rng = random.Random(9)
    s = list(range(degree)); rng.shuffle(s)
    assert chain.contains(tuple(s))
    assert not chain.contains(identity_perm(8))  # wrong degree
