"""Smith normal form against the textbook oracle."""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcolim import build, snf
from nilcolim.bar_complex import build_complex
from nilcolim.snf import _dense_snf, smith_normal_form

import oracles as O


def _snf(m):
    """The Smith form of the dense matrix ``m``, through its sparse rows."""
    return smith_normal_form(O.sparse_rows(m))


def _sympy_divisors(m):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    return [abs(int(d)) for d in invariant_factors(Matrix(m), domain=ZZ) if d != 0]


def test_known_matrices():
    assert _snf([[1, 0], [0, 1]]).rank == 2
    assert _snf([[0, 0], [0, 0]]).rank == 0
    got = _snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert got.rank == 3 and got.torsion == (2, 2, 156)
    got = _snf([[2, -2, 0], [2, 0, -2], [4, 0, 0]])
    assert got.rank == 3 and got.torsion == (2, 2, 4)
    assert _snf([]).rank == 0
    assert _snf([[5]]).torsion == (5,)


def test_divisibility_chain():
    rng = random.Random(31)
    for _ in range(60):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)]
        res = _snf(m)
        for a, b in zip(res.torsion, res.torsion[1:]):
            assert b % a == 0
        assert res.rank <= min(nr, nc)


def test_matches_naive_oracle():
    rng = random.Random(37)
    for _ in range(80):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [[rng.randrange(-15, 16) for _ in range(nc)] for _ in range(nr)]
        res = _snf(m)
        oracle = O.naive_snf_divisors([row[:] for row in m])
        assert res.rank == len(oracle)
        assert list(res.torsion) == [d for d in oracle if d > 1]
        assert res.rank == O.naive_rank_over_q(m)


def test_matches_determinantal_divisors():
    """Cross-check against the minors-gcd route, which shares no code."""
    rng = random.Random(43)
    for _ in range(40):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(nc)] for _ in range(nr)]
        res = _snf(m)
        oracle = O.determinantal_divisors(m)
        assert res.rank == len(oracle)
        assert list(res.torsion) == [d for d in oracle if d > 1]


def test_matches_sympy_invariant_factors():
    rng = random.Random(47)
    for _ in range(200):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)]
        res = _snf(m)
        oracle = _sympy_divisors(m)
        assert res.rank == len(oracle)
        assert list(res.torsion) == [d for d in oracle if d > 1]


@st.composite
def _sparse_matrices(draw):
    """Mostly-zero matrices like boundary and relator matrices, with the
    zero rows and columns and the repeated and negated rows and columns
    they carry."""
    nr, nc = draw(st.integers(1, 30)), draw(st.integers(1, 40))
    # (2, -2): no unit entry at all, so the dense core does everything
    values = draw(st.sampled_from([(1, -1, 2, -2), (1, -1, 1, -1, 2, -2), (2, -2)]))
    density = draw(st.sampled_from([0.05, 0.15, 0.4]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = [
        [rng.choice(values) if rng.random() < density else 0 for _ in range(nc)]
        for _ in range(nr)
    ]
    for j in rng.sample(range(nc), rng.randrange(nc // 4 + 1)):
        for row in m:
            row[j] = 0
    for _ in range(rng.randrange(5)):
        j, sign = rng.randrange(nc), rng.choice((1, -1))
        for row in m:
            row.append(sign * row[j])
    nc = len(m[0])
    for _ in range(rng.randrange(5)):
        row = rng.choice(m)
        m.append(list(row) if rng.random() < 0.5 else [-x for x in row])
    m.extend([0] * nc for _ in range(rng.randrange(3)))
    rng.shuffle(m)
    return m


def _checked_elimination(sparse, holders, count, eliminate=snf._eliminate_unit_pivots):
    """Eliminate, then check the bookkeeping against the rows left: each
    column's count is the number of live rows that hold it, and each of
    them is on its holder list."""
    eliminate(sparse, holders, count)
    for j, n in enumerate(count):
        live = [i for i, row in enumerate(sparse) if row and j in row]
        assert n == len(live) and set(live) <= set(holders[j])


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_sparse_matrices_match_sympy_and_the_dense_core(m):
    rows = O.sparse_rows(m)
    before = [dict(r) for r in rows]
    with mock.patch.object(snf, "_eliminate_unit_pivots", wraps=_checked_elimination) as hook:
        res = smith_normal_form(rows)
    assert hook.call_count == 1
    assert rows == before  # the input is read, never reduced in place
    oracle = _sympy_divisors(m)
    assert res.rank == len(oracle)
    assert list(res.torsion) == [d for d in oracle if d > 1]
    assert _dense_snf([row[:] for row in m]) == res


@pytest.mark.parametrize("spec, n", [("extraspecial:2:3", 2), ("extraspecial:2:2", 3)])
def test_smith_form_peak_memory(spec, n):
    """Flat set-up keys and append-only holder lists: the Smith form of d_2
    of extraspecial:2:3 (23,941 nonzeros) and of d_3 of extraspecial:2:2
    (16,380) peak at 2.3 and 2.1 MB traced, so 3.2 MB leaves headroom."""
    rows = build_complex(build(spec), 2, n).boundary(n)
    tracemalloc.start()
    try:
        smith_normal_form(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_200_000


def _up_to_sign(line):
    line = tuple(line)
    return max(line, tuple(-x for x in line))


def test_dense_core_gets_distinct_rows_and_columns(monkeypatch):
    """The boundary matrices repeat columns, and elimination leaves more
    repeats; the dense core receives none of them, and no zero line."""
    from nilcolim import build, snf
    from nilcolim.bar_complex import build_complex

    cores = []

    def record(m):
        cores.append([row[:] for row in m])
        return _dense_snf(m)

    monkeypatch.setattr(snf, "_dense_snf", record)
    for spec, n in (("extraspecial:2:2", 3), ("extraspecial:2:3", 2)):
        smith_normal_form(build_complex(build(spec), 2, n).boundary(n))
    assert len(cores) == 2 and all(cores)
    for m in cores:
        for lines in (m, list(zip(*m))):
            keys = [_up_to_sign(line) for line in lines]
            assert len(set(keys)) == len(keys)
            assert all(any(key) for key in keys)


def _unimodular_conjugate(rng, d):
    """U . d . V for U, V products of random elementary operations."""
    m = [row[:] for row in d]
    nr, nc = len(m), len(m[0])
    for _ in range(2 * (nr + nc)):
        i, j = rng.randrange(nr), rng.randrange(nr)
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            c = rng.choice((1, -1, 2, -3))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        i, j = rng.randrange(nc), rng.randrange(nc)
        if i == j:
            for row in m:
                row[i] = -row[i]
        else:
            c = rng.choice((1, -1, 2, -3))
            for row in m:
                row[i] += c * row[j]
    return m


def test_unimodular_conjugates_keep_the_divisors():
    rng = random.Random(53)
    for _ in range(60):
        nr, nc = rng.randrange(1, 16), rng.randrange(1, 21)
        divisors = []
        d = 1
        for _ in range(rng.randrange(min(nr, nc) + 1)):
            d *= rng.choice((1, 1, 1, 2, 3))
            divisors.append(d)
        diag = [[0] * nc for _ in range(nr)]
        for t, dt in enumerate(divisors):
            diag[t][t] = dt
        m = _unimodular_conjugate(rng, diag)
        res = _snf(m)
        assert res.rank == len(divisors)
        assert res.torsion == tuple(dt for dt in divisors if dt > 1)
        assert _dense_snf(m) == res


def test_transposition_invariance():
    rng = random.Random(41)
    for _ in range(40):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)]
        mt = [[m[i][j] for i in range(nr)] for j in range(nc)]
        a, b = _snf(m), _snf(mt)
        assert a == b


def test_describe():
    from nilcolim.snf import SNFResult

    assert SNFResult(0, (2,)).describe() == "Z/2"
    assert SNFResult(2, ()).describe() == "Z + Z"
    assert SNFResult(1, (2, 4)).describe() == "Z + Z/2 + Z/4"
    assert SNFResult(0, ()).describe() == "0"
