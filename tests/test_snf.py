"""Smith normal form against the textbook oracle."""

import random

from nilcolim.snf import smith_normal_form

import oracles as O


def test_known_matrices():
    assert smith_normal_form([[1, 0], [0, 1]]).rank == 2
    assert smith_normal_form([[0, 0], [0, 0]]).rank == 0
    got = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert got.rank == 3 and got.torsion == (2, 2, 156)
    got = smith_normal_form([[2, -2, 0], [2, 0, -2], [4, 0, 0]])
    assert got.rank == 3 and got.torsion == (2, 2, 4)
    assert smith_normal_form([]).rank == 0
    assert smith_normal_form([[5]]).torsion == (5,)


def test_divisibility_chain():
    rng = random.Random(31)
    for _ in range(60):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)]
        res = smith_normal_form(m)
        for a, b in zip(res.torsion, res.torsion[1:]):
            assert b % a == 0
        assert res.rank <= min(nr, nc)


def test_matches_naive_oracle():
    rng = random.Random(37)
    for _ in range(80):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [[rng.randrange(-15, 16) for _ in range(nc)] for _ in range(nr)]
        res = smith_normal_form(m)
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
        res = smith_normal_form(m)
        oracle = O.determinantal_divisors(m)
        assert res.rank == len(oracle)
        assert list(res.torsion) == [d for d in oracle if d > 1]


def test_matches_sympy_invariant_factors():
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(47)
    for _ in range(200):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)]
        res = smith_normal_form(m)
        oracle = [abs(int(d)) for d in invariant_factors(Matrix(m), domain=ZZ) if d != 0]
        assert res.rank == len(oracle)
        assert list(res.torsion) == [d for d in oracle if d > 1]


def test_transposition_invariance():
    rng = random.Random(41)
    for _ in range(40):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)]
        mt = [[m[i][j] for i in range(nr)] for j in range(nc)]
        a, b = smith_normal_form(m), smith_normal_form(mt)
        assert a == b


def test_describe():
    from nilcolim.snf import SNFResult

    assert SNFResult(0, (2,)).describe() == "Z/2"
    assert SNFResult(2, ()).describe() == "Z + Z"
    assert SNFResult(1, (2, 4)).describe() == "Z + Z/2 + Z/4"
    assert SNFResult(0, ()).describe() == "0"
