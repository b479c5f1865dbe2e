"""Group builders, the spec grammar, and the distinguished embeddings."""

import math
import random

import pytest

from nilcolim import (
    GroupSpec,
    build,
    center,
    closure,
    commutator,
    derived_subgroup,
    parse_group_spec,
)
from nilcolim.constructions import (
    SpecError,
    elementary_matrix,
    elementary_matrix_tuple,
    embed_gl_in_sym,
    embed_in_larger_sym,
    extraspecial_symplectic_basis,
    gl_order,
    gl_symplectic_sequence,
    matrix_to_perm,
    perm_to_matrix,
    seeded_gl_sequence_in_sym,
)
from nilcolim.groups import MAX_ENUMERATED_ORDER

import oracles as O


# -- spec grammar --------------------------------------------------------------

@pytest.mark.parametrize("text,order", [
    ("cyclic:7", 7),
    ("dihedral:6", 12),
    ("quaternion", 8),
    ("sym:4", 24),
    ("alt:4", 12),
    ("extraspecial:2:2", 32),
    ("extraspecial:3:2", 243),
    ("gl:2:3", 48),
    ("product:(cyclic:2),(cyclic:3)", 6),
    ("product:(product:(cyclic:2),(cyclic:2)),(cyclic:2)", 8),
    ("perm:(1 2 3)(4 5);(1 2)", 12),
    ("perm:(1 2 3 4 5);(1 2)", 120),
    ("perm:(1 2 3 4)", 4),
    ("perm:(1 2 3);(2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)", 10461394944000),  # A16
])
def test_build_orders(text, order):
    G = build(text)
    assert G.order == order
    assert G.materialized == (order <= MAX_ENUMERATED_ORDER)


@pytest.mark.parametrize("bad", [
    "cyclic:0",
    "alt:2",
    "extraspecial:4:2",     # 4 is not prime
    "extraspecial:2:0",
    "gl:4:4",               # non-prime field
    "gl:20:2",              # too many points
    "product:cyclic:2,cyclic:3",
    "nosuch:3",
    "perm:",
    "quaternion:3",
])
def test_bad_specs_rejected(bad):
    with pytest.raises(SpecError):
        parse_group_spec(bad)


def test_build_caches_instances():
    assert build("quaternion") is build("quaternion")
    assert build("gl:4:2") is build("gl:4:2")
    # keyed by the parsed spec, so a string and its GroupSpec share one entry
    assert build(" product:(sym:3),(cyclic:2)") is build(
        GroupSpec("product", (GroupSpec("sym", (3,)), GroupSpec("cyclic", (2,)))))


# -- cyclic / dihedral / product ------------------------------------------------

def test_cyclic_ids_are_exponents():
    z9 = build("cyclic:9")
    assert [z9.multiply(1, k) for k in range(9)] == [(1 + k) % 9 for k in range(9)]


def test_dihedral_structure():
    d6 = build("dihedral:6")  # order 12
    assert d6.order == 12
    assert not d6.is_abelian
    assert center(d6).order == 2
    assert derived_subgroup(d6).order == 3
    d1 = build("dihedral:1")
    assert d1.order == 2 and d1.is_abelian


def test_product_componentwise():
    g = build("product:(sym:3),(cyclic:2)")
    assert g.order == 12
    assert derived_subgroup(g).order == 3
    rng = random.Random(2)
    for _ in range(50):
        a, b, c = rng.randrange(12), rng.randrange(12), rng.randrange(12)
        assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))


# -- extraspecial groups ---------------------------------------------------------

@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_extraspecial_invariants(p, r):
    G = build(f"extraspecial:{p}:{r}")
    assert G.order == p ** (2 * r + 1)
    z = center(G)
    d = derived_subgroup(G)
    assert z.order == p
    assert set(z.members) == set(d.members)  # center = commutator subgroup


def test_extraspecial_matches_cocycle_oracle():
    G = build("extraspecial:3:2")
    mult = O.heisenberg_mult(3, 2)
    rng = random.Random(13)
    for _ in range(200):
        a, b = rng.randrange(243), rng.randrange(243)
        assert G.key_of(G.multiply(a, b)) == mult(G.key_of(a), G.key_of(b))


def test_extraspecial_commutator_formula():
    """[(a,b,c), (a',b',c')] = (0, 0, a.b' - a'.b) in the cocycle model."""
    p, r = 3, 2
    G = build(f"extraspecial:{p}:{r}")
    rng = random.Random(17)
    for _ in range(100):
        x, y = rng.randrange(G.order), rng.randrange(G.order)
        kx, ky = G.key_of(x), G.key_of(y)
        form = (
            sum(kx[i] * ky[r + i] for i in range(r))
            - sum(ky[i] * kx[r + i] for i in range(r))
        ) % p
        expected = tuple([0] * (2 * r) + [form])
        assert G.key_of(commutator(G, x, y)) == expected


def test_extraspecial_basis():
    G, basis = extraspecial_symplectic_basis(2, 2)
    assert len(basis) == 4
    c = commutator(G, basis[0], basis[2])
    assert c != 0 and G.element_order(c) == 2
    assert commutator(G, basis[1], basis[3]) == c
    assert commutator(G, basis[0], basis[1]) == 0
    assert closure(G, basis).order == G.order  # the lifts generate

    G3, basis3 = extraspecial_symplectic_basis(3, 2)
    c3 = commutator(G3, basis3[0], basis3[2])
    assert G3.element_order(c3) == 3

    G1, basis1 = extraspecial_symplectic_basis(2, 1)
    assert len(basis1) == 2
    assert commutator(G1, basis1[0], basis1[1]) != 0


# -- GL and the embeddings -------------------------------------------------------

def test_gl_order_formula_and_closure():
    assert gl_order(4, 2) == 20160
    gl = build("gl:4:2")
    assert gl.order == 20160
    assert closure(gl, gl.generators).order == 20160
    gl23 = build("gl:2:3")
    assert gl23.order == (9 - 1) * (9 - 3)
    assert closure(gl23, gl23.generators).order == gl23.order


def test_elementary_matrix_relations():
    gl = build("gl:4:2")
    e12 = elementary_matrix(4, 2, 1, 2)
    e24 = elementary_matrix(4, 2, 2, 4)
    e34 = elementary_matrix(4, 2, 3, 4)
    e14 = elementary_matrix(4, 2, 1, 4)
    assert gl.multiply(e12, e12) == 0           # involution over F_2
    assert commutator(gl, e12, e24) == e14      # [E12, E24] = E14
    assert commutator(gl, e12, e34) == 0        # disjoint slots commute
    with pytest.raises(SpecError):
        elementary_matrix_tuple(4, 2, 2, 2)


def test_matrix_perm_roundtrip():
    rng = random.Random(19)
    for n, p in [(2, 2), (3, 2), (2, 3)]:
        for _ in range(20):
            m = O.mat_identity(n)
            # random product of elementary matrices stays invertible
            for _ in range(4):
                i = rng.randrange(1, n + 1)
                j = rng.randrange(1, n + 1)
                if i != j:
                    m = O.mat_mult(m, O.elementary(n, i, j), n, p)
            perm = matrix_to_perm(m, n, p)
            assert perm[0] == 0  # fixes the zero vector
            assert perm_to_matrix(perm, n, p) == m


def test_gl_symplectic_sequence():
    gl, seq = gl_symplectic_sequence(4, 2)
    assert len(seq) == 4
    c = commutator(gl, seq[0], seq[2])
    assert c == elementary_matrix(4, 2, 1, 4)
    assert commutator(gl, seq[1], seq[3]) == c
    with pytest.raises(SpecError):
        gl_symplectic_sequence(3, 2)


def test_gl_symplectic_sequence_odd_p():
    gl, seq = gl_symplectic_sequence(5, 3)
    assert not gl.materialized  # order is huge; elements register on demand
    c = commutator(gl, seq[0], seq[2])
    assert c != 0
    assert commutator(gl, seq[1], seq[3]) == c
    assert closure(gl, seq).order == 3 ** 5


def test_embed_gl_in_sym_is_injective_homomorphism():
    emb = embed_gl_in_sym(4, 2)
    gl, sym = emb.source, emb.target
    assert emb.image_of(0) == 0
    kernel = [a for a in range(gl.order) if emb.image_of(a) == 0]
    assert kernel == [0]
    rng = random.Random(23)
    for _ in range(100):
        a, b = rng.randrange(gl.order), rng.randrange(gl.order)
        assert emb.image_of(gl.multiply(a, b)) == sym.multiply(
            emb.image_of(a), emb.image_of(b)
        )


def test_gl42_image_is_even():
    """The embedded gl:4:2 lands in the even permutations of the 16 points."""
    gl = build("gl:4:2")
    assert all(O.perm_parity(gl.key_of(a)) == 0 for a in range(gl.order))


def test_embed_in_larger_sym():
    s3 = build("sym:3")
    emb = embed_in_larger_sym(s3, 5)
    sym5 = emb.target
    for a in range(6):
        for b in range(6):
            assert emb.image_of(s3.multiply(a, b)) == sym5.multiply(
                emb.image_of(a), emb.image_of(b)
            )


def test_seeded_gl_sequence_in_sym():
    sym17, ids = seeded_gl_sequence_in_sym(17)
    assert sym17.order == math.factorial(17)
    assert len(ids) == 4
    with pytest.raises(SpecError):
        seeded_gl_sequence_in_sym(8)


def test_seeded_gl_sequence_is_the_embedded_gl_sequence():
    sym16, ids = seeded_gl_sequence_in_sym(16)
    emb = embed_gl_in_sym(4, 2)
    gl, gl_ids = gl_symplectic_sequence(4, 2)
    assert emb.target is sym16 and emb.source is gl
    assert ids == [emb.image_of(g) for g in gl_ids]


def test_alt_orders_and_parity():
    for n in (3, 4, 5, 6, 7, 8):
        alt = build(f"alt:{n}")
        assert alt.order == math.factorial(n) // 2
        assert all(O.perm_parity(alt.key_of(g)) == 0 for g in alt.generators)
        if alt.materialized and alt.order <= 3000:
            assert closure(alt, alt.generators).order == alt.order


def test_sym_orders():
    for n in (1, 2, 3, 4, 5, 6):
        assert build(f"sym:{n}").order == math.factorial(n)
    assert not build("sym:16").materialized


def test_table_spec(tmp_path):
    rows = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    path = tmp_path / "z4.tbl"
    path.write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    G = build(f"table:{path}")
    assert G.order == 4 and G.is_abelian
