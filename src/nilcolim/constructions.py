"""Builders for the group families the toolkit analyzes.

Spec grammar (shared with the CLI):

    cyclic:n            dihedral:n  (symmetries of the n-gon, order 2n)
    quaternion          sym:n       alt:n
    extraspecial:p:r    gl:n:p      product:(spec),(spec)
    perm:(cycles);(cycles);...      table:path

Cycle notation uses 1-based points, e.g. ``perm:(1 2 3)(4 5);(1 2)``.

Extraspecial groups use the Heisenberg cocycle model on F_p^r x F_p^r x F_p
with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a.b'); for p = 2 this realizes
the central product of r copies of the dihedral group of order 8.  GL
groups are stored through their permutation action on the p^n vectors, with
the matrix view kept for element naming.
"""

from __future__ import annotations

import math
from typing import NamedTuple
from .groups import (
    FiniteGroup,
    MapTable,
    load_multiplication_table,
)
from .permutations import (
    StabilizerChain,
    compose,
    extend,
    format_cycles,
    identity_perm,
    invert,
    parse_cycles,
)

MAX_PERM_POINTS = 1 << 16


class SpecError(ValueError):
    """A group spec string failed to parse or validate."""


class GroupSpec(NamedTuple):
    kind: str
    params: tuple = ()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


def parse_group_spec(text: str) -> GroupSpec:
    text = text.strip()
    if text == "quaternion":
        return GroupSpec("quaternion")
    head, sep, rest = text.partition(":")
    if not sep:
        raise SpecError(f"unrecognized group spec {text!r}")
    if head in ("cyclic", "dihedral", "sym", "alt"):
        try:
            n = int(rest)
        except ValueError as exc:
            raise SpecError(f"{head} wants an integer parameter: {text!r}") from exc
        if n < 1 or (head == "alt" and n < 3):
            raise SpecError(f"{head}:{n} is out of range")
        return GroupSpec(head, (n,))
    if head == "extraspecial":
        parts = rest.split(":")
        if len(parts) != 2:
            raise SpecError(f"extraspecial wants p and r: {text!r}")
        p, r = int(parts[0]), int(parts[1])
        if not _is_prime(p):
            raise SpecError(f"extraspecial: {p} is not prime")
        if r < 1:
            raise SpecError(f"extraspecial: r must be >= 1, got {r}")
        return GroupSpec("extraspecial", (p, r))
    if head == "gl":
        parts = rest.split(":")
        if len(parts) != 2:
            raise SpecError(f"gl wants n and p: {text!r}")
        n, p = int(parts[0]), int(parts[1])
        if n < 1:
            raise SpecError(f"gl: n must be >= 1, got {n}")
        if not _is_prime(p):
            raise SpecError(f"gl: {p} is not prime (prime fields only)")
        if p ** n > MAX_PERM_POINTS:
            raise SpecError(f"gl: p^n = {p ** n} exceeds {MAX_PERM_POINTS} points")
        return GroupSpec("gl", (n, p))
    if head == "product":
        left, right = _split_product(rest)
        return GroupSpec("product", (parse_group_spec(left), parse_group_spec(right)))
    if head == "perm":
        chunks = tuple(c.strip() for c in rest.split(";") if c.strip())
        if not chunks:
            raise SpecError(f"perm spec needs at least one generator: {text!r}")
        return GroupSpec("perm", (chunks,))
    if head == "table":
        if not rest:
            raise SpecError("table spec needs a path")
        return GroupSpec("table", (rest,))
    raise SpecError(f"unrecognized group spec {text!r}")


def _split_product(rest: str) -> tuple[str, str]:
    if not rest.startswith("("):
        raise SpecError(f"product wants (spec),(spec), got {rest!r}")
    depth = 0
    for i, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                left = rest[1:i]
                tail = rest[i + 1 :]
                if not tail.startswith(",(") or not tail.endswith(")"):
                    raise SpecError(f"product wants (spec),(spec), got {rest!r}")
                return left, tail[2:-1]
    raise SpecError(f"unbalanced parentheses in product spec {rest!r}")


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(
        backing="table",
        order=n,
        identity_key=0,
        generator_keys=[1] if n > 1 else [],
        mul_key=lambda a, b: (a + b) % n,
        inv_key=lambda a: (-a) % n,
        key_name=str,
        label=f"cyclic:{n}",
    )


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon: order 2n, elements r^k s^f."""

    def mul(x, y):
        k1, f1 = x
        k2, f2 = y
        return ((k1 + (k2 if f1 == 0 else -k2)) % n, f1 ^ f2)

    def inv(x):
        k, f = x
        return ((-k) % n, 0) if f == 0 else x

    def name(x):
        k, f = x
        r = f"r^{k}" if k else ""
        s = "s" if f else ""
        return (r + s) or "1"

    return FiniteGroup(
        backing="table",
        order=2 * n,
        identity_key=(0, 0),
        generator_keys=[(1, 0), (0, 1)] if n > 1 else [(0, 1)],
        mul_key=mul,
        inv_key=inv,
        key_name=name,
        label=f"dihedral:{n}",
    )


_Q8_NAMES = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
_Q8_AXIS = {  # products of the units 1,i,j,k: (sign, axis)
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
    (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
    (1, 2): (0, 3), (2, 1): (1, 3),
    (2, 3): (0, 1), (3, 2): (1, 1),
    (3, 1): (0, 2), (1, 3): (1, 2),
}


def quaternion_group() -> FiniteGroup:
    def mul(x, y):
        s, u = _Q8_AXIS[(x >> 1, y >> 1)]
        return ((x ^ y ^ s) & 1) | (u << 1)

    def inv(x):
        return mul(mul(x, x), x)  # every element has order dividing 4

    return FiniteGroup(
        backing="table",
        order=8,
        identity_key=0,
        generator_keys=[2, 4],  # i, j
        mul_key=mul,
        inv_key=inv,
        key_name=lambda x: _Q8_NAMES[x],
        label="quaternion",
    )


def symmetric_group(n: int) -> FiniteGroup:
    gens = []
    if n >= 2:
        gens.append(parse_cycles("(1 2)", n))
    if n >= 3:
        gens.append(tuple(list(range(1, n)) + [0]))  # the n-cycle (1 2 ... n)
    return FiniteGroup(
        backing="perm",
        order=math.factorial(n),
        identity_key=identity_perm(n),
        generator_keys=gens,
        mul_key=compose,
        inv_key=invert,
        key_name=format_cycles,
        label=f"sym:{n}",
    )


def alternating_group(n: int) -> FiniteGroup:
    if n < 3:
        raise SpecError(f"alt:{n} needs n >= 3")
    gens = [parse_cycles("(1 2 3)", n)]
    if n > 3:
        if n % 2 == 1:
            gens.append(tuple(list(range(1, n)) + [0]))  # (1 2 ... n)
        else:
            cyc = list(range(n))  # (2 3 ... n): fix point 0
            for i in range(1, n):
                cyc[i] = i + 1 if i + 1 < n else 1
            gens.append(tuple(cyc))
    return FiniteGroup(
        backing="perm",
        order=math.factorial(n) // 2,
        identity_key=identity_perm(n),
        generator_keys=gens,
        mul_key=compose,
        inv_key=invert,
        key_name=format_cycles,
        label=f"alt:{n}",
    )


def extraspecial_group(p: int, r: int) -> FiniteGroup:
    """Heisenberg model on F_p^r x F_p^r x F_p; order p^(2r+1)."""
    if not _is_prime(p):
        raise SpecError(f"extraspecial: {p} is not prime")
    if r < 1:
        raise SpecError("extraspecial: r must be >= 1")

    def mul(x, y):
        dot = sum(x[i] * y[r + i] for i in range(r)) % p
        return tuple(
            (x[i] + y[i]) % p for i in range(2 * r)
        ) + (((x[2 * r] + y[2 * r] + dot) % p),)

    def inv(x):
        dot = sum(x[i] * x[r + i] for i in range(r)) % p
        return tuple((-x[i]) % p for i in range(2 * r)) + (((-x[2 * r] + dot) % p),)

    def name(x):
        a = " ".join(str(v) for v in x[:r])
        b = " ".join(str(v) for v in x[r : 2 * r])
        return f"({a}|{b}|{x[2 * r]})"

    gens = []
    for i in range(r):
        e = [0] * (2 * r + 1)
        e[i] = 1
        gens.append(tuple(e))
    for i in range(r):
        e = [0] * (2 * r + 1)
        e[r + i] = 1
        gens.append(tuple(e))
    return FiniteGroup(
        backing="table",
        order=p ** (2 * r + 1),
        identity_key=tuple([0] * (2 * r + 1)),
        generator_keys=gens,
        mul_key=mul,
        inv_key=inv,
        key_name=name,
        label=f"extraspecial:{p}:{r}",
    )


# -- matrices over F_p and their permutation action --------------------------

def _vec_index(v: tuple[int, ...], p: int) -> int:
    idx = 0
    for x in v:
        idx = idx * p + x
    return idx


def _index_vec(idx: int, n: int, p: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = idx % p
        idx //= p
    return tuple(out)


def matrix_to_perm(m: tuple[int, ...], n: int, p: int) -> tuple[int, ...]:
    """Permutation of the p^n vectors induced by v -> M v."""
    npoints = p ** n
    images = [0] * npoints
    for idx in range(npoints):
        v = _index_vec(idx, n, p)
        w = tuple(sum(m[i * n + j] * v[j] for j in range(n)) % p for i in range(n))
        images[idx] = _vec_index(w, p)
    return tuple(images)


def perm_to_matrix(perm: tuple[int, ...], n: int, p: int) -> tuple[int, ...]:
    """Recover the matrix from its vector permutation (columns = M e_j)."""
    cols = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        cols.append(_index_vec(perm[_vec_index(tuple(e), p)], n, p))
    return tuple(cols[j][i] for i in range(n) for j in range(n))


def _matrix_name(n: int, p: int):
    def name(perm):
        m = perm_to_matrix(perm, n, p)
        rows = ["[" + " ".join(str(m[i * n + j]) for j in range(n)) + "]" for i in range(n)]
        return "[" + "".join(rows) + "]"

    return name


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise SpecError(f"no primitive root modulo {p}")


def gl_order(n: int, p: int) -> int:
    q = p ** n
    out = 1
    for i in range(n):
        out *= q - p ** i
    return out


def elementary_matrix_tuple(n: int, p: int, i: int, j: int) -> tuple[int, ...]:
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise SpecError(f"elementary matrix wants 1 <= i != j <= n, got ({i}, {j})")
    m = [1 if a == b else 0 for a in range(n) for b in range(n)]
    m[(i - 1) * n + (j - 1)] = 1
    return tuple(m)


def general_linear_group(n: int, p: int) -> FiniteGroup:
    """GL_n(F_p) as permutations of the p^n vectors (canonical generators:
    the elementary matrices E_ij in lexicographic (i, j) order, plus
    diag(g, 1, ..., 1) for p > 2 with g the least primitive root)."""
    if p ** n > MAX_PERM_POINTS:
        raise SpecError(f"gl:{n}:{p} needs {p ** n} points, over the {MAX_PERM_POINTS} cap")
    gen_mats = [
        elementary_matrix_tuple(n, p, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    if p > 2:
        g = _primitive_root(p)
        d = [1 if a == b else 0 for a in range(n) for b in range(n)]
        d[0] = g
        gen_mats.append(tuple(d))
    return FiniteGroup(
        backing="perm",
        order=gl_order(n, p),
        identity_key=identity_perm(p ** n),
        generator_keys=[matrix_to_perm(m, n, p) for m in gen_mats],
        mul_key=compose,
        inv_key=invert,
        key_name=_matrix_name(n, p),
        label=f"gl:{n}:{p}",
    )


def product_group(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    order = a.order * b.order

    def mul(x, y):
        return (a._mul_key(x[0], y[0]), b._mul_key(x[1], y[1]))

    def inv(x):
        return (a._inv_key(x[0]), b._inv_key(x[1]))

    ia, ib = a.key_of(0), b.key_of(0)
    gens = [(a.key_of(g), ib) for g in a.generators] + [
        (ia, b.key_of(g)) for g in b.generators
    ]
    return FiniteGroup(
        backing="product",
        order=order,
        identity_key=(ia, ib),
        generator_keys=gens,
        mul_key=mul,
        inv_key=inv,
        key_name=lambda x: f"({a._key_name(x[0])},{b._key_name(x[1])})",
        label=f"product:({a.label}),({b.label})",
    )


def perm_group_from_cycles(chunks: tuple[str, ...]) -> FiniteGroup:
    raw = [parse_cycles(c) for c in chunks]
    degree = max([len(r) for r in raw] + [1])
    gens = [extend(r, degree) for r in raw]
    ident = identity_perm(degree)
    return FiniteGroup(
        backing="perm",
        order=StabilizerChain(gens, degree).order(),
        identity_key=ident,
        generator_keys=[g for g in gens if g != ident],
        mul_key=compose,
        inv_key=invert,
        key_name=format_cycles,
        label="perm:" + ";".join(chunks),
    )


_BUILD_CACHE: dict[GroupSpec, FiniteGroup] = {}


def build(spec) -> FiniteGroup:
    """Build (and cache) the group described by a GroupSpec or spec string."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if spec.kind != "table" and spec in _BUILD_CACHE:
        return _BUILD_CACHE[spec]
    k, prm = spec.kind, spec.params
    if k == "cyclic":
        grp = cyclic_group(prm[0])
    elif k == "dihedral":
        grp = dihedral_group(prm[0])
    elif k == "quaternion":
        grp = quaternion_group()
    elif k == "sym":
        grp = symmetric_group(prm[0])
    elif k == "alt":
        grp = alternating_group(prm[0])
    elif k == "extraspecial":
        grp = extraspecial_group(prm[0], prm[1])
    elif k == "gl":
        grp = general_linear_group(prm[0], prm[1])
    elif k == "product":
        grp = product_group(build(prm[0]), build(prm[1]))
    elif k == "perm":
        grp = perm_group_from_cycles(prm[0])
    elif k == "table":
        grp = load_multiplication_table(prm[0])
    else:
        raise SpecError(f"unknown spec kind {k!r}")
    if spec.kind != "table":
        _BUILD_CACHE[spec] = grp
    return grp


# ---------------------------------------------------------------------------
# the distinguished sequences and embeddings
# ---------------------------------------------------------------------------

def extraspecial_symplectic_basis(p: int, r: int) -> tuple[FiniteGroup, list[int]]:
    """The lifted basis in the Heisenberg model: ids of the 2r elements
    (delta_i|0|0) and (0|delta_i|0), in that order.  No command runs it;
    the theorem-1 and symplectic tests start from it."""
    grp = build(GroupSpec("extraspecial", (p, r)))
    ids = []
    for i in range(r):
        e = [0] * (2 * r + 1)
        e[i] = 1
        ids.append(grp.id_of_key(tuple(e)))
    for i in range(r):
        e = [0] * (2 * r + 1)
        e[r + i] = 1
        ids.append(grp.id_of_key(tuple(e)))
    return grp, ids


def elementary_matrix(n: int, p: int, i: int, j: int) -> int:
    """Id of the transvection E_ij inside the cached gl:n:p group.
    No command runs it; gl_symplectic_sequence and the tests do."""
    grp = build(GroupSpec("gl", (n, p)))
    return grp.id_of_key(matrix_to_perm(elementary_matrix_tuple(n, p, i, j), n, p))


def gl_symplectic_sequence(n: int, p: int) -> tuple[FiniteGroup, list[int]]:
    """The four transvections {E_12, E_13, E_2n, E_3n} in gl:n:p (n >= 4).
    No command runs it; acceptance criterion 2 does."""
    if n < 4:
        raise SpecError(f"gl symplectic sequence needs n >= 4, got {n}")
    grp = build(GroupSpec("gl", (n, p)))
    ids = [
        elementary_matrix(n, p, 1, 2),
        elementary_matrix(n, p, 1, 3),
        elementary_matrix(n, p, 2, n),
        elementary_matrix(n, p, 3, n),
    ]
    return grp, ids


def embed_gl_in_sym(n: int, p: int) -> MapTable:
    """The injection of gl:n:p into sym:p^n as permutations of the vectors.
    No command runs it; acceptance criterion 2 does."""
    if p ** n > MAX_PERM_POINTS:
        raise SpecError(f"embedding needs {p ** n} points, over the cap")
    source = build(GroupSpec("gl", (n, p)))
    target = build(GroupSpec("sym", (p ** n,)))
    if source.materialized:
        images = [target.id_of_key(source.key_of(a)) for a in range(source.order)]
        return MapTable(source, target, images)
    return MapTable(source, target, lambda a: target.id_of_key(source.key_of(a)))


def embed_in_larger_sym(source: FiniteGroup, k: int) -> MapTable:
    """Include a permutation-backed group into sym:k by fixing extra points."""
    if source.backing != "perm":
        raise SpecError("embed_in_larger_sym wants a permutation-backed group")
    degree = len(source.key_of(0))
    if k < degree:
        raise SpecError(f"cannot embed degree {degree} into sym:{k}")
    target = build(GroupSpec("sym", (k,)))
    return MapTable(source, target, lambda a: target.id_of_key(extend(source.key_of(a), k)))


def seeded_gl_sequence_in_sym(k: int) -> tuple[FiniteGroup, list[int]]:
    """The gl:4:2 transvection sequence viewed inside sym:k (k >= 16).

    The four transvections E_12, E_13, E_24, E_34 are built as permutations
    of the 16 vectors directly; gl:4:2 itself is never materialized.
    """
    if k < 16:
        raise SpecError(f"the seeded sequence needs at least 16 points, got {k}")
    target = build(GroupSpec("sym", (k,)))
    perms = [
        matrix_to_perm(elementary_matrix_tuple(4, 2, i, j), 4, 2)
        for i, j in ((1, 2), (1, 3), (2, 4), (3, 4))
    ]
    return target, [target.id_of_key(extend(m, k)) for m in perms]
