"""Concrete finite groups and the elementary computations everything else uses.

Elements are addressed by stable integer ids; id 0 is always the identity.
Groups of order <= MAX_ENUMERATED_ORDER are materialized up front in a
canonical order: breadth-first from the identity over the generator list,
with each BFS level sorted by a backing-specific key (permutations: image
tuple; matrices and structured carriers: entry tuple; tables: given index).
Larger groups (ambient symmetric groups, big matrix groups) keep a lazy
registry: elements get ids in discovery order and operations that would need
the full carrier raise GroupTooLargeError instead.

Materialized groups of order <= CAYLEY_MAX_ORDER multiply and invert by
lookup in one Cayley table, built on the first ``multiply`` or ``inverse``
(never at construction) and kept for the group's lifetime: n^2 list cells of
8 bytes, at most 8 MB at the cap.  Lazy and larger groups multiply keys.

Groups and subgroups are immutable once materialized; lazy registries only
grow.  All caches are ordinary dicts guarded by the GIL; everything here is
safe to share across threads as long as ids are treated as opaque.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

MAX_ENUMERATED_ORDER = 1 << 20
CAYLEY_MAX_ORDER = 1 << 10  # n^2 cells of 8 bytes: at most 8 MB per group

# [K, H] is computed by the literal all-pairs commutator scan below this
# many pairs, and by normal closure of generator commutators above it.
_BRUTE_COMMUTATOR_PAIRS = 1 << 22


class GroupTooLargeError(RuntimeError):
    """An operation needed the full carrier of a group past the ceiling."""


class InvalidTableError(ValueError):
    """A multiplication-table file failed validation."""


class FiniteGroup:
    """A finite group with integer element ids and a keyed backing.

    ``mul_key``/``inv_key`` operate on backing keys (permutation tuples,
    matrix tuples, structured tuples, or raw table indices); the id layer is
    built on top of them.  Up to CAYLEY_MAX_ORDER, a materialized group
    answers ``multiply``/``inverse`` from a Cayley table built on the first
    such call (8 bytes per cell); an id >= order raises IndexError.
    """

    def __init__(
        self,
        *,
        backing: str,
        order: int,
        identity_key,
        generator_keys: Sequence,
        mul_key: Callable,
        inv_key: Callable,
        key_name: Optional[Callable] = None,
        label: str = "",
        element_keys: Optional[Sequence] = None,
    ):
        if order <= 0:
            raise ValueError(f"group order must be positive, got {order}")
        self.backing = backing
        self.order = order
        self.label = label or backing
        self._mul_key = mul_key
        self._inv_key = inv_key
        self._key_name = key_name or (lambda k: str(k))
        self._key_of: list = []
        self._id_of: dict = {}
        self._pair_class_cache: dict[tuple[int, int], Optional[int]] = {}
        self._centralizers: dict[int, frozenset[int]] = {}
        self._derived: Optional[Subgroup] = None
        self._is_abelian: Optional[bool] = None
        self._cols: Optional[list[list[int]]] = None  # () when keyed
        self._inv: list[int] = []
        gen_keys = list(generator_keys)
        self.materialized = order <= MAX_ENUMERATED_ORDER
        if element_keys is not None:
            # caller-supplied ordering (table files keep their ids verbatim)
            if not self.materialized or len(element_keys) != order:
                raise ValueError("element_keys must list the whole carrier")
            if element_keys[0] != identity_key:
                raise ValueError("element_keys[0] must be the identity")
            self._key_of = list(element_keys)
            self._id_of = {k: i for i, k in enumerate(self._key_of)}
        elif self.materialized:
            ordering = _bfs_order(identity_key, gen_keys, mul_key, order)
            if len(ordering) != order:
                raise ValueError(
                    f"generators produce {len(ordering)} elements, expected order {order}"
                )
            self._key_of = ordering
            self._id_of = {k: i for i, k in enumerate(ordering)}
        else:
            self._register(identity_key)
        self.generators = tuple(self._register(k) for k in gen_keys)

    # -- id / key layer ----------------------------------------------------

    def _register(self, key) -> int:
        got = self._id_of.get(key)
        if got is not None:
            return got
        if self.materialized:
            raise KeyError(f"key {key!r} is not an element of {self.label}")
        new = len(self._key_of)
        self._key_of.append(key)
        self._id_of[key] = new
        return new

    def key_of(self, a: int):
        return self._key_of[a]

    def id_of_key(self, key) -> int:
        """Id of an existing or (for lazy groups) newly registered element."""
        return self._register(key)

    # -- group operations ----------------------------------------------------

    @property
    def identity(self) -> int:
        return 0

    def multiply(self, a: int, b: int) -> int:
        cols = self._cols if self._cols is not None else self.cayley_columns()
        if cols:
            return cols[b][a]
        return self._register(self._mul_key(self._key_of[a], self._key_of[b]))

    def inverse(self, a: int) -> int:
        cols = self._cols if self._cols is not None else self.cayley_columns()
        if cols:
            return self._inv[a]
        return self._register(self._inv_key(self._key_of[a]))

    def cayley_columns(self) -> list[list[int]]:
        """``cols[b][a] == a*b``; empty for lazy groups and past CAYLEY_MAX_ORDER.

        One column per generator by key multiplication, the rest by BFS over
        the Cayley graph: col(y*g)[x] = col(g)[col(y)[x]], built in place.
        """
        if self._cols is not None:
            return self._cols
        n = self.order
        if not self.materialized or n > CAYLEY_MAX_ORDER:
            self._cols = ()
            return self._cols
        key_of, id_of, mul = self._key_of, self._id_of, self._mul_key
        gen_cols = {
            g: [id_of[mul(k, key_of[g])] for k in key_of] for g in self.generators
        }
        cols: list = [None] * n
        cols[0] = list(range(n))
        queue = [0]
        for y in queue:
            col_y = cols[y]
            for col_g in gen_cols.values():
                z = col_g[y]
                if cols[z] is None:
                    cols[z] = gen_cols.get(z) or [col_g[x] for x in col_y]
                    queue.append(z)
        if len(queue) != n:
            raise ValueError(f"{self.label}: the generators do not generate")
        self._inv = [col.index(0) for col in cols]
        self._cols = cols
        return cols

    def power(self, a: int, n: int) -> int:
        if n < 0:
            return self.power(self.inverse(a), -n)
        result = 0
        base = a
        while n:
            if n & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            n >>= 1
        return result

    def conjugate(self, g: int, x: int) -> int:
        """x g x^-1."""
        return self.multiply(self.multiply(x, g), self.inverse(x))

    def element_order(self, a: int) -> int:
        n = 1
        x = a
        while x != 0:
            x = self.multiply(x, a)
            n += 1
        return n

    def elements(self) -> range:
        if not self.materialized:
            raise GroupTooLargeError(
                f"{self.label}: order {self.order} exceeds the enumeration "
                f"ceiling {MAX_ENUMERATED_ORDER}; work inside closures of "
                f"small generating sets instead"
            )
        return range(self.order)

    @property
    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            gens = self.generators
            self._is_abelian = all(
                self.multiply(a, b) == self.multiply(b, a)
                for i, a in enumerate(gens)
                for b in gens[i + 1 :]
            )
        return self._is_abelian

    def name(self, a: int) -> str:
        return self._key_name(self._key_of[a])

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order}, backing={self.backing})"


def _bfs_order(identity_key, gen_keys, mul_key, order_hint: int) -> list:
    """Canonical element order: BFS levels, each level sorted by key."""
    seen = {identity_key}
    ordering = [identity_key]
    frontier = [identity_key]
    while frontier:
        new = set()
        for x in frontier:
            for g in gen_keys:
                y = mul_key(x, g)
                if y not in seen:
                    new.add(y)
        frontier = sorted(new)
        seen.update(frontier)
        ordering.extend(frontier)
        if len(ordering) > order_hint:
            raise ValueError(
                f"closure exceeded the declared order {order_hint}"
            )
    return ordering


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member ids inside a parent group."""

    parent: FiniteGroup
    members: tuple[int, ...]
    generators: tuple[int, ...]
    _member_set: frozenset[int] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_member_set", frozenset(self.members))

    @property
    def order(self) -> int:
        return len(self.members)

    def contains(self, a: int) -> bool:
        return a in self._member_set

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Materialize as a standalone group.

        Returns (group, to_parent) where to_parent[i] is the parent id of the
        element with id i in the new group.  Ids follow the canonical BFS
        order from the subgroup generators, keyed by parent id.
        """
        parent = self.parent
        grp = FiniteGroup(
            backing="table",
            order=self.order,
            identity_key=0,
            generator_keys=list(self.generators),
            mul_key=parent.multiply,
            inv_key=parent.inverse,
            key_name=parent.name,
            label=f"subgroup({self.order}) of {parent.label}",
        )
        to_parent = tuple(grp.key_of(i) for i in range(grp.order))
        return grp, to_parent


def full_subgroup(G: FiniteGroup) -> Subgroup:
    members = tuple(G.elements())
    return Subgroup(G, members, tuple(G.generators))


def _as_subgroup(H) -> Subgroup:
    return H if isinstance(H, Subgroup) else full_subgroup(H)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing gens, with sorted member ids."""
    gens = list(gens)
    for g in gens:
        if g < 0 or (G.materialized and g >= G.order):
            raise ValueError(f"element id {g} out of range for {G.label}")
    members = {0}
    frontier = [0]
    gen_ids = [g for g in gens if g != 0]
    while frontier:
        new = []
        for x in frontier:
            for g in gen_ids:
                y = G.multiply(x, g)
                if y not in members:
                    members.add(y)
                    new.append(y)
        frontier = new
        if len(members) > MAX_ENUMERATED_ORDER:
            raise GroupTooLargeError(
                f"closure in {G.label} exceeded {MAX_ENUMERATED_ORDER} elements"
            )
    return Subgroup(G, tuple(sorted(members)), tuple(gens))


def commutator(G: FiniteGroup, g: int, h: int) -> int:
    """[g, h] = g h g^-1 h^-1."""
    return G.multiply(G.multiply(g, h), G.multiply(G.inverse(g), G.inverse(h)))


def _commutator_subgroup_of(K: Subgroup, H: Subgroup) -> Subgroup:
    """[K, H] as a subgroup of the common parent.

    Uses the literal all-pairs commutator closure when small enough, and the
    normal closure of generator commutators otherwise.
    """
    G = K.parent
    if len(K.members) * len(H.members) <= _BRUTE_COMMUTATOR_PAIRS:
        comms = {commutator(G, a, b) for a in K.members for b in H.members}
        return closure(G, sorted(comms))
    seeds = sorted(
        {commutator(G, a, b) for a in K.generators for b in H.generators}
    )
    return _normal_closure(G, seeds, H.generators)


def _normal_closure(G: FiniteGroup, seeds: Sequence[int], conj_gens: Sequence[int]) -> Subgroup:
    sub = closure(G, seeds)
    while True:
        extra = set()
        for m in sub.members:
            for g in conj_gens:
                c = G.conjugate(m, g)
                if not sub.contains(c):
                    extra.add(c)
        if not extra:
            return sub
        sub = closure(G, sorted(set(sub.generators) | extra))


def derived_subgroup(H) -> Subgroup:
    """Commutator subgroup [H, H], computed once per whole group."""
    if isinstance(H, Subgroup):
        return _commutator_subgroup_of(H, H)
    if H._derived is None:
        H._derived = derived_subgroup(full_subgroup(H))
    return H._derived


def centralizer(G: FiniteGroup, g: int) -> frozenset[int]:
    """Member ids of C_G(g), identity included, computed once per element."""
    got = G._centralizers.get(g)
    if got is None:
        mul = G.multiply
        got = G._centralizers[g] = frozenset(
            h for h in G.elements() if mul(g, h) == mul(h, g)
        )
    return got


def center(H) -> Subgroup:
    """Elements of H commuting with every member (gens suffice as witnesses)."""
    sub = _as_subgroup(H)
    G = sub.parent
    gens = sub.generators if sub.generators else sub.members
    central = tuple(
        a
        for a in sub.members
        if all(G.multiply(a, b) == G.multiply(b, a) for b in gens)
    )
    return Subgroup(G, central, tuple(a for a in central if a != 0) or ())


def lower_central_series(H) -> list[Subgroup]:
    """Descending central series of H until stabilization (inclusive)."""
    sub = _as_subgroup(H)
    series = [sub]
    while True:
        nxt = _commutator_subgroup_of(series[-1], sub)
        if nxt.members == series[-1].members:
            break
        series.append(nxt)
        if len(nxt.members) == 1:
            break
    return series


def nilpotency_class(H) -> Optional[int]:
    """Least c with the (c+1)-st term trivial; None when not nilpotent."""
    series = lower_central_series(H)
    if series[-1].order != 1:
        return None
    return len(series) - 1


def pair_nilpotency_class(G: FiniteGroup, g: int, h: int) -> Optional[int]:
    """nilpotency_class(<g, h>), cached on the unordered pair."""
    key = (g, h) if g <= h else (h, g)
    cached = G._pair_class_cache.get(key)
    if cached is None and key not in G._pair_class_cache:
        cached = nilpotency_class(closure(G, [g, h]))
        G._pair_class_cache[key] = cached
    return G._pair_class_cache[key]


def pair_generates_class_below(G: FiniteGroup, g: int, h: int, q: int) -> bool:
    """Whether <g, h> has nilpotency class < q (the relation gate)."""
    if q == 2:
        return G.multiply(g, h) == G.multiply(h, g)
    c = pair_nilpotency_class(G, g, h)
    return c is not None and c < q


def conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Partition of element ids into conjugacy classes, ordered by minimum."""
    n = len(G.elements())
    seen = [False] * n
    out = []
    for a in range(n):
        if seen[a]:
            continue
        orbit = {G.conjugate(a, x) for x in range(n)}
        for b in orbit:
            seen[b] = True
        out.append(tuple(sorted(orbit)))
    return out


# ---------------------------------------------------------------------------
# maps between groups
# ---------------------------------------------------------------------------

@dataclass
class MapTable:
    """A set map between groups, stored by images on element ids.

    ``images`` is either a dense list (materialized sources) or a callable.
    """

    source: FiniteGroup
    target: FiniteGroup
    images: object

    def image_of(self, a: int) -> int:
        if callable(self.images):
            return self.images(a)
        return self.images[a]


def identity_map(G: FiniteGroup) -> MapTable:
    return MapTable(G, G, list(G.elements()))


def inversion_map(G: FiniteGroup) -> MapTable:
    return MapTable(G, G, [G.inverse(a) for a in G.elements()])


def is_nilq_map(phi: MapTable, q: int):
    """Check multiplicativity on every pair generating a class-<q subgroup.

    Returns (True, None) or (False, (g, h)) with the first violating pair in
    id order.  Pairs range over the full source, identity included.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    G, H = phi.source, phi.target
    n = len(G.elements())
    img = [phi.image_of(a) for a in range(n)]
    for g in range(n):
        for h in range(n):
            if not pair_generates_class_below(G, g, h, q):
                continue
            if H.multiply(img[g], img[h]) != img[G.multiply(g, h)]:
                return False, (g, h)
    return True, None


def abelianization(G: FiniteGroup) -> tuple[FiniteGroup, MapTable]:
    """The quotient G/[G, G] as a table-backed group plus the quotient map."""
    n = len(G.elements())
    derived = derived_subgroup(G)
    rep_of = [-1] * n
    for g in range(n):
        if rep_of[g] >= 0:
            continue
        coset = sorted(G.multiply(g, d) for d in derived.members)
        lead = coset[0]
        for x in coset:
            rep_of[x] = lead
    def mul_rep(a, b):
        return rep_of[G.multiply(a, b)]

    def inv_rep(a):
        return rep_of[G.inverse(a)]

    gen_reps = []
    for g in G.generators:
        r = rep_of[g]
        if r != 0 and r not in gen_reps:
            gen_reps.append(r)
    order = len(set(rep_of))
    quotient = FiniteGroup(
        backing="table",
        order=order,
        identity_key=0,
        generator_keys=gen_reps,
        mul_key=mul_rep,
        inv_key=inv_rep,
        label=f"{G.label}/derived",
    )
    images = [quotient.id_of_key(rep_of[g]) for g in range(n)]
    return quotient, MapTable(G, quotient, images)


# ---------------------------------------------------------------------------
# multiplication-table file format
#
#   line 1: n (the order)
#   lines 2..n+1: n whitespace-separated 0-based ids; row g, column h holds g*h
#
# Id 0 must be the identity.  Associativity is decided by Light's test,
# (x*g)*y == x*(g*y) for all x, y and each greedy generator g, in
# O(|gens| n^2).  It is exact: such g are closed under products, and the
# greedy closure writes every element as a product of generators.
# ---------------------------------------------------------------------------

def load_multiplication_table(path) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise InvalidTableError(f"{path}: empty table file")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise InvalidTableError(f"{path}: bad order line") from exc
    if n <= 0:
        raise InvalidTableError(f"{path}: order must be positive, got {n}")
    if len(tokens) != 1 + n * n:
        raise InvalidTableError(
            f"{path}: expected {n * n} entries, found {len(tokens) - 1}"
        )
    try:
        flat = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise InvalidTableError(f"{path}: non-integer entry") from exc
    if any(x < 0 or x >= n for x in flat):
        raise InvalidTableError(f"{path}: entry out of range 0..{n - 1}")
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    gens = _validate_table(rows, str(path))
    return group_from_table_rows(rows, gens, label=f"table:{path}")


def _validate_table(rows: list[list[int]], where: str) -> list[int]:
    """Check the group axioms; return the greedy generating set."""
    n = len(rows)
    for g in range(n):
        if rows[0][g] != g or rows[g][0] != g:
            raise InvalidTableError(f"{where}: id 0 is not a two-sided identity")
    for g in range(n):
        if len(set(rows[g])) != n or len({rows[x][g] for x in range(n)}) != n:
            raise InvalidTableError(f"{where}: row or column {g} is not a permutation")
    for g in range(n):
        if 0 not in rows[g]:
            raise InvalidTableError(f"{where}: element {g} has no inverse")
    import numpy as np

    t = np.array(rows, dtype=np.int64)
    gens = _greedy_generators(rows)
    for g in gens:
        if not np.array_equal(t[t[:, g]], t[:, t[g]]):
            raise InvalidTableError(f"{where}: associativity fails at generator {g}")
    return gens


def _greedy_generators(rows: list[list[int]]) -> list[int]:
    """Repeatedly adjoin the least element outside the closure so far."""
    n = len(rows)
    generators: list[int] = []
    have = {0}
    while len(have) < n:
        generators.append(min(set(range(n)) - have))
        frontier = [0]
        have = {0}
        while frontier:
            new = []
            for x in frontier:
                for g in generators:
                    y = rows[x][g]
                    if y not in have:
                        have.add(y)
                        new.append(y)
            frontier = new
    return generators


def group_from_table_rows(
    rows: list[list[int]], generators: Sequence[int], label: str = "table"
) -> FiniteGroup:
    """Group over explicit table rows; ids are the given table indices."""
    n = len(rows)
    inv = [rows[g].index(0) for g in range(n)]
    return FiniteGroup(
        backing="table",
        order=n,
        identity_key=0,
        generator_keys=list(generators),
        mul_key=lambda a, b: rows[a][b],
        inv_key=lambda a: inv[a],
        label=label,
        element_keys=list(range(n)),
    )
