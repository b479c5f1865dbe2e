"""Concrete finite groups and the elementary computations everything else uses.

Elements are addressed by stable integer ids; id 0 is always the identity.
Groups of order <= MAX_ENUMERATED_ORDER are materialized up front in a
canonical order: breadth-first from the identity over the generator list,
with each BFS level sorted by a backing-specific key (permutations: image
tuple; matrices and structured carriers: entry tuple; tables: given index).
Larger groups (ambient symmetric groups, big matrix groups) keep a lazy
registry: elements get ids in discovery order and operations that would need
the full carrier raise GroupTooLargeError instead.

Materialized groups of order <= TABLE_MAX_ORDER multiply and invert by
lookup in one Cayley table, built on the first ``multiply`` or ``inverse``
(never at construction) and kept for the group's lifetime: n^2 tuple cells of
8 bytes, 134 MB at the cap.  These are exactly the groups that get a colimit
presentation and conjugacy classes, which read only the table.  Centralizers
are read off it by column gathers; they and the pair gate ``partners`` are
cached per group as ``array('i')`` rows, computed for the least member of
each conjugacy class and conjugated onto the rest.  ``class_below`` decides
whether a set spans a subgroup of class < q from the set's commutators alone,
with no closure and no cache.  Lazy groups and materialized groups past the
cap multiply keys.
A subgroup that is the whole parent materializes as the parent itself, so
its Cayley table and derived subgroup are built once.  Commutator subgroups
[K, H] come from one algorithm: the normal closure of generator commutators.

Groups and subgroups are immutable once materialized; lazy registries only
grow.  All caches are ordinary dicts and arrays guarded by the GIL; everything
here is safe to share across threads as long as ids are treated as opaque.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import eq, getitem, itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

MAX_ENUMERATED_ORDER = 1 << 20
# Materialized groups up to this order are tabulated and presented: a table
# holds n^2 cells of 8 bytes, 134 MB at the cap, and a presentation one coset
# table column per element.
TABLE_MAX_ORDER = 1 << 12


class GroupTooLargeError(RuntimeError):
    """An operation needed the full carrier of a group past the ceiling."""


class InvalidTableError(ValueError):
    """A multiplication-table file failed validation."""


class FiniteGroup:
    """A finite group with integer element ids and a keyed backing.

    ``mul_key``/``inv_key`` operate on backing keys (permutation tuples,
    matrix tuples, structured tuples, or raw table indices); the id layer is
    built on top of them.  Up to TABLE_MAX_ORDER, a materialized group
    answers ``multiply``/``inverse`` from a Cayley table built on the first
    such call (8 bytes per cell); an id >= order raises IndexError.  Lazy
    groups and materialized groups past the cap multiply keys.
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
        self._partners: dict[int, dict[int, array]] = {}  # q -> a -> partners
        self._derived: Optional[Subgroup] = None
        self._is_abelian: Optional[bool] = None
        self._cols: Optional[list[tuple[int, ...]]] = None  # () when keyed
        self._inv: list[int] = []
        self._classes: Optional[tuple[array, array]] = None  # see _class_of
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

    def cayley_columns(self) -> list[tuple[int, ...]]:
        """``cols[b][a] == a*b``; empty for lazy groups and past TABLE_MAX_ORDER,
        so a non-empty result is the test for "G can be presented".

        One column per generator by key multiplication, the rest by BFS over
        the Cayley graph: col(y*g) is col(g) gathered at col(y), into a tuple.
        Inverses follow the same steps: inv(y*g) = inv(g)*inv(y).
        """
        if self._cols is not None:
            return self._cols
        n = self.order
        if not self.materialized or n > TABLE_MAX_ORDER:
            self._cols = ()
            return self._cols
        key_of, id_of, mul = self._key_of, self._id_of, self._mul_key
        gen_cols = {
            g: tuple([id_of[mul(k, key_of[g])] for k in key_of]) for g in self.generators
        }
        cols: list = [None] * n
        cols[0] = tuple(range(n))
        queue = [0]
        gen_inv = [(col_g, col_g.index(0)) for col_g in gen_cols.values()]
        inv = [0] * n  # during the fill: inv(g) for the g that first reached z
        for y in queue:
            col_y = cols[y]
            for col_g, inv_g in gen_inv:
                z = col_g[y]
                if cols[z] is None:
                    cols[z] = gen_cols.get(z) or itemgetter(*col_y)(col_g)
                    queue.append(z)
                    inv[z] = inv_g
        if len(queue) != n:
            raise ValueError(f"{self.label}: the generators do not generate")
        for z in queue[1:]:  # z = y*g with y = z*inv(g) earlier in the queue
            inv_g = inv[z]
            inv[z] = cols[inv[cols[inv_g][z]]][inv_g]
        self._inv = inv
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
            # by generator keys, so no Cayley table is built; registering
            # both products keeps a lazy group's ids as ``multiply`` would
            keys = [self._key_of[g] for g in self.generators]
            mul, reg = self._mul_key, self._register
            self._is_abelian = all(
                reg(mul(a, b)) == reg(mul(b, a))
                for i, a in enumerate(keys)
                for b in keys[i + 1 :]
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

class Subgroup:
    """A subgroup given by its sorted member ids inside a parent group."""

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...], generators: tuple[int, ...]):
        self.parent = parent
        self.members = members
        self.generators = generators
        self._member_set = frozenset(members)

    @property
    def order(self) -> int:
        return len(self.members)

    def contains(self, a: int) -> bool:
        return a in self._member_set

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Materialize as a standalone group.

        Returns (group, to_parent) where to_parent[i] is the parent id of the
        element with id i in the new group.  The whole of a materialized
        parent is the parent itself, with the identity map, so its Cayley
        table and derived subgroup are shared.  Otherwise ids follow the
        canonical BFS order from the subgroup generators, keyed by parent id.
        """
        parent = self.parent
        if parent.materialized and self.order == parent.order:
            return parent, tuple(range(parent.order))
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
    """[K, H] as a subgroup of the common parent, for K <= H.

    It is the normal closure in <K, H> of the commutators [x, y] of the
    generators x of K and y of H (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*).  Every caller has K <= H, so
    <K, H> = H and closing under conjugation by H's generators is exact.
    """
    G = K.parent
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


def centralizer(G: FiniteGroup, g: int) -> array:
    """Member ids of C_G(g), ascending and identity included."""
    return partners(G, g, 2)


def partners(G: FiniteGroup, a: int, q: int) -> array:
    """Ascending ids b, identity included, for which <a, b> has class < q: the
    pairs that get a relator in N_q(G).  Kept per (a, q) as an ``array('i')``.
    On a tabulated group, a = x r x^-1 with r the least of its class gets
    x partners(r) x^-1, read off the columns ``cols[b][x]`` and ``cols[inv[x]]``.
    At q = 2, partners(r) is C(r): r*b over all b is the gather ``cols[b][r]``
    and b*r the column ``cols[r]``.  Above it, each b is tested by
    ``class_below(G, (r, b), q)``, as for every a of a keyed group."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    cache = G._partners.setdefault(q, {})
    got = cache.get(a)
    if got is None:
        ids, cols = G.elements(), G.cayley_columns()
        r, x = _class_of(G, a) if cols else (a, 0)
        if r != a:
            xb = map(itemgetter(x), map(cols.__getitem__, partners(G, r, q)))
            got = array("i", sorted(map(cols[G._inv[x]].__getitem__, xb)))
        elif q > 2:
            got = array("i", [b for b in ids if class_below(G, (a, b), q)])
        elif cols:
            got = array("i", compress(ids, map(eq, map(itemgetter(a), cols), cols[a])))
        else:
            got = array("i", [b for b in ids if G.multiply(a, b) == G.multiply(b, a)])
        cache[a] = got
    return got


def _class_of(G: FiniteGroup, a: int) -> tuple[int, int]:
    """(r, x) from the class record of a tabulated G: r is the least member of
    a's conjugacy class and a == x r x^-1.  A class not yet recorded is
    gathered whole, y a y^-1 over all y in one pass (y a is ``cols[a][y]`` and
    (y a) y^-1 is ``cols[inv[y]][y a]``).  Every filler writes the same
    values, x before r, so the record is as safe to share as the dicts."""
    if G._classes is None:
        G._classes = (array("i", [-1]) * G.order, array("i", [0]) * G.order)
    rep, conj = G._classes
    if rep[a] < 0:
        cols, inv = G._cols, G._inv
        orbit = dict(zip(map(getitem, map(cols.__getitem__, inv), cols[a]), range(G.order)))
        r = min(orbit)
        to_r = cols[inv[orbit[r]]]  # y a y^-1 == (y y_r^-1) r (y y_r^-1)^-1
        for c, y in orbit.items():
            conj[c] = to_r[y]
            rep[c] = r
    return rep[a], conj[a]


def class_below(G: FiniteGroup, elements: Iterable[int], q: int) -> bool:
    """Whether H = <elements> has nilpotency class < q, for q >= 2, from
    commutators of the elements alone: H is never enumerated and nothing is
    cached.

    For H = <X>, gamma_q(H) is the normal closure of the left-normed
    commutators [x_1, ..., x_q] with every x_i in X.  They lie in gamma_q(H),
    so they are trivial when the class is < q.  Conversely, by induction on q
    (at q = 1 the words are X itself): if every such word of weight q is
    trivial, each word w of weight q - 1 commutes with X, so w is central in
    H.  In H/Z(H), generated by the image of X, every word of weight q - 1 is
    then trivial, so gamma_{q-1}(H) <= Z(H) and gamma_q(H) = 1.

    A word's value fixes the values of its extensions, so it is enough to
    follow the value sets W_1 = X and W_{k+1} = {[c, x] != 1 : c in W_k,
    x in X}.  As [c, x] = cx (xc)^-1 is 1 exactly when cx = xc, the class is
    < q exactly when every value in W_{q-1} commutes with X.
    """
    mul, inv = G.multiply, G.inverse
    xs = set(elements)
    xs.discard(0)
    values = xs
    for _ in range(q - 2):
        nxt = set()
        for c in values:
            for x in xs:
                cx, xc = mul(c, x), mul(x, c)
                if cx != xc:
                    nxt.add(mul(cx, inv(xc)))
        values = nxt
    return all(mul(c, x) == mul(x, c) for c in values for x in xs)


def center(H) -> Subgroup:
    """Elements of H commuting with its generators, read off the centralizers
    of H materialized as a group.  No command runs it; the tests do."""
    sub = _as_subgroup(H)
    S, to_parent = sub.as_group()
    common = frozenset(S.elements()).intersection(*(centralizer(S, b) for b in S.generators))
    central = tuple(sorted(map(to_parent.__getitem__, common)))
    return Subgroup(sub.parent, central, tuple(a for a in central if a != 0) or ())


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


def conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Partition of element ids into conjugacy classes, ordered by minimum,
    read off the class record that ``partners`` shares (one Cayley-table
    gather per class not yet recorded)."""
    if not G.cayley_columns():
        raise GroupTooLargeError(
            f"{G.label}: conjugacy classes are read off the Cayley table, built "
            f"for groups of order <= {TABLE_MAX_ORDER}, got {G.order}"
        )
    classes: dict[int, list[int]] = {}
    for c in G.elements():
        classes.setdefault(_class_of(G, c)[0], []).append(c)
    return list(map(tuple, classes.values()))


# ---------------------------------------------------------------------------
# maps between groups
# ---------------------------------------------------------------------------

class MapTable(NamedTuple):
    """A set map between groups, stored by images on element ids.

    ``images`` is either a dense list (materialized sources) or a callable.
    No command builds one; abelianization, the embeddings and the tests do.
    """

    source: FiniteGroup
    target: FiniteGroup
    images: object

    def image_of(self, a: int) -> int:
        if callable(self.images):
            return self.images(a)
        return self.images[a]


def is_nilq_map(phi: MapTable, q: int):
    """Check multiplicativity on every pair generating a class-<q subgroup.

    Returns (True, None) or (False, (g, h)) with the first violating pair in
    id order.  Pairs range over the full source, identity included.
    No command runs it; tests/test_groups.py does.
    """
    G, H = phi.source, phi.target
    n = len(G.elements())
    img = [phi.image_of(a) for a in range(n)]
    for g in range(n):
        for h in partners(G, g, q):
            if H.multiply(img[g], img[h]) != img[G.multiply(g, h)]:
                return False, (g, h)
    return True, None


def abelianization(G: FiniteGroup) -> tuple[FiniteGroup, MapTable]:
    """The quotient G/[G, G] as a table-backed group plus the quotient map.
    No command runs it; tests/test_groups.py does."""
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
    gens = _greedy_generators(rows)
    for g in gens:  # (x g) y == x (g y): row x g against row x read at g y
        left_by_g = itemgetter(*rows[g])
        if any(rows[row[g]] != list(left_by_g(row)) for row in rows):
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
