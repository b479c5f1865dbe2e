"""Independent brute-force oracles used to freeze expected test values.

Everything in this file is deliberately naive and self-contained: no imports
from the package under test.  Oracles favour the most literal reading of each
definition (fixed-point closures, full pair/triple scans, textbook row
reduction) over anything shared with the production code paths they check.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import permutations, product
from typing import NamedTuple


# ---------------------------------------------------------------------------
# generic group oracles, phrased over an arbitrary `mult(a, b)` callable
# ---------------------------------------------------------------------------

def fixpoint_closure(mult, identity, gens):
    """Subgroup closure by repeated full pairwise products (not BFS)."""
    members = {identity}
    members.update(gens)
    while True:
        new = set()
        for a in members:
            for b in members:
                c = mult(a, b)
                if c not in members:
                    new.add(c)
        if not new:
            return members
        members |= new


def element_inverse(mult, identity, a):
    """Inverse by powering until the identity reappears."""
    x = a
    prev = identity
    while x != identity:
        prev = x
        x = mult(x, a)
    return prev


def commuting_pair_count(mult, elements):
    return sum(1 for a in elements for b in elements if mult(a, b) == mult(b, a))


def commuting_tuple_count(mult, elements, k):
    """|Hom(Z^k, G)| by scanning all |G|^k tuples.  Small groups only."""
    if k == 0:
        return 1
    tuples = [(e,) for e in elements]
    for _ in range(k - 1):
        grown = []
        for t in tuples:
            for e in elements:
                if all(mult(e, x) == mult(x, e) for x in t):
                    grown.append(t + (e,))
        tuples = grown
    return len(tuples)


def conjugacy_class_count(mult, identity, elements):
    inv = {a: element_inverse(mult, identity, a) for a in elements}
    seen = set()
    count = 0
    for a in elements:
        if a in seen:
            continue
        count += 1
        for x in elements:
            seen.add(mult(mult(x, a), inv[x]))
    return count


def derived_members(mult, identity, elements):
    """Closure of the full set of commutators [a, b]."""
    inv = {a: element_inverse(mult, identity, a) for a in elements}
    comms = {mult(mult(a, b), mult(inv[a], inv[b])) for a in elements for b in elements}
    return fixpoint_closure(mult, identity, comms)


def center_members(mult, elements):
    return {a for a in elements if all(mult(a, b) == mult(b, a) for b in elements)}


def lower_central_series_members(mult, identity, elements):
    """Full descending central series by literal commutator closures."""
    inv = {a: element_inverse(mult, identity, a) for a in elements}
    series = [set(elements)]
    while True:
        cur = series[-1]
        comms = {
            mult(mult(a, b), mult(inv[a], inv[b])) for a in cur for b in elements
        }
        nxt = fixpoint_closure(mult, identity, comms)
        if nxt == cur:
            break
        series.append(nxt)
    return series


def nilpotency_class_of(mult, identity, elements):
    """Least c with the (c+1)-st series term trivial, or None."""
    series = lower_central_series_members(mult, identity, elements)
    if series[-1] != {identity}:
        return None
    return len(series) - 1


def d2_pair_set(mult, identity, elements):
    """{(x, y) : xy in derived subgroup} by scanning all |G|^2 pairs."""
    derived = derived_members(mult, identity, elements)
    return {(x, y) for x in elements for y in elements if mult(x, y) in derived}


def antidiagonal_pair_set(mult, identity, elements):
    """<(g, g^-1) : g in G> inside G x G by BFS over keyed pair products."""
    gens = [(g, element_inverse(mult, identity, g)) for g in elements]
    seen = {(identity, identity)}
    frontier = [(identity, identity)]
    while frontier:
        new = []
        for x, y in frontier:
            for a, b in gens:
                pair = (mult(x, a), mult(y, b))
                if pair not in seen:
                    seen.add(pair)
                    new.append(pair)
        frontier = new
    return seen


# ---------------------------------------------------------------------------
# colimit relators: the full pair scan and its rotation-and-inversion classes,
# over ids 0..n-1 with 0 the identity
# ---------------------------------------------------------------------------

def colimit_pair_relators(mult, n, q):
    """One relator per ordered pair (g, h) of non-identity ids whose span has
    nilpotency class below q, in row-major order (g outer): (g, h) when
    gh = 0, else (-gh, g, h).  At q = 2 the span is abelian iff g, h commute;
    above it the class is read off the literal closure of {g, h}."""
    spans = {}

    def gate(g, h):
        if q == 2:
            return mult(g, h) == mult(h, g)
        key = frozenset((g, h))
        if key not in spans:
            c = nilpotency_class_of(mult, 0, fixpoint_closure(mult, 0, key))
            spans[key] = c is not None and c < q
        return spans[key]

    rels = []
    for g in range(1, n):
        for h in range(1, n):
            if gate(g, h):
                gh = mult(g, h)
                rels.append((g, h) if gh == 0 else (-gh, g, h))
    return rels


def relator_class_key(word, inv):
    """The relator as a cyclic word of elements (letter +j is element j, -j
    is inv[j]), up to rotation and inversion: its least rotation."""
    elems = tuple(j if j > 0 else inv[-j] for j in word)
    back = tuple(inv[e] for e in reversed(elems))
    return min(w[i:] + w[:i] for w in (elems, back) for i in range(len(w)))


def first_of_each_class(relators, inv):
    """Every length-2 relator, and the first of each class among the rest."""
    seen, out = set(), []
    for w in relators:
        key = relator_class_key(w, inv)
        if len(w) == 2 or key not in seen:
            seen.add(key)
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# reference coset enumeration, relator by relator (Holt, Eick & O'Brien,
# Handbook of Computational Group Theory, section 5.2), of any presentation
# <x_1..x_k | relators> over the trivial subgroup
# ---------------------------------------------------------------------------

CLOSED = "closed"
LIMIT_EXCEEDED = "limit-exceeded"


class RelatorTable(NamedTuple):
    """A reference enumeration: live cosets renumbered 0..coset_count-1, and
    ``cells[x * width + c]`` the target of coset x along column c (or -1).
    Column j-1 carries x_j; ``inverse_column[c]`` undoes column c, and
    ``letters`` maps each signed generator to its column."""

    state: str
    coset_count: int
    high_water: int
    cells: array
    width: int
    inverse_column: list
    letters: dict

    @property
    def closed(self):
        return self.state == CLOSED

    def trace(self, word, start=0):
        x = start
        for signed in word:
            x = self.cells[x * self.width + self.letters[signed]]
        return x


def relator_forms(k, relators):
    """``(IC, forms)``: the inverse-column map and, per first column s, the
    sorted forms (rotations of each relator and of its inverse, as column
    words).  Generators a, b > 0 that are each other's only partner in a
    relator (a)(b) or (b)(a) share a column pair, as ACE pairs involutions,
    and those relators are dropped; any other generator keeps a formal
    inverse column at index >= k."""
    letters = set(range(-k, k + 1)) - {0}
    partners = [set() for _ in range(k + 1)]
    for w in relators:
        if not letters.issuperset(w):
            raise ValueError(f"relator {w} has a letter outside +-1..{k}")
        if len(w) == 2 and w[0] > 0 and w[1] > 0:
            partners[w[0]].add(w[1])
            partners[w[1]].add(w[0])
    IC = [-1] * k
    for j in range(1, k + 1):
        (p,) = partners[j] if len(partners[j]) == 1 else (0,)
        if p and partners[p] == {j}:
            IC[j - 1] = p - 1
        else:
            IC[j - 1] = len(IC)
            IC.append(j - 1)
    col_of = [0, *range(k), *IC[k - 1 :: -1]]  # letter +-j at index +-j
    forms = set()
    for w in relators:
        cols = tuple(col_of[x] for x in w)
        if len(w) == 2 and w[0] > 0 and IC[w[0] - 1] == w[1] - 1:
            continue
        inv = tuple(IC[c] for c in reversed(cols))
        for word in (cols, inv):
            for shift in range(len(word)):
                forms.add(word[shift:] + word[:shift])
    by_column = [[] for _ in IC]
    for f in sorted(forms):
        by_column[f[0]].append(f)
    return IC, by_column


def relator_todd_coxeter(k, relators, limit=10 ** 6):
    """Felsch enumeration of <x_1..x_k | relators>, at most ``limit`` cosets
    defined.  Each deduction alpha.s = beta is scanned once, from alpha,
    against every form that starts with column s, by the two-ended scan;
    coincidences forward merged cosets through a dict.  Definitions fill the
    first empty cell of a coset in the column order of +1, -1, +2, -2, ..."""
    IC, forms = relator_forms(k, [tuple(w) for w in relators])
    W = len(IC)
    order = list(dict.fromkeys(c for j in range(k) for c in (j, IC[j])))
    blank = array("i", [-1]) * W
    cells = blank[:]
    dead = bytearray(1)  # dead[x]: x was merged into a smaller coset
    fwd = {}  # dead coset -> a coset it was merged into
    ded = []  # deduction stack of cell indices alpha * W + s

    def rep(x):
        while dead[x]:  # with path halving
            y = fwd[x]
            fwd[x] = x = fwd.get(y, y)
        return x

    def coincidence(a, b):
        queue = []

        def merge(x, y):
            x, y = rep(x), rep(y)
            if x == y:
                return
            if x > y:
                x, y = y, x
            dead[y], fwd[y] = 1, x
            queue.append(y)

        merge(a, b)
        for g in queue:  # the list grows while it is read
            for x in range(W):
                d = cells[g * W + x]
                if d == -1:
                    continue
                cells[g * W + x] = -1
                cells[d * W + IC[x]] = -1
                mu, nu = rep(g), rep(d)
                xi = cells[mu * W + x]
                if xi != -1:
                    merge(nu, xi)
                elif (ze := cells[nu * W + IC[x]]) != -1:
                    merge(mu, ze)
                else:
                    cells[mu * W + x] = nu
                    cells[nu * W + IC[x]] = mu
                    ded.append(mu * W + x)

    def scan(start, w):
        f, i, L = start, 0, len(w)
        while i < L and (nxt := cells[f * W + w[i]]) != -1:
            f, i = nxt, i + 1
        if i == L:
            if f != start:
                coincidence(f, start)
            return
        b, j = start, L - 1
        while j >= i and (prv := cells[b * W + IC[w[j]]]) != -1:
            b, j = prv, j - 1
        if j < i:
            coincidence(f, b)
        elif j == i:
            mate = cells[b * W + IC[w[i]]]
            if mate == -1:
                cells[f * W + w[i]] = b
                cells[b * W + IC[w[i]]] = f
                ded.append(f * W + w[i])
            elif mate != f:
                coincidence(f, mate)

    def scan_edge(alpha, s, beta):
        # a coincidence can kill alpha or move the edge: the merge queue
        # re-pushes re-homed edges
        for w in forms[s]:
            scan(alpha, w)
            if dead[alpha] or cells[alpha * W + s] != beta:
                return

    exceeded = False
    alpha = 0
    while not exceeded:
        while alpha < len(dead) and not exceeded:
            i, aW = 0, alpha * W
            while i < W and not dead[alpha]:
                s = order[i]
                if cells[aW + s] != -1:
                    i += 1
                    continue
                beta = len(dead)
                if beta >= limit:
                    exceeded = True
                    break
                dead.append(0)
                cells.extend(blank)
                cells[aW + s] = beta
                cells[beta * W + IC[s]] = alpha
                scan_edge(alpha, s, beta)
                while ded:
                    a, c = divmod(e := ded.pop(), W)
                    if (b := cells[e]) != -1 and not dead[a]:
                        scan_edge(a, c, b)
            alpha += 1
        if exceeded:
            break
        # coincidences can erase cells of cosets already passed: rescan
        # until a full pass finds every live coset complete
        alpha = next((x for x in range(len(dead)) if not dead[x]
                      and -1 in cells[x * W : x * W + W]), None)
        if alpha is None:
            break

    high_water = len(dead)
    live = [x for x in range(high_water) if not dead[x]]
    renum = {-1: -1, **{old: new for new, old in enumerate(live)}}
    cells = array("i", (renum[y] for x in live for y in cells[x * W : x * W + W]))
    letters = {s: c for j in range(k) for s, c in ((j + 1, j), (-j - 1, IC[j]))}
    return RelatorTable(LIMIT_EXCEEDED if exceeded else CLOSED, len(live), high_water,
                        cells, W, IC, letters)


# ---------------------------------------------------------------------------
# colimit tables in epsilon-coordinates, over ids 0..n-1 with 0 the identity
# and generator j the element j
# ---------------------------------------------------------------------------

def generator_columns(cells, eps, cols):
    """A colimit table in epsilon-coordinates, read as generator columns.

    ``cells[x * n + h]`` (n = len(cols)) is the neighbour of coset x whose
    image is h, ``eps[x]`` the image of x, and ``cols[b][a]`` the product ab.
    The neighbour x.(g) has the image eps(x) g, so column g - 1 of row x is
    its slot ``cols[g][eps[x]]``; the slot eps(x), x itself, is left out."""
    n = len(cols)
    return [cells[x * n + cols[g][e]] for x, e in enumerate(eps) for g in range(1, n)]


def counit_images(count, step, mult, inverse, n):
    """The image in G of each of ``count`` cosets, by a breadth-first walk
    from coset 0 (image 0) that multiplies along every edge: ``step(x, s)``
    is the coset x.s for the signed generators s = +-1..+-(n-1), and the
    letter -j stands for the element ``inverse(j)``.  None marks a coset the
    walk does not reach."""
    images = [None] * count
    images[0] = 0
    queue = [0]
    for x in queue:
        for j in range(1, n):
            for s, g in ((j, j), (-j, inverse(j))):
                y = step(x, s)
                if images[y] is None:
                    images[y] = mult(images[x], g)
                    queue.append(y)
    return images


# ---------------------------------------------------------------------------
# symplectic search, one node at a time, over ids 0..n-1 with 0 the identity
# ---------------------------------------------------------------------------

def symplectic_search(mult, n, r, budget):
    """Depth-first search for a nontrivial symplectic sequence of length 2r.

    Slots fill pairwise (1, 1+r), (2, 2+r), ...; each slot tries the unplaced
    ids 1..n-1 in ascending order, and every id tried is one node, whether or
    not it fits.  The search stops at the first node past the budget.
    Returns (status, nodes, sequence) with status "found", "budget-exceeded"
    or "exhausted-none" and sequence None unless found.
    """
    inv = {a: element_inverse(mult, 0, a) for a in range(n)}

    def comm(a, b):
        return mult(mult(a, b), mult(inv[a], inv[b]))

    slots = [p for i in range(r) for p in (i, i + r)]
    seq = {}
    count = {"nodes": 0, "stopped": False}

    def dfs(depth):
        if depth == 2 * r:
            return tuple(seq[p] for p in range(2 * r))
        pos = slots[depth]
        partner = pos - r if pos >= r else pos + r
        for g in range(1, n):
            if g in seq.values():
                continue
            if count["nodes"] >= budget:
                count["stopped"] = True
                return None
            count["nodes"] += 1
            if any(mult(g, h) != mult(h, g) for p, h in seq.items() if p != partner):
                continue
            if partner in seq:
                k = comm(seq[partner], g)
                if k == 0 or (pos > r and k != comm(seq[0], seq[r])):
                    continue
            seq[pos] = g
            got = dfs(depth + 1)
            del seq[pos]
            if got is not None or count["stopped"]:
                return got
        return None

    got = dfs(0)
    if got is not None:
        return "found", count["nodes"], got
    status = "budget-exceeded" if count["stopped"] else "exhausted-none"
    return status, count["nodes"], None


def symplectic_canonical(mult, seq):
    """Least flattening of a symplectic sequence over all orders of its
    partner pairs, the swap of both halves and, when its commutator c has
    c^2 = 1, the swap of any single pair."""
    r = len(seq) // 2
    a, b = seq[0], seq[r]
    c = mult(mult(a, b), mult(element_inverse(mult, 0, a), element_inverse(mult, 0, b)))
    involution = mult(c, c) == 0
    best = None
    for pairs in permutations([(seq[i], seq[i + r]) for i in range(r)]):
        for flips in product((False, True), repeat=r):
            if not involution and len(set(flips)) > 1:
                continue
            cand = [(y, x) if f else (x, y) for (x, y), f in zip(pairs, flips)]
            flat = tuple(x for x, _ in cand) + tuple(y for _, y in cand)
            if best is None or flat < best:
                best = flat
    return best


# ---------------------------------------------------------------------------
# permutation helpers (convention: (s*t)(x) = s(t(x)), right factor first)
# ---------------------------------------------------------------------------

def perm_mult(s, t):
    return tuple(s[t[x]] for x in range(len(s)))


def perm_parity(s):
    seen = [False] * len(s)
    odd = 0
    for i in range(len(s)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = s[j]
            length += 1
        odd ^= (length - 1) & 1
    return odd


# ---------------------------------------------------------------------------
# matrices over a prime field
# ---------------------------------------------------------------------------

def mat_mult(a, b, n, p):
    out = []
    for i in range(n):
        for j in range(n):
            out.append(sum(a[i * n + k] * b[k * n + j] for k in range(n)) % p)
    return tuple(out)


def mat_identity(n):
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def elementary(n, i, j):
    """Identity plus a 1 in (i, j); 1-based indices."""
    m = list(mat_identity(n))
    m[(i - 1) * n + (j - 1)] = 1
    return tuple(m)


# ---------------------------------------------------------------------------
# the quaternion group, hardcoded independently of any construction code
# ---------------------------------------------------------------------------

# elements 0..7 = 1, -1, i, -i, j, -j, k, -k
_Q8_SYMBOLS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def _q8_mult(a, b):
    def unpack(x):
        return x % 2, x // 2  # (sign bit, axis 0..3 for 1,i,j,k)

    sa, ua = unpack(a)
    sb, ub = unpack(b)
    table = {  # axis products for 1,i,j,k: (sign, axis)
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 1): (1, 3),
        (2, 3): (0, 1), (3, 2): (1, 1),
        (3, 1): (0, 2), (1, 3): (1, 2),
    }
    s, u = table[(ua, ub)]
    return ((sa ^ sb ^ s) % 2) + 2 * u


def q8_mult(a, b):
    return _q8_mult(a, b)


Q8_ELEMENTS = list(range(8))
Q8_I, Q8_J, Q8_MINUS_ONE = 2, 4, 1


# ---------------------------------------------------------------------------
# Heisenberg-model extraspecial groups, written directly from the cocycle
# ---------------------------------------------------------------------------

def heisenberg_elements(p, r):
    vecs = [()]
    for _ in range(2 * r + 1):
        vecs = [v + (c,) for v in vecs for c in range(p)]
    return vecs


def heisenberg_mult(p, r):
    def mult(x, y):
        a, b, c = x[:r], x[r:2 * r], x[2 * r]
        a2, b2, c2 = y[:r], y[r:2 * r], y[2 * r]
        dot = sum(u * v for u, v in zip(a, b2)) % p
        return tuple((u + v) % p for u, v in zip(a, a2)) + tuple(
            (u + v) % p for u, v in zip(b, b2)
        ) + ((c + c2 + dot) % p,)

    return mult


# ---------------------------------------------------------------------------
# textbook Smith normal form (no pivot heuristics), exact over Z
# ---------------------------------------------------------------------------

def naive_snf_divisors(rows):
    """Return the full diagonal (including 1s, excluding 0s) of the SNF.

    Textbook recursion: bring the smallest nonzero entry to the corner,
    reduce its row and column, retry while anything stays dirty (the new
    smallest entry is then strictly smaller, so this terminates), enforce
    that the pivot divides the rest, then recurse on the submatrix.
    """
    import math

    m = [list(r) for r in rows]
    divisors = []
    while m and m[0]:
        entries = [
            (abs(m[i][j]), i, j)
            for i in range(len(m))
            for j in range(len(m[0]))
            if m[i][j] != 0
        ]
        if not entries:
            break
        while True:
            _, bi, bj = min(entries)
            m[0], m[bi] = m[bi], m[0]
            for row in m:
                row[0], row[bj] = row[bj], row[0]
            p = m[0][0]
            dirty = False
            for i in range(1, len(m)):
                q = m[i][0] // p
                if q:
                    for j in range(len(m[0])):
                        m[i][j] -= q * m[0][j]
                if m[i][0]:
                    dirty = True
            for j in range(1, len(m[0])):
                q = m[0][j] // p
                if q:
                    for i in range(len(m)):
                        m[i][j] -= q * m[i][0]
                if m[0][j]:
                    dirty = True
            if not dirty:
                p = m[0][0]
                culprit = None
                for i in range(1, len(m)):
                    if any(x % p for x in m[i]):
                        culprit = i
                        break
                if culprit is None:
                    break
                for j in range(len(m[0])):
                    m[0][j] += m[culprit][j]
            entries = [
                (abs(m[i][j]), i, j)
                for i in range(len(m))
                for j in range(len(m[0]))
                if m[i][j] != 0
            ]
        divisors.append(abs(m[0][0]))
        m = [row[1:] for row in m[1:]]
    return divisors


def determinantal_divisors(rows):
    """SNF diagonal via gcds of k x k minors (a genuinely different route).

    D_k = gcd of all k x k minors; the k-th diagonal entry is D_k / D_{k-1}.
    Exponential in the matrix size: keep inputs at 5 x 5 or smaller.
    """
    import math
    from itertools import combinations

    if not rows or not rows[0]:
        return []
    nr, nc = len(rows), len(rows[0])

    def det(ri, ci):
        if len(ri) == 1:
            return rows[ri[0]][ci[0]]
        out = 0
        sign = 1
        for pos, r in enumerate(ri):
            sub = ri[:pos] + ri[pos + 1 :]
            out += sign * rows[r][ci[0]] * det(sub, ci[1:])
            sign = -sign
        return out

    out = []
    d_prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                g = math.gcd(g, det(ri, ci))
        if g == 0:
            break
        out.append(g // d_prev)
        d_prev = g
    return out


def sparse_lines(rows):
    """The dense rows ``rows`` as flat lines ``(j, v, j, v, ...)``: nonzero v, j ascending."""
    return [tuple(x for j, v in enumerate(r) if v for x in (j, v)) for r in rows]


def boundaries_square_to_zero(boundaries):
    """Each product d_n . d_{n+1} of consecutive matrices in ``boundaries`` is zero.

    A matrix is a list of lines ``(i, v, i, v, ...)``, one per column; index t
    in a column of d_{n+1} names column t of d_n.
    """
    for lower, upper in zip(boundaries, boundaries[1:]):
        for line in upper:
            product = {}
            for t, w in zip(line[::2], line[1::2]):
                column = lower[t]
                for i, v in zip(column[::2], column[1::2]):
                    product[i] = product.get(i, 0) + v * w
            if any(product.values()):
                return False
    return True


def naive_rank_over_q(rows):
    """Rank by exact Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    col = 0
    while rank < nr and col < nc:
        piv = next((i for i in range(rank, nr) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(nr):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                for j in range(col, nc):
                    m[i][j] -= f * m[rank][j]
        rank += 1
        col += 1
    return rank


def abelian_invariants(num_gens, relator_vectors):
    """(free rank, torsion divisors > 1) of Z^n modulo the given rows."""
    if num_gens == 0:
        return 0, []
    if not relator_vectors:
        return num_gens, []
    divisors = naive_snf_divisors(relator_vectors)
    nonzero = [d for d in divisors if d != 0]
    return num_gens - len(nonzero), [d for d in nonzero if d > 1]
