"""Naive definitions read straight off the mathematics, for differential tests.

Every oracle works point by point on plain fields (an ``ErrPerm``'s
``domain``/``images``, a ``PartialInj``'s ``images``, a complex's cells) and
calls none of the package functions it is compared with; package types are
only used to hold a result.  A point outside a domain goes to ``ERROR``, which
is no point of any domain, so it absorbs.  What each oracle reads:

* ``compose``, ``inverse``, ``hamming``: the product of point maps (rightmost
  first), the swapped point map, and P[a(x) != b(x)] over the larger set.
* ``commutes_with_flip``, ``fix_to_involution``, ``fix_fixed_point_free``,
  ``unsigned_shadow``, ``twisted_lift``, ``stage2_distance``: the signed
  double of range(n), +x at 2x and -x at 2x+1, and the repairs' docstrings.
* ``evaluate_word``, ``defect``: a word is its letters composed after the
  identity of range(space), an inverse letter read inverted; the defect is
  the largest ``hamming`` distance of a relation from the identity.
* ``cell_weight``, ``sym_distance``: PAPER.md's distance, P[f(s).i != g(s).i]
  over a cell drawn top cell first and an index of the larger index set, an
  index that only one side has counted as a mismatch.
* ``edge_maps``, ``walk``, ``walk_domain``, ``moved``: an edge cochain as one
  point map per oriented edge (the reversed orientation carries the inverse),
  a walk's value as the left fold of its edge maps, first edge first.
* ``rewrite``, ``steps``, ``bfs_distance``: the cycle rewriting relation by
  its match conditions, tried at every position with every edge (EE, EC) or
  triangle (TE, TC) of the complex, in the documented order (EC, TC, TE, EE,
  each by position, then cell).
* ``good_function_check``: one breadth-first search over ``steps`` from each
  trivial cycle, bases in increasing order, auditing ``walk`` values.
* ``edge_presentation``: the edge presentation of a tree's component and its
  central extension, from the builders' docstrings.
* ``gauge_violation``: the first gauge shift, first vertex changing fastest,
  whose weight saving times eta beats its distance, over ``itertools.product``
  of permutations.
* ``vertex_link_fit``, ``vertex_link_adopt``, ``single_edge_vote``: the
  corrections' docstrings, the fit a first minimum over the same product.
* ``facets``: the cells that no cell one dimension up contains.
* ``elements``: a GF(2) subspace's members, the XOR of each subset of its
  basis.
"""

from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from math import comb
from operator import xor

from permstab.cohomology import F2Cochain
from permstab.complexes import edge_gen, face_weight
from permstab.errors import PermstabError
from permstab.perms import ERROR, ErrPerm


def points(perm: ErrPerm) -> dict[int, int]:
    """The point map of ``perm``: each domain point to its image."""
    return dict(zip(perm.domain, perm.images))


def from_points(size: int, mapping: dict[int, int]) -> ErrPerm:
    dom = tuple(sorted(mapping))
    return ErrPerm(size, dom, tuple(mapping[x] for x in dom))


def compose(*perms: ErrPerm) -> ErrPerm:
    """The product of ``perms``, rightmost first, on the largest of their sets.

    Each point is carried through the letters by a left fold over the
    reversed word; it is in the result's domain when it never meets ``ERROR``.
    """
    maps = [points(p) for p in perms]
    size = max(p.size for p in perms)
    mapping = {}
    for x in range(size):
        y = reduce(lambda v, m: m.get(v, ERROR), reversed(maps), x)
        if y != ERROR:
            mapping[x] = y
    return from_points(size, mapping)


def hamming(a: ErrPerm, b: ErrPerm) -> Fraction:
    """P[a(x) != b(x)] over range(max size), where an undefined value is a mismatch.

    Refuses two domains of which neither contains the other.
    """
    ma, mb = points(a), points(b)
    if not (ma.keys() <= mb.keys() or mb.keys() <= ma.keys()):
        raise PermstabError("incomparable domains: neither contains the other")
    size = max(a.size, b.size)
    if size == 0:
        return Fraction(0)
    mismatches = sum(1 for x in range(size) if x not in ma or x not in mb or ma[x] != mb[x])
    return Fraction(mismatches, size)


def is_signed_double(perm: ErrPerm) -> bool:
    """Whether ``perm`` is a permutation of an even range, as the sign repairs need."""
    return perm.domain == tuple(range(perm.size)) and sorted(perm.images) == list(perm.domain) and perm.size % 2 == 0


def flip(n: int) -> ErrPerm:
    """The sign flip of the signed double of range(n): +x = 2x and -x = 2x+1 swap."""
    return from_points(2 * n, {p: p ^ 1 for p in range(2 * n)})


def commutes_with_flip(perm: ErrPerm) -> bool:
    """``perm`` after the flip equals the flip after ``perm``."""
    if not is_signed_double(perm):
        raise PermstabError("need a genuine permutation of an even-size range")
    f = flip(perm.size // 2)
    return compose(perm, f) == compose(f, perm)


def fix_to_involution(zeta: ErrPerm) -> ErrPerm:
    """``zeta`` on the points its square fixes, the identity elsewhere."""
    z = points(zeta)
    square = points(compose(zeta, zeta))
    return from_points(zeta.size, {x: z[x] if square[x] == x else x for x in range(zeta.size)})


def fix_fixed_point_free(zeta: ErrPerm) -> ErrPerm:
    """Pair the fixed points of an involution in increasing order; an odd one out pairs with a new point."""
    z = points(zeta)
    fixed = [x for x in range(zeta.size) if z[x] == x]
    if len(fixed) % 2:
        fixed.append(zeta.size)
    mapping = {x: y for x, y in z.items() if x != y}
    for a, b in zip(fixed[::2], fixed[1::2]):
        mapping[a], mapping[b] = b, a
    return from_points(len(mapping), mapping)


def unsigned_shadow(perm: ErrPerm) -> ErrPerm:
    """The permutation of range(n) that a flip-commuting ``perm`` of the signed double induces: x -> |perm(+x)|."""
    p = points(perm)
    n = perm.size // 2
    return from_points(n, {x: p[2 * x] // 2 for x in range(n)})


def twisted_lift(perm: ErrPerm, n: int, bit: int) -> ErrPerm:
    """The signed double of ``perm`` on range(n), every sign multiplied by (-1)**bit: (s, t) -> (s * (-1)**bit, perm(t))."""
    p = points(perm)
    mapping = {}
    for t in range(n):
        for sign in (1, -1):
            out_sign = -sign if bit else sign
            mapping[2 * t + (sign < 0)] = 2 * p[t] + (out_sign < 0)
    return from_points(2 * n, mapping)



def stage2_distance(action, tau: str = "tau") -> Fraction:
    """The largest distance of a stage-1 image from its stage-2 image, both read on the signed double.

    Stage 1 makes tau ``fix_to_involution`` of itself.  Stage 2 pairs that
    involution's fixed points (``fix_fixed_point_free``, which may add one
    padding point), sends the i-th orbit {x < y} of the result to +i = 2i and
    -i = 2i+1, and extends every other image by the identity on the padding
    point, where a stage-1 image is undefined.
    """
    inv = points(fix_to_involution(action.images[tau]))
    fpf = points(fix_fixed_point_free(from_points(len(inv), inv)))
    label = {}
    for i, (x, y) in enumerate(sorted((x, y) for x, y in fpf.items() if x < y)):
        label[x], label[y] = 2 * i, 2 * i + 1

    def on_double(mapping):
        return from_points(len(fpf), {label[x]: label[y] for x, y in mapping.items()})

    dist = Fraction(0)
    for g in action.presentation.generators:
        old = inv if g == tau else points(action.images[g])
        new = fpf if g == tau else {**{x: x for x in fpf}, **old}
        dist = max(dist, hamming(on_double(old), on_double(new)))
    return dist

# -- words ----------------------------------------------------------------------


def identity(size: int) -> ErrPerm:
    return from_points(size, {x: x for x in range(size)})


def inverse(perm: ErrPerm) -> ErrPerm:
    return from_points(perm.size, {y: x for x, y in points(perm).items()})


def evaluate_word(action, word) -> ErrPerm:
    """The letters composed after the identity of range(space), rightmost first; an inverse letter reads inverted.

    The first unknown letter from the left is refused.
    """
    letters = []
    for sym, exp in word:
        if sym not in action.images:
            raise PermstabError(f"unknown generator {sym!r}")
        perm = action.images[sym]
        letters.append(inverse(perm) if exp < 0 else perm)
    return compose(identity(action.space), *letters)


def defect(action) -> Fraction:
    """The largest ``hamming`` distance of an evaluated relation from the identity; 0 without relations."""
    ident = identity(action.space)
    return max((hamming(evaluate_word(action, rel), ident) for rel in action.presentation.relations), default=Fraction(0))


# -- the distance of PAPER.md ---------------------------------------------------


def cell_weight(x, cell) -> Fraction:
    """P[cell] when a uniform top cell is drawn, then a uniform face of the cell's size inside it."""
    tops = x.cells(x.dim)
    inside = sum(1 for t in tops if set(cell) <= set(t))
    return Fraction(inside, len(tops) * comb(x.dim + 1, len(cell)))


def sym_distance(f, g) -> Fraction:
    """P[f(s).i != g(s).i] over a weighted cell s and a uniform index i in range(max(n_f, n_g)).

    An index mismatches when only one side has it, or when the two values
    differ, an undefined value against a defined one included.
    """
    m = max(f.n, g.n)
    total = Fraction(0)
    for s in f.complex.cells(f.degree):
        a, b = f.values[s].images, g.values[s].images
        mismatches = sum(1 for i in range(m) if i >= len(a) or i >= len(b) or a[i] != b[i])
        total += cell_weight(f.complex, s) * Fraction(mismatches, m)
    return total


# -- edge cochains and walks ----------------------------------------------------


def edge_maps(f) -> dict:
    """An edge cochain's values as point maps, one per edge in increasing vertex order."""
    return {cell: {i: j for i, j in enumerate(val.images) if j is not None} for cell, val in f.values.items()}


def oriented(maps: dict, a: int, b: int) -> dict:
    """The point map on the oriented edge a -> b; the reversed orientation carries the inverse."""
    m = maps[(min(a, b), max(a, b))]
    return dict(m) if a < b else {j: i for i, j in m.items()}


def set_oriented(maps: dict, a: int, b: int, m: dict) -> None:
    maps[(min(a, b), max(a, b))] = m if a < b else {j: i for i, j in m.items()}


def walk(maps: dict, verts, n: int) -> tuple:
    """Each index carried along the walk's edges, first edge first; None once it leaves a domain."""
    steps = [oriented(maps, a, b) for a, b in zip(verts, verts[1:])]
    return tuple(reduce(lambda i, m: m.get(i), steps, j) for j in range(n))


def walk_domain(maps: dict, verts, n: int) -> frozenset:
    """The indices defined on every edge of the walk."""
    steps = [oriented(maps, a, b) for a, b in zip(verts, verts[1:])]
    return frozenset(j for j in range(n) if all(j in m for m in steps))


def moved(images) -> list:
    """The indices whose image is defined and not themselves, lowest first."""
    return [j for j, val in enumerate(images) if val is not None and val != j]


# -- the cycle rewriting relation -----------------------------------------------

KINDS = ("EC", "TC", "TE", "EE")  # in the documented order of the steps


def rewrite(x, verts: tuple, kind: str, p: int, cell):
    """What step ``kind`` at position ``p`` with ``cell`` makes of the closed walk ``verts``, or None.

    EE adds a spur verts[p] -> w -> verts[p] along the edge {verts[p], w}; EC
    removes a spur verts[p] -> u -> verts[p] along its edge; TE replaces the
    edge verts[p] -> verts[p+1] by the other two sides of a triangle; TC
    replaces two sides verts[p] -> verts[p+1] -> verts[p+2] of a triangle by
    the third, which must be an edge.  ``cell`` is a cell of ``x``; no step
    has a negative position.
    """
    cell = set(cell)
    if p < 0:
        return None
    if kind == "EE" and p < len(verts) and len(cell) == 2 and verts[p] in cell:
        (w,) = cell - {verts[p]}
        return verts[: p + 1] + (w, verts[p]) + verts[p + 1 :]
    if kind == "EC" and p + 2 < len(verts) and verts[p] == verts[p + 2] and cell == set(verts[p : p + 2]):
        return verts[: p + 1] + verts[p + 3 :]
    if kind == "TE" and p + 1 < len(verts) and len(cell) == 3 and set(verts[p : p + 2]) < cell:
        (z,) = cell - set(verts[p : p + 2])
        return verts[: p + 1] + (z,) + verts[p + 1 :]
    if kind == "TC" and p + 2 < len(verts) and len(cell) == 3 and cell == set(verts[p : p + 3]):
        if x.has_cell((verts[p], verts[p + 2])):
            return verts[: p + 1] + verts[p + 2 :]
    return None


def steps(x, verts: tuple, max_len: int) -> list:
    """Every step (kind, position, cell, next verts) from ``verts``, in the documented order.

    Contractions are always steps; an extension only while the longer walk
    has length at most ``max_len``.
    """
    out = []
    for kind in KINDS:
        cells = x.cells(1 if kind[0] == "E" else 2)
        for p, v in enumerate(verts):
            for cell in cells:
                if v in cell:
                    nxt = rewrite(x, verts, kind, p, cell)
                    if nxt is not None and (kind[1] == "C" or len(nxt) - 1 <= max_len):
                        out.append((kind, p, cell, nxt))
    return out


def bfs_distance(x, start: tuple, target: tuple, max_len: int):
    """The fewest steps from ``start`` to ``target`` through walks within ``max_len``, or None."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == target:
            return dist[cur]
        for _kind, _p, _cell, nxt in steps(x, cur, max_len):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return None


def good_function_check(f, max_len: int, max_steps: int):
    """The audit: (counterexample, step violations, EE gaps, cycles enumerated, budget exhausted).

    A breadth-first search over ``steps`` from each trivial cycle, bases in
    increasing order, visits at most ``max_steps`` cycles in all.  The first
    visited cycle whose value moves an index of its edge-wise domain is the
    counterexample (verts, lowest such index), and the audit stops there.
    Every non-EE step out of a visited cycle records (verts, kind, position,
    cell, index) where both values are defined and differ; every EE step
    counts the indices whose value it leaves undefined.  The budget counts as
    exhausted once ``max_steps`` cycles were visited.
    """
    x, n, maps = f.complex, f.n, edge_maps(f)
    values = {}

    def value(verts):
        if verts not in values:
            values[verts] = walk(maps, verts, n)
        return values[verts]

    violations, gaps, visited = [], 0, 0
    for base in sorted(x.vertices):
        seen, queue = {(base,)}, deque([(base,)])
        while queue and visited < max_steps:
            cur = queue.popleft()
            visited += 1
            a = value(cur)
            bad = [j for j in moved(a) if j in walk_domain(maps, cur, n)]
            if bad:
                return (cur, bad[0]), violations, gaps, visited, False
            for kind, p, cell, nxt in steps(x, cur, max_len):
                b = value(nxt)
                if kind == "EE":
                    gaps += sum(1 for j in range(n) if a[j] is not None and b[j] is None)
                else:
                    violations += [(cur, kind, p, cell, j) for j in range(n) if None not in (a[j], b[j]) and a[j] != b[j]]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return None, violations, gaps, visited, visited >= max_steps


# -- presentations --------------------------------------------------------------


def edge_presentation(x, tree, phi=None, tau: str = "tau"):
    """(generators, relations, inverse pairs) of the tree component's edge presentation.

    Generators are both orientations of every edge inside the component, in
    cell order, each pair formal inverses.  Relations: each tree edge in both
    orientations as a one-letter word, the backtrack of every edge, and for
    every triangle (a, b, c) of the component the words a->b->c->a and
    a->c->b->a.  With a 2-cocycle ``phi`` this is the central extension: tau
    is the last generator, tau^2 and [tau, g] for every other generator come
    first, and a triangle's two words end in tau where ``phi`` is 1.
    """
    comp = tree.component
    edges = [(a, b) for a, b in x.cells(1) if a in comp and b in comp]
    gens = [g for a, b in edges for g in (edge_gen(a, b), edge_gen(b, a))]
    pairs = [(edge_gen(a, b), edge_gen(b, a)) for a, b in edges]
    rels = []
    if phi is not None:
        rels += [((tau, 1), (tau, 1))] + [((tau, 1), (g, 1), (tau, -1), (g, -1)) for g in gens]
    rels += [((edge_gen(*e), 1),) for a, b in sorted(tree.tree_edges) for e in ((a, b), (b, a))]
    rels += [((edge_gen(a, b), 1), (edge_gen(b, a), 1)) for a, b in edges]
    for a, b, c in x.cells(2):
        if {a, b, c} <= comp:
            tail = ((tau, 1),) if phi is not None and phi((a, b, c)) else ()
            for u, v, w in ((a, b, c), (a, c, b)):
                rels.append(((edge_gen(u, v), 1), (edge_gen(v, w), 1), (edge_gen(w, u), 1)) + tail)
    return tuple(gens) + ((tau,) if phi is not None else ()), tuple(rels), tuple(pairs)


# -- gauge searches and corrections ---------------------------------------------


def assignments(verts, n: int):
    """Every map from ``verts`` to the permutations of range(n), as tuples, the first vertex changing fastest."""
    for combo in product(list(permutations(range(n))), repeat=len(verts)):
        yield dict(zip(reversed(verts), combo))


def gauge_violation(f, eta):
    """(witness, assignments tried) of the exhaustive minimality search; the witness is None when none violates.

    A gauge shift h takes the value on u -> v to h(v)^-1 f(uv) h(u).  It
    violates minimality when eta * (wt(f) - wt(f^h)) > dist(f, f^h), where
    dist is P[values differ] over a weighted edge and a uniform index and wt
    is the distance from the identity.
    """
    x, n, maps = f.complex, f.n, edge_maps(f)
    weights = {c: face_weight(x, c) for c in x.cells(1)}
    ident = {c: {j: j for j in range(n)} for c in x.cells(1)}

    def dist(a, b):
        return sum(w * Fraction(sum(a[c].get(j) != b[c].get(j) for j in range(n)), n) for c, w in weights.items())

    wf = dist(maps, ident)
    tried = 0
    for h in assignments(x.vertices, n):
        tried += 1
        shifted = {}
        for (u, v), m in maps.items():
            back = {t: s for s, t in enumerate(h[v])}
            shifted[(u, v)] = {i: back[m[h[u][i]]] for i in range(n) if h[u][i] in m}
        if Fraction(eta) * (wf - dist(shifted, ident)) > dist(maps, shifted):
            return h, tried
    return None, tried


def _moved_at(maps: dict, tris, n: int) -> list:
    """(triangle, index) pairs that the walk around each triangle, in increasing vertex order, moves."""
    return [(t, j) for t in tris for j in moved(walk(maps, t + t[:1], n))]


def _link_vertices(x, v: int) -> list:
    return sorted(u for e in x.cells(1) if v in e for u in e if u != v)


def vertex_link_fit(f, v: int) -> dict:
    """The exhaustive fit of ``vertex_link_correction``: link vertex u to the permutation carried by u -> v.

    The first assignment, first link vertex changing fastest, that leaves the
    fewest moved (triangle, index) pairs at ``v``.
    """
    x, n, maps = f.complex, f.n, edge_maps(f)
    tris = [t for t in x.cells(2) if v in t]

    def moved_pairs(g):
        cand = dict(maps)
        for u, perm in g.items():
            set_oriented(cand, u, v, dict(enumerate(perm)))
        return len(_moved_at(cand, tris, n))

    return min(assignments(_link_vertices(x, v), n), key=moved_pairs)


def vertex_link_adopt(f, v: int, g: dict, eta1, eta2) -> dict:
    """``vertex_link_correction``'s edge maps after the fit ``g``, index by index.

    Index i takes the fit's targets on every u -> v (any other index mapped to
    a target loses it) when that lowers the share of triangles at v moving i
    by at least eta1; otherwise, when more than an eta2 share moves i, i
    leaves the domain and the image of every edge at v.
    """
    x, n, out = f.complex, f.n, edge_maps(f)
    tris = [t for t in x.cells(2) if v in t]
    link = _link_vertices(x, v)

    def moving(maps, i):
        return sum(j == i for _t, j in _moved_at(maps, tris, n))

    for i in range(n):
        adopted = dict(out)
        for u in link:
            m = oriented(adopted, u, v)
            m = {s: t for s, t in m.items() if t != g[u][i]}
            m[i] = g[u][i]
            set_oriented(adopted, u, v, m)
        if Fraction(moving(out, i) - moving(adopted, i), len(tris)) >= Fraction(eta1):
            out = adopted
        elif Fraction(moving(out, i), len(tris)) > Fraction(eta2):
            out = dict(out)
            for u in link:
                set_oriented(out, u, v, {s: t for s, t in oriented(out, u, v).items() if i not in (s, t)})
    return out


def single_edge_vote(f, u: int, v: int, eta1) -> dict:
    """``single_edge_correction``'s edge maps: a majority vote, index by index, over the edge's link.

    Every w with {u, v, w} a triangle votes for where u -> w -> v takes index
    i, when that is defined.  The most voted target (the smallest on a tie)
    is installed on u -> v (any other index mapped to it loses it) when its
    share of the votes is at least eta1; i leaves the domain when every
    target's share is below 1 - eta1.
    """
    x, eta1, maps = f.complex, Fraction(eta1), edge_maps(f)
    link = [w for w in x.vertices if w not in (u, v) and x.has_cell((u, v, w))]
    new = oriented(maps, u, v)
    for i in range(f.n):
        votes = []
        for w in link:
            first, second = oriented(maps, u, w), oriented(maps, w, v)
            if first.get(i) in second:
                votes.append(second[first[i]])
        if not votes:
            continue
        top = min(set(votes), key=lambda t: (-votes.count(t), t))
        if Fraction(votes.count(top), len(votes)) >= eta1:
            new = {s: t for s, t in new.items() if t != top}
            new[i] = top
        elif all(Fraction(votes.count(t), len(votes)) < 1 - eta1 for t in votes):
            new.pop(i, None)
    out = dict(maps)
    set_oriented(out, u, v, new)
    return out


# -- complexes and subspaces ----------------------------------------------------


def facets(x) -> list:
    """The cells that no cell one dimension up contains, by size and then lexicographically."""
    cells = [c for k in range(x.dim + 1) for c in x.cells(k)]
    return [c for c in cells if not any(set(c) < set(d) for d in x.cells(len(c)))]


def elements(space):
    """Every member of a GF(2) subspace: member t is the XOR of the basis rows at the set bits of t."""
    for t in range(1 << space.dim):
        bits = reduce(xor, (row for i, row in enumerate(space.basis) if t >> i & 1), 0)
        yield F2Cochain(space.complex, space.degree, bits)
