"""Covering spaces from exact actions, pulled-back 2-cochains, and the
sign-bookkeeping 1-cochain whose coboundary tracks them.

A genuine action of the edge presentation of a connected complex defines a
covering whose vertices are (base vertex, fiber point) pairs: cover vertex
``i*m + s`` is fiber point ``s`` over the ``i``-th base vertex.  Higher cells
are lifted fiberwise, which is well defined because triangle and backtracking
relations hold exactly.  ``build_cover`` lifts each base cell over the whole
fiber at once and records, for every cover cell, the base cell it lifts and
the fiber point at its first vertex; the pull-back, the sign cochain and the
triangle classifier read that record one base cell at a time.
``contradiction_experiment`` runs the full distance experiment and insists on
the proved inequality; a violation raises ``BoundViolation`` and means the
implementation is broken.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from operator import itemgetter

from .actions import (
    AlmostAction,
    _central_relations,
    _column,
    _letter_lines,
    action_distance,
    defect,
    induced_quotient_action,
    is_sign_commuting,
)
from .cohomology import F2Cochain, coboundary, weighted_norm
from .complexes import (
    Presentation,
    RootedTree,
    SimplicialComplex,
    _edge_presentation,
    edge_gen,
    spanning_tree,
)
from .errors import BoundViolation, PermstabError
from .perms import ERROR


@dataclass
class Covering:
    """A covering of ``base`` with fiber ``range(fiber_size)``.

    ``vertex_pair`` and ``vertex_id`` translate between cover vertices and
    (base vertex, fiber point) pairs.  ``lifts`` is the lift record that
    ``build_cover`` fills and the walkers read: ``lifts[k][p]`` is
    ``j * fiber_size + s`` for the cover k-cell at canonical position ``p``,
    which lifts the base k-cell at position ``j`` and has fiber point ``s``
    at its first vertex.
    """

    base: SimplicialComplex
    total: SimplicialComplex
    fiber_size: int
    action: AlmostAction
    vertex_pair: dict[int, tuple[int, int]]
    vertex_id: dict[tuple[int, int], int]
    lifts: tuple[tuple[int, ...], ...] = ()

    def project_vertex(self, v: int) -> int:
        return self.vertex_pair[v][0]

    def project_cell(self, cell) -> tuple[int, ...]:
        return tuple(sorted(self.vertex_pair[v][0] for v in cell))


def build_cover(x: SimplicialComplex, action: AlmostAction) -> Covering:
    """Covering induced by an exact, total action of the edge presentation.

    Cover vertex ``i*m + s`` is the pair (``i``-th base vertex, fiber point
    ``s``); (x,a)(y,b) is an edge when the image of the oriented edge xy maps
    b to a.  A base k-cell (c0, ..., ck) lifts to m cells, one per fiber point
    s at c0: its vertex over ci is the image of s under the edge ci c0.  The
    lifts come out sorted because the base cell is, so each dimension is
    ordered by one sort, whose permutation is the lift record.  The lifted
    family must be closed (every face of a lifted cell is a lifted cell),
    and the projection must be a bijection on every vertex star; both are
    verified before returning.
    """
    if defect(action) != 0:
        raise PermstabError("the action has positive defect; stabilize first")
    m = action.space
    gens = set(action.generators)
    for (a, b) in x.cells(1):
        if edge_gen(a, b) not in gens or edge_gen(b, a) not in gens:
            raise PermstabError(f"action lacks a generator for edge ({a},{b})")
    for g in action.generators:
        if not action.image(g).is_total:
            raise PermstabError(f"image of {g!r} is not total")
    if not m:  # an empty fiber has no cover cells
        raise PermstabError("a complex needs at least one cell")

    offset = {v: i * m for i, v in enumerate(x.vertices)}
    vertex_id = {(v, s): o + s for v, o in offset.items() for s in range(m)}
    vertex_pair = {vid: pair for pair, vid in vertex_id.items()}

    # toward[b, a] lists the cover vertices over b of the lifts of edge ab, by fiber point over a
    toward = {(b, a): [offset[b] + t for t in action.image(edge_gen(b, a)).images] for a, b in x.cells(1)}

    faces = [tuple((vid,) for vid in vertex_pair)]
    lifts = [tuple(range(len(vertex_pair)))]
    for k in range(1, x.dim + 1):
        lifted: list[tuple[int, ...]] = []
        for cell in x.cells(k):
            c0 = cell[0]
            lifted.extend(zip(range(offset[c0], offset[c0] + m), *(toward[ci, c0] for ci in cell[1:])))
        order = sorted(range(len(lifted)), key=lifted.__getitem__)
        cells = tuple(map(lifted.__getitem__, order))
        if not set(faces[-1]).issuperset(chain.from_iterable(map(combinations, cells, repeat(k)))):
            raise PermstabError(f"fiberwise lift failed in dimension {k - 1}")
        faces.append(cells)
        lifts.append(tuple(order))

    cov = Covering(x, SimplicialComplex(tuple(faces)), m, action, vertex_pair, vertex_id, tuple(lifts))
    _verify_cover(cov)
    return cov


def _verify_cover(cov: Covering) -> None:
    """Check the cell counts and that the projection is a bijection on every vertex star.

    Each cover cell is projected once.  The star of a cover vertex projects
    bijectively onto the star of its base vertex exactly when every
    projection is a base cell, no (vertex, projection) pair repeats, and
    every vertex lies in as many k-cells as its base vertex does.
    """
    x, y, m = cov.base, cov.total, cov.fiber_size
    for k in range(x.dim + 1):
        if y.n_cells(k) != m * x.n_cells(k):
            raise PermstabError(f"fiberwise lift failed in dimension {k}")
    base_of = {vid: v for vid, (v, _) in cov.vertex_pair.items()}
    for k in range(y.dim + 1):
        cells, base_cells = y.cells(k), set(x.cells(k))
        columns = [tuple(map(itemgetter(i), cells)) for i in range(k + 1)]  # i-th vertex of each cell
        # a projection already in base order is kept; any other one is sorted
        projected = [
            p if p in base_cells else tuple(sorted(p))
            for p in zip(*(map(base_of.__getitem__, col) for col in columns))
        ]
        pairs = set(chain.from_iterable(zip(col, projected) for col in columns))
        incident = Counter(chain.from_iterable(columns))
        star_size = Counter(chain.from_iterable(base_cells))
        if (
            not base_cells.issuperset(projected)
            or len(pairs) != (k + 1) * len(cells)
            or any(incident[vid] != star_size[v] for vid, v in base_of.items())
        ):
            raise PermstabError("projection is not a bijection on a vertex star")


def _bits_at(digits, lift: tuple[int, ...]) -> int:
    """Cochain bits with bit p equal to ``digits[lift[p]]``, a '0' or '1'."""
    return int("".join(map(digits.__getitem__, reversed(lift))), 2)


def pull_back_cocycle(phi: F2Cochain, cov: Covering) -> F2Cochain:
    """Compose a cocycle with the covering projection: each lift takes its base cell's bit."""
    if phi.complex is not cov.base:
        raise PermstabError("cochain does not live on the base")
    if phi.degree < phi.complex.dim and not coboundary(phi).is_zero:
        raise PermstabError("not a cocycle")
    m = cov.fiber_size
    base_digits = format(phi.bits, f"0{phi.complex.n_cells(phi.degree)}b")[::-1]
    digits = "".join(d * m for d in base_digits)
    return F2Cochain(cov.total, phi.degree, _bits_at(digits, cov.lifts[phi.degree]))


def zeta_cochain(psi: AlmostAction, f: AlmostAction, cov: Covering, tau: str = "tau"):
    """Sign-bookkeeping 1-cochain on the cover, with the type of every edge.

    A cover edge over xy with fiber points (a at x, b at y) is of the first
    type when the unsigned shadow of psi agrees there with the covering
    action; its bit is then the sign psi attaches to +b.  Second-type edges
    (including fiber points outside psi's ground set) get 0.  Each base edge
    is read once, as a column over the fiber points at its first vertex.
    """
    if not (cov.action is f or cov.action.images == f.images):
        raise PermstabError("cover was not built from this action")
    if not is_sign_commuting(psi, tau):
        raise PermstabError("psi must send tau to the sign flip and commute with it")
    if psi.space // 2 > cov.fiber_size:
        raise PermstabError("psi's ground set exceeds the covering fiber")
    kinds, signs = [], []
    pad = [ERROR] * (2 * cov.fiber_size - psi.space)  # +t for a fiber point t outside psi's ground set
    for (a, b) in cov.base.cells(1):
        # +t for the fiber point t over b of each lift, read on psi's line padded with ERROR
        plus_t = [2 * t for t in cov.action.image(edge_gen(b, a)).images]
        for s, img in enumerate(_column([psi.image(edge_gen(a, b))._line + pad], plus_t)):
            first = img >> 1 == s
            kinds.append("first" if first else "second")
            signs.append("1" if first and img & 1 else "0")
    y, lift = cov.total, cov.lifts[1]
    types = dict(zip(y.cells(1), map(kinds.__getitem__, lift)))
    return F2Cochain(y, 1, _bits_at(signs, lift)), types


def _cover_triangles(psi: AlmostAction, phi: F2Cochain, cov: Covering, types: dict):
    """Classify every cover triangle: (position, cell, has_second_type_edge, tracked).

    The triangle's vertices are read in base-vertex order.  It has a second
    type edge when some edge is not of the first type in ``types``; it is
    tracked when psi carries the fiber point at its first vertex once around
    the triangle to itself, signed by phi.  Each base triangle's word is
    evaluated once, as a column over the fiber.
    """
    x, y, m = cov.base, cov.total, cov.fiber_size
    first = [False] * y.n_cells(1)  # by edge lift index
    for i, edge in zip(cov.lifts[1], y.cells(1)):
        first[i] = types[edge] == "first"
    plus = [2 * s for s in range(min(psi.space // 2, m))]  # the points psi tracks, doubled
    second, tracked = [], []
    for tri in x.cells(2):
        a, b, c = tri
        ab, ac, bc = (m * x.cell_position(e) for e in ((a, b), (a, c), (b, c)))
        at_b = cov.action.image(edge_gen(b, a)).images
        second.extend(
            not (first[ab + s] and first[bc + t] and first[ac + s]) for s, t in enumerate(at_b)
        )
        if plus:
            word = ((edge_gen(a, b), 1), (edge_gen(b, c), 1), (edge_gen(c, a), 1))
            signed = phi(tri)
            tracked.extend(z == p + signed for p, z in zip(plus, _column(_letter_lines(psi, word), plus)))
        tracked.extend(repeat(False, m - len(plus)))
    for j, (i, cell) in enumerate(zip(cov.lifts[2], y.cells(2))):
        yield j, cell, second[i], tracked[i]


def first_type_triangle_check(
    psi: AlmostAction,
    phi: F2Cochain,
    cov: Covering,
    zeta: F2Cochain,
    types: dict,
):
    """Verify the exact equality on qualifying cover triangles.

    On a triangle whose three edges are all of the first type and whose base
    fiber point is tracked correctly by psi, the pulled-back cochain must
    agree with the coboundary of zeta.  Returns (checked, violations).
    """
    diff = pull_back_cocycle(phi, cov) ^ coboundary(zeta)
    qualifying = [
        (j, cell)
        for j, cell, second, tracked in _cover_triangles(psi, phi, cov, types)
        if tracked and not second
    ]
    return len(qualifying), [cell for j, cell in qualifying if diff.bits >> j & 1]


def connected_components(x: SimplicialComplex) -> list[frozenset[int]]:
    """Vertex sets of the components, in the order of their first vertex."""
    seen: set[int] = set()
    comps = []
    for v in x.vertices:
        if v not in seen:
            comps.append(spanning_tree(x, v).component)
            seen |= comps[-1]
    return comps


@dataclass
class ExperimentReport:
    eps: Fraction
    rho: Fraction
    event1: Fraction
    event2: Fraction
    dw_total: Fraction
    per_component: tuple[tuple[int, int, Fraction], ...]
    dw_best: Fraction
    best_component: int
    bound: Fraction
    holds: bool
    first_type_checked: int


def contradiction_experiment(
    x: SimplicialComplex,
    phi: F2Cochain,
    psi: AlmostAction,
    f: AlmostAction,
    tau: str = "tau",
    eps: Fraction | None = None,
) -> ExperimentReport:
    """Measure how close the pulled-back cochain is to a coboundary.

    Computes eps (the defect of psi, unless the caller passes the value it
    has already measured), rho (distance of the covering action from psi's
    unsigned shadow), builds the cover, and compares the pull-back of
    phi with the coboundary of the sign cochain, in total, per connected
    component, and through the two failure events.  The inequality
    ``min-component distance <= eps + 4*rho`` is asserted; so is the per
    triangle equality on qualifying triangles.
    """
    if eps is None:
        eps = defect(psi)
    quotient = induced_quotient_action(psi, tau)
    rho = action_distance(f, quotient)
    cov = build_cover(x, f)
    y = cov.total
    phi_prime = pull_back_cocycle(phi, cov)
    zeta, types = zeta_cochain(psi, f, cov, tau)
    diff = phi_prime ^ coboundary(zeta)
    dw_total = weighted_norm(diff)

    # one walk over the cover triangles: the two failure events, and the exact
    # equality (bit j of diff clear) on every triangle outside both
    nums, den = y.weight_numerators(2)
    event1_num = event2_num = checked = 0
    violations = []
    for j, cell, second, tracked in _cover_triangles(psi, phi, cov, types):
        if second:
            event1_num += nums[j]
        if not tracked:
            event2_num += nums[j]
        elif not second:
            checked += 1
            if diff.bits >> j & 1:
                violations.append(cell)
    event1 = Fraction(event1_num, den)
    event2 = Fraction(event2_num, den)

    diff_cells = set(diff.support())
    per_component = []
    for i, comp in enumerate(connected_components(y)):
        top = [c for c in y.cells(y.dim) if c[0] in comp]
        if not top:
            continue
        num = sum(nums[y.cell_position(c)] for c in diff_cells if c[0] in comp)
        scale = Fraction(y.n_cells(y.dim), len(top))
        per_component.append((i, len(top), Fraction(num, den) * scale))
    dw_best, best_component = min((dw, i) for i, _, dw in per_component)

    bound = eps + 4 * rho
    if violations:
        raise BoundViolation(f"{len(violations)} qualifying triangles disagree")
    if dw_total > event1 + event2:
        raise BoundViolation("total distance exceeds the union of the two events")
    if dw_total > bound or dw_best > bound:
        raise BoundViolation(f"distance {dw_best} exceeds the bound {bound}")
    return ExperimentReport(
        eps=eps,
        rho=rho,
        event1=event1,
        event2=event2,
        dw_total=dw_total,
        per_component=tuple(per_component),
        dw_best=dw_best,
        best_component=best_component,
        bound=bound,
        holds=True,
        first_type_checked=checked,
    )


def extension_from_cocycle(
    x: SimplicialComplex, tree: RootedTree, phi: F2Cochain, tau: str = "tau"
) -> Presentation:
    """Presentation of the central 2-extension defined by a 2-cocycle.

    Edge generators plus a central involution tau; each oriented triangle
    relation is twisted by tau raised to the cocycle's value there.
    """
    if phi.degree != 2:
        raise PermstabError("expected a 2-cochain")
    if phi.complex.dim > 2 and not coboundary(phi).is_zero:
        raise PermstabError("not a cocycle")
    if phi.complex is not x:
        raise PermstabError("cochain does not live on this complex")
    gens, pairs, edge_relations = _edge_presentation(
        x, tree, lambda cell: ((tau, 1),) if phi(cell) else ()
    )
    relations = _central_relations(gens, tau) + edge_relations
    return Presentation(tuple(gens) + (tau,), tuple(relations), tuple(pairs))


def adjust_section(phi: F2Cochain, psi1: F2Cochain) -> F2Cochain:
    """Shift a 2-cochain by the coboundary of an edge cochain (same class)."""
    if psi1.degree != 1 or phi.degree != 2:
        raise PermstabError("expected a 2-cochain and a 1-cochain")
    return phi ^ coboundary(psi1)


class _DSU:
    def __init__(self, items):
        self.parent = {v: v for v in items}

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def cover_tree(cov: Covering, tree: RootedTree, v0: int) -> RootedTree:
    """Spanning tree of the cover containing every lift of the base tree.

    The preimage of the base tree is a forest; its components inside the
    chosen vertex's component are kept whole and connected up with the
    smallest extra edges in sorted order, then rooted at ``v0``.
    """
    if cov.project_vertex(v0) != tree.root:
        raise PermstabError("v0 does not lift the root")
    y = cov.total
    comp = spanning_tree(y, v0).component
    forest = [
        e
        for e in y.cells(1)
        if e[0] in comp and cov.project_cell(e) in tree.tree_edges
    ]
    dsu = _DSU(comp)
    chosen = set()
    for (a, b) in forest:
        dsu.union(a, b)
        chosen.add((a, b))
    for (a, b) in y.cells(1):
        if a in comp and (a, b) not in chosen and dsu.union(a, b):
            chosen.add((a, b))
    return spanning_tree(SimplicialComplex.from_cells([(v,) for v in comp] + list(chosen)), v0)
