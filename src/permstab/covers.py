"""Covering spaces from exact actions, pulled-back 2-cochains, and the
sign-bookkeeping 1-cochain whose coboundary tracks them.

A genuine action of the edge presentation of a connected complex defines a
covering whose vertices are (base vertex, fiber point) pairs; higher cells
are lifted fiberwise, which is well defined because triangle and backtracking
relations hold exactly.  ``contradiction_experiment`` runs the full distance
experiment and insists on the proved inequality; a violation raises
``BoundViolation`` and means the implementation is broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .actions import (
    AlmostAction,
    _central_relations,
    action_distance,
    apply_word,
    defect,
    induced_quotient_action,
    is_sign_commuting,
)
from .cohomology import F2Cochain, coboundary, weighted_norm
from .complexes import (
    Presentation,
    RootedTree,
    SimplicialComplex,
    Word,
    _edge_presentation,
    edge_gen,
    spanning_tree,
)
from .errors import BoundViolation, PermstabError


@dataclass
class Covering:
    base: SimplicialComplex
    total: SimplicialComplex
    fiber_size: int
    action: AlmostAction
    vertex_pair: dict[int, tuple[int, int]]
    vertex_id: dict[tuple[int, int], int]

    def project_vertex(self, v: int) -> int:
        return self.vertex_pair[v][0]

    def project_cell(self, cell) -> tuple[int, ...]:
        return tuple(sorted(self.vertex_pair[v][0] for v in cell))


def build_cover(x: SimplicialComplex, action: AlmostAction) -> Covering:
    """Covering induced by an exact, total action of the edge presentation.

    Vertices are pairs (base vertex, fiber point); (x,a)(y,b) is an edge when
    the image of the oriented edge xy maps b to a.  Cells above dimension one
    are lifted fiberwise.  Local bijectivity of the projection on every
    vertex star is verified before returning.
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

    vertex_id: dict[tuple[int, int], int] = {}
    vertex_pair: dict[int, tuple[int, int]] = {}
    for i, v in enumerate(x.vertices):
        for star in range(m):
            vid = i * m + star
            vertex_id[(v, star)] = vid
            vertex_pair[vid] = (v, star)

    cells: list[tuple[int, ...]] = [(vid,) for vid in vertex_pair]
    for k in range(1, x.dim + 1):
        for cell in x.cells(k):
            x0 = cell[0]
            toward_x0 = [action.image(edge_gen(xi, x0)) for xi in cell[1:]]
            for star in range(m):
                lift = [vertex_id[(x0, star)]]
                for xi, perm in zip(cell[1:], toward_x0):
                    lift.append(vertex_id[(xi, perm.apply(star))])
                cells.append(tuple(sorted(lift)))

    total = SimplicialComplex.from_cells(cells)
    cov = Covering(x, total, m, action, vertex_pair, vertex_id)
    _verify_cover(cov)
    return cov


def _verify_cover(cov: Covering) -> None:
    x, y, m = cov.base, cov.total, cov.fiber_size
    for k in range(x.dim + 1):
        if y.n_cells(k) != m * x.n_cells(k):
            raise PermstabError(f"fiberwise lift failed in dimension {k}")
    star_of: dict[int, list[set]] = {}
    for k in range(x.dim + 1):
        for cell in x.cells(k):
            for v in cell:
                star_of.setdefault(v, [set() for _ in range(x.dim + 1)])[k].add(cell)
    incident_of = {vid: [[] for _ in range(y.dim + 1)] for vid in cov.vertex_pair}
    for k in range(y.dim + 1):
        for cell in y.cells(k):
            for vid in cell:
                if vid in incident_of:
                    incident_of[vid][k].append(cell)
    for vid, (v, _) in cov.vertex_pair.items():
        for k in range(y.dim + 1):
            projected = [cov.project_cell(c) for c in incident_of[vid][k]]
            if len(set(projected)) != len(projected) or set(projected) != star_of[v][k]:
                raise PermstabError("projection is not a bijection on a vertex star")


def pull_back_cocycle(phi: F2Cochain, cov: Covering) -> F2Cochain:
    """Compose a cocycle with the covering projection."""
    if phi.complex is not cov.base:
        raise PermstabError("cochain does not live on the base")
    if phi.degree < phi.complex.dim and not coboundary(phi).is_zero:
        raise PermstabError("not a cocycle")
    y = cov.total
    bits = 0
    for j, cell in enumerate(y.cells(phi.degree)):
        if phi(cov.project_cell(cell)):
            bits |= 1 << j
    return F2Cochain(y, phi.degree, bits)


def zeta_cochain(psi: AlmostAction, f: AlmostAction, cov: Covering, tau: str = "tau"):
    """Sign-bookkeeping 1-cochain on the cover, with the type of every edge.

    A cover edge over xy with fiber points (a at x, b at y) is of the first
    type when the unsigned shadow of psi agrees there with the covering
    action; its bit is then the sign psi attaches to +b.  Second-type edges
    (including fiber points outside psi's ground set) get 0.
    """
    if not (cov.action is f or cov.action.images == f.images):
        raise PermstabError("cover was not built from this action")
    if not is_sign_commuting(psi, tau):
        raise PermstabError("psi must send tau to the sign flip and commute with it")
    n = psi.space // 2
    if n > cov.fiber_size:
        raise PermstabError("psi's ground set exceeds the covering fiber")
    y = cov.total
    bits = 0
    types: dict[tuple[int, int], str] = {}
    for j, (va, vb) in enumerate(y.cells(1)):
        (xa, sa), (xb, sb) = cov.vertex_pair[va], cov.vertex_pair[vb]
        if xa > xb:
            (xa, sa), (xb, sb) = (xb, sb), (xa, sa)
        kind = "second"
        if sb < n:
            img = psi.image(edge_gen(xa, xb)).apply(2 * sb)
            if img >> 1 == sa:
                kind = "first"
                if img & 1:
                    bits |= 1 << j
        types[(va, vb)] = kind
    return F2Cochain(y, 1, bits), types


def _cover_triangles(psi: AlmostAction, phi: F2Cochain, cov: Covering, types: dict):
    """Classify every cover triangle: (position, cell, has_second_type_edge, tracked).

    The triangle's vertices are read in base-vertex order.  It has a second
    type edge when some edge is not of the first type in ``types``; it is
    tracked when psi carries the fiber point at its first vertex once around
    the triangle to itself, signed by phi.
    """
    n = psi.space // 2
    for j, cell in enumerate(cov.total.cells(2)):
        va, vb, vc = sorted(cell, key=lambda v: cov.vertex_pair[v][0])
        second = any(types[tuple(sorted(e))] != "first" for e in ((va, vb), (vb, vc), (va, vc)))
        (xx, sx), (yy, _), (zz, _) = (cov.vertex_pair[v] for v in (va, vb, vc))
        word: Word = ((edge_gen(xx, yy), 1), (edge_gen(yy, zz), 1), (edge_gen(zz, xx), 1))
        tracked = sx < n and apply_word(psi, word, 2 * sx) == 2 * sx + phi((xx, yy, zz))
        yield j, cell, second, tracked


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
