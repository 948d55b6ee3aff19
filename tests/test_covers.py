from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permstab.actions import AlmostAction, defect
from permstab.cohomology import (
    F2Cochain,
    coboundary,
    coboundary_space,
    cochain_from_support,
    distance_to_subspace,
    weighted_norm,
    zero_cochain,
)
from permstab.complexes import (
    SimplicialComplex,
    annulus,
    annulus_winding_cocycle,
    boundary_of_simplex,
    edge_gen,
    face_weight,
    full_triangle,
    fundamental_group_presentation,
    hollow_polygon,
    spanning_tree,
)
from permstab.covers import (
    Covering,
    _verify_cover,
    adjust_section,
    build_cover,
    connected_components,
    contradiction_experiment,
    cover_tree,
    extension_from_cocycle,
    pull_back_cocycle,
    zeta_cochain,
)
from permstab.errors import PermstabError
from permstab.experiments import (
    exact_action_from_int_cocycle,
    sign_twisted_lift,
    signed_noise_injector,
)
from permstab.perms import ErrPerm
from permstab.rng import SplitMix64


def trivial_action(x, m):
    tree = spanning_tree(x, min(x.vertices))
    pres = fundamental_group_presentation(x, tree)
    images = {g: ErrPerm.identity(m) for g in pres.generators}
    return AlmostAction(pres, m, images)


def hexagon_cover_action():
    """Hollow triangle with the non-tree edge acting as a swap of two sheets."""
    x = hollow_polygon(3)
    tree = spanning_tree(x, 0)
    assert tree.tree_edges == frozenset({(0, 1), (0, 2)})
    swap = ErrPerm.from_cycle((0, 1), 2)
    ident = ErrPerm.identity(2)
    pres = fundamental_group_presentation(x, tree)
    images = {g: ident for g in pres.generators}
    images[edge_gen(1, 2)] = swap
    images[edge_gen(2, 1)] = swap.inverse()
    return x, AlmostAction(pres, 2, images)


def random_exact_action(x, seed, m):
    """Exact action with holonomy from a random integer winding cocycle."""
    from permstab.experiments import integer_cocycle_basis

    rng = SplitMix64(seed)
    tree = spanning_tree(x, min(x.vertices))
    sigma_img = list(range(m))
    rng.shuffle(sigma_img)
    sigma = ErrPerm.from_one_line(tuple(sigma_img))
    basis = integer_cocycle_basis(x, tree)
    cocycle = {e: 0 for e in x.cells(1)}
    for vec in basis:
        scale = rng.below(3) - 1
        for e, v in vec.items():
            cocycle[e] += scale * v
    return exact_action_from_int_cocycle(x, tree, cocycle, sigma)


def test_trivial_cover_is_disjoint_copies():
    x = boundary_of_simplex(3)
    cov = build_cover(x, trivial_action(x, 2))
    assert len(connected_components(cov.total)) == 2
    for k in range(3):
        assert cov.total.n_cells(k) == 2 * x.n_cells(k)


def union_find_components(x):
    """Components by union-find over the edges, in the order of their first vertex."""
    parent = {v: v for v in x.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in x.cells(1):
        parent[find(a)] = find(b)
    groups: dict[int, set] = {}
    for v in x.vertices:
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


# isolated vertices and several components: cells on ten vertices, few of them edges
sparse_cells = st.lists(
    st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True), min_size=1, max_size=7
)


@settings(max_examples=200, deadline=None)
@given(sparse_cells)
def test_connected_components_match_union_find(cells):
    x = SimplicialComplex.from_cells(cells)
    assert connected_components(x) == union_find_components(x)


def test_hexagon_double_cover():
    x, action = hexagon_cover_action()
    cov = build_cover(x, action)
    y = cov.total
    assert y.n_cells(0) == 6 and y.n_cells(1) == 6
    assert len(connected_components(y)) == 1  # one hexagon, not two triangles
    # every vertex has exactly two neighbors
    assert all(len(y.neighbors(v)) == 2 for v in y.vertices)


def test_cover_counts_and_weights():
    rng = SplitMix64(71)
    from test_complexes import random_pure_complex

    for trial in range(10):
        x = random_pure_complex(rng, n_vertices=6, n_faces=5)
        m = 2 + rng.below(3)
        action = random_exact_action(x, 1000 + trial, m)
        assert defect(action) == 0
        cov = build_cover(x, action)
        y = cov.total
        for k in range(x.dim + 1):
            assert y.n_cells(k) == m * x.n_cells(k)
        for k in range(y.dim + 1):
            for cell in y.cells(k):
                assert face_weight(y, cell) == face_weight(x, cov.project_cell(cell)) / m


def test_cover_rejects_positive_defect():
    x = full_triangle()
    tree = spanning_tree(x, 0)
    pres = fundamental_group_presentation(x, tree)
    images = {g: ErrPerm.identity(2) for g in pres.generators}
    images[edge_gen(1, 2)] = ErrPerm.from_cycle((0, 1), 2)
    images[edge_gen(2, 1)] = ErrPerm.from_cycle((0, 1), 2)
    bad = AlmostAction(pres, 2, images)
    assert defect(bad) > 0
    with pytest.raises(PermstabError):
        build_cover(x, bad)


# -- pull-backs -----------------------------------------------------------------


def test_pull_back_zero_and_functoriality():
    x = annulus()
    f = exact_action_from_int_cocycle(x, spanning_tree(x, 0), annulus_winding_cocycle(),
                                      ErrPerm.from_cycle((0, 1, 2), 3))
    cov = build_cover(x, f)
    assert pull_back_cocycle(zero_cochain(x, 2), cov).is_zero
    rng = SplitMix64(77)
    psi1 = F2Cochain(x, 1, rng.below(1 << x.n_cells(1)))
    # delta(psi1 o P) = (delta psi1) o P, checked cell by cell
    lifted_psi1 = pull_back_degree1(psi1, cov)
    assert coboundary(lifted_psi1) == pull_back_cocycle(coboundary(psi1), cov)


def pull_back_degree1(psi1, cov):
    y = cov.total
    bits = 0
    for j, cell in enumerate(y.cells(1)):
        if psi1(cov.project_cell(cell)):
            bits |= 1 << j
    return F2Cochain(y, 1, bits)


def test_pull_back_preserves_cocycles():
    # a 3-dimensional base so degree-2 cocycles have a genuine coboundary check
    x = boundary_of_simplex(4)
    cov = build_cover(x, trivial_action(x, 3))
    rng = SplitMix64(79)
    psi1 = F2Cochain(x, 1, rng.below(1 << x.n_cells(1)))
    phi = coboundary(psi1)
    assert coboundary(phi).is_zero
    assert coboundary(pull_back_cocycle(phi, cov)).is_zero
    nonzero = cochain_from_support(x, 2, [(0, 1, 2)])
    if not coboundary(nonzero).is_zero:
        with pytest.raises(PermstabError):
            pull_back_cocycle(nonzero, cov)


# -- the sign cochain -------------------------------------------------------------


def annulus_instance(seed, eps, fiber=8, extra=0, mode="coboundary"):
    from permstab.experiments import ExperimentConfig, build_instance

    return build_instance(
        ExperimentConfig(seed=seed, epsilon=Fraction(eps), fiber=fiber, extra=extra,
                         cocycle_mode=mode)
    )


def test_zeta_all_positive_lift():
    x, phi, raw, f = annulus_instance(seed=5, eps=0, mode="zero")
    assert phi.is_zero and defect(raw) == 0
    cov = build_cover(x, f)
    zeta, types = zeta_cochain(raw, f, cov)
    assert zeta.is_zero
    assert set(types.values()) == {"first"}


def test_zeta_flipped_generator_marks_lifts():
    x, phi, raw, f = annulus_instance(seed=6, eps=0, mode="coboundary")
    cov = build_cover(x, f)
    zeta, types = zeta_cochain(raw, f, cov)
    assert set(types.values()) == {"first"}
    # edges whose sign twist is 1 get zeta = 1 on every lift
    signs = {}
    for (a, b) in x.cells(1):
        img = raw.image(edge_gen(a, b)).apply(0)
        signs[(a, b)] = img & 1
    for cell in cov.total.cells(1):
        assert zeta(cell) == signs[cov.project_cell(cell)]


def test_zeta_second_type_outside_ground_set():
    x, phi, raw, f = annulus_instance(seed=7, eps=0, extra=2)
    cov = build_cover(x, f)
    n = raw.space // 2
    zeta, types = zeta_cochain(raw, f, cov)
    seconds = [e for e, t in types.items() if t == "second"]
    assert seconds
    for (va, vb) in seconds:
        fibers = {cov.vertex_pair[va][1], cov.vertex_pair[vb][1]}
        assert max(fibers) >= n  # the teleported fiber point is outside range(n)


def test_first_type_triangle_equality_holds():
    from permstab.covers import first_type_triangle_check

    x, phi, raw, f = annulus_instance(seed=8, eps="1/8", fiber=12)
    from permstab.actions import normalize_sofic_approx

    psi, _ = normalize_sofic_approx(raw)
    cov = build_cover(x, f)
    zeta, types = zeta_cochain(psi, f, cov)
    checked, violations = first_type_triangle_check(psi, phi, cov, zeta, types)
    assert checked > 0 and violations == []


def test_contradiction_experiment_exact_inputs():
    x, phi, raw, f = annulus_instance(seed=9, eps=0)
    report = contradiction_experiment(x, phi, raw, f)
    assert report.eps == 0 and report.rho == 0
    assert report.dw_total == 0 and report.dw_best == 0
    assert report.holds


def test_contradiction_experiment_noisy_bound():
    from permstab.actions import normalize_sofic_approx

    for seed in range(5):
        x, phi, raw, f = annulus_instance(seed=20 + seed, eps="1/8", fiber=12)
        psi, _ = normalize_sofic_approx(raw)
        report = contradiction_experiment(x, phi, psi, f)
        assert report.dw_best <= report.bound
        assert report.dw_total <= report.event1 + report.event2
        assert min(dw for _, _, dw in report.per_component) == report.dw_best


# -- extensions -------------------------------------------------------------------


def test_extension_relation_counts():
    x = boundary_of_simplex(3)
    tree = spanning_tree(x, 0)
    phi = cochain_from_support(x, 2, [(0, 1, 2), (0, 1, 3)])
    pres = extension_from_cocycle(x, tree, phi)
    n_edges = x.n_cells(1)
    n_tree = len(tree.tree_edges)
    n_tri = x.n_cells(2)
    assert len(pres.generators) == 2 * n_edges + 1
    assert len(pres.relations) == 2 * n_tree + n_edges + 2 * n_tri + 1 + 2 * n_edges


def test_extension_split_and_twisted():
    t = full_triangle()
    tree = spanning_tree(t, 0)
    split = extension_from_cocycle(t, tree, zero_cochain(t, 2))
    assert all(
        not (len(r) == 4 and any(s == "tau" for s, _ in r) and len({s for s, _ in r}) == 4)
        for r in split.relations
    )
    phi = cochain_from_support(t, 2, [(0, 1, 2)])
    twisted = extension_from_cocycle(t, tree, phi)
    toggled = [
        r for r in twisted.relations if len(r) == 4 and r[3][0] == "tau" and r[0][0] != "tau"
    ]
    assert len(toggled) == 2  # both orientations of the single triangle


def test_adjust_section():
    x = boundary_of_simplex(3)
    phi = cochain_from_support(x, 2, [(0, 1, 2), (0, 1, 3)])
    assert adjust_section(phi, zero_cochain(x, 1)) == phi
    edge = cochain_from_support(x, 1, [(0, 1)])
    shifted = adjust_section(phi, edge)
    for tri in x.cells(2):
        expect = phi(tri) ^ (1 if {0, 1} <= set(tri) else 0)
        assert shifted(tri) == expect
    b2 = coboundary_space(x, 2)
    assert distance_to_subspace(shifted ^ phi, b2).value == 0


# -- trees on covers ---------------------------------------------------------------


def test_cover_tree_trivial_fiber():
    x = boundary_of_simplex(3)
    tree = spanning_tree(x, 0)
    cov = build_cover(x, trivial_action(x, 1))
    v0 = cov.vertex_id[(0, 0)]
    lifted = cover_tree(cov, tree, v0)
    assert {cov.project_cell(e) for e in lifted.tree_edges} == tree.tree_edges
    assert len(lifted.tree_edges) == len(tree.tree_edges)


def test_cover_tree_disconnected_cover():
    x = boundary_of_simplex(3)
    tree = spanning_tree(x, 0)
    cov = build_cover(x, trivial_action(x, 2))
    v0 = cov.vertex_id[(0, 0)]
    lifted = cover_tree(cov, tree, v0)
    assert len(lifted.parent) == x.n_cells(0)  # only this sheet
    assert all(a in lifted.parent and b in lifted.parent for a, b in lifted.tree_edges)
    assert len(lifted.tree_edges) == len(lifted.parent) - 1


def test_cover_tree_hexagon():
    x, action = hexagon_cover_action()
    tree = spanning_tree(x, 0)
    cov = build_cover(x, action)
    v0 = cov.vertex_id[(0, 0)]
    lifted = cover_tree(cov, tree, v0)
    assert len(lifted.tree_edges) == 5  # spanning tree of the hexagon
    forest = {e for e in cov.total.cells(1) if cov.project_cell(e) in tree.tree_edges}
    assert forest <= set(lifted.tree_edges)
    assert len(forest) == 4  # two lifts of each of the two tree edges


def test_cover_tree_keeps_every_lift_of_the_base_tree():
    from permstab.experiments import ExperimentConfig, build_instance

    for fiber in (3, 6, 12):
        for seed in range(10):
            x, _phi, _raw, f = build_instance(ExperimentConfig(seed=seed, epsilon=Fraction(0), fiber=fiber))
            cov = build_cover(x, f)
            for root in x.vertices:
                tree = spanning_tree(x, root)
                v0 = cov.vertex_id[(root, 0)]
                lifted = cover_tree(cov, tree, v0)
                comp = lifted.component
                assert lifted.root == v0
                assert all(tuple(sorted((w, p))) in lifted.tree_edges for w, p in lifted.parent.items() if w != v0)
                assert comp == spanning_tree(cov.total, v0).component
                assert len(lifted.tree_edges) == len(comp) - 1
                lifts = {e for e in cov.total.cells(1) if e[0] in comp and cov.project_cell(e) in tree.tree_edges}
                assert lifts <= lifted.tree_edges


def test_double_cover_of_projective_plane():
    # the nontrivial mod-2 class lifts the projective plane to the sphere
    from permstab.cohomology import cocycle_space, coboundary_space
    from permstab.complexes import projective_plane_six

    x = projective_plane_six()
    tree = spanning_tree(x, 0)
    z1, b1 = cocycle_space(x, 1), coboundary_space(x, 1)
    rep = next(z.bits for z in z1.elements() if z.bits and not b1.contains(z))
    # shift by a vertex potential so the class representative vanishes on the tree
    c = {e: (rep >> i) & 1 for i, e in enumerate(x.cells(1))}
    pot = {}
    for v in tree.parent:
        path = tree.path_to_root(v)
        pot[v] = sum(c[tuple(sorted((a, b)))] for a, b in zip(path, path[1:])) % 2
    c = {e: (c[e] + pot[e[0]] + pot[e[1]]) % 2 for e in x.cells(1)}
    assert all(c[e] == 0 for e in tree.tree_edges) and any(c.values())

    pres = fundamental_group_presentation(x, tree)
    swap = ErrPerm.from_cycle((0, 1), 2)
    ident = ErrPerm.identity(2)
    images = {}
    for (a, b) in x.cells(1):
        perm = swap if c[(a, b)] else ident
        images[edge_gen(a, b)] = perm
        images[edge_gen(b, a)] = perm
    action = AlmostAction(pres, 2, images)
    assert defect(action) == 0
    cov = build_cover(x, action)
    y = cov.total
    assert len(connected_components(y)) == 1
    euler = y.n_cells(0) - y.n_cells(1) + y.n_cells(2)
    assert euler == 2  # the orientation double cover is the sphere
    # pulled-back cochains stay well-defined on the cover
    phi = cochain_from_support(x, 2, [x.cells(2)[0]])
    lifted = pull_back_cocycle(phi, cov)
    assert weighted_norm(lifted) == weighted_norm(phi)


def hand_built_triangle_cover(cells):
    """Covering of the triangle (0,1,2) with m=2; vertex (v, a|b) has id 2v+0|1."""
    base = full_triangle()
    pair = {2 * v + s: (v, s) for v in range(3) for s in range(2)}
    total = SimplicialComplex.from_cells(cells)
    return Covering(base, total, 2, None, pair, {p: vid for vid, p in pair.items()})


def test_verify_cover_rejects_star_that_projects_twice():
    # (0a,1a,2a), (0b,1a,2b) and the isolated vertex 1b: every dimension count
    # matches, but the star of 1a covers the edge 01 twice
    cov = hand_built_triangle_cover([(0, 2, 4), (1, 2, 5), (3,)])
    for k in range(3):
        assert cov.total.n_cells(k) == 2 * cov.base.n_cells(k)
    with pytest.raises(PermstabError, match="projection is not a bijection on a vertex star"):
        _verify_cover(cov)


def test_verify_cover_rejects_count_mismatch():
    cov = hand_built_triangle_cover([(0, 2, 4), (1,), (3,), (5,)])
    with pytest.raises(PermstabError, match="fiberwise lift failed in dimension 1"):
        _verify_cover(cov)
    good = hand_built_triangle_cover([(0, 2, 4), (1, 3, 5)])
    _verify_cover(good)
