import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from permstab.complexes import (
    SimplicialComplex,
    annulus,
    boundary_of_simplex,
    face_weight,
    full_triangle,
    hollow_polygon,
)
from permstab.errors import PermstabError
from permstab.rng import SplitMix64
from permstab.symcochains import (
    Cycle,
    PartialInj,
    SamplerGraph,
    SymCochain,
    _index_violation_count,
    count_joint_violations,
    cycle_domain,
    enumerate_steps,
    eta_local_minimality_check,
    eta_minimality_check,
    evaluate_cycle,
    global_deletion,
    good_function_check,
    identity_cochain,
    is_contractible,
    localize,
    relation_step,
    sampler_check,
    single_edge_correction,
    sym_delta_weight,
    sym_distance,
    triangle_composite,
    twist,
    vertex_coboundary,
    vertex_link_correction,
    weight,
)


def transposition(n, a, b):
    imgs = list(range(n))
    imgs[a], imgs[b] = imgs[b], imgs[a]
    return PartialInj(n, tuple(imgs))


def cochain_with(x, n, overrides):
    values = {c: PartialInj.identity(n) for c in x.cells(1)}
    values.update({tuple(sorted(c)): v for c, v in overrides.items()})
    return SymCochain(x, 1, n, values)


def random_total_cochain(x, n, rng):
    values = {}
    for cell in x.cells(1):
        values[cell] = PartialInj.from_perm(rng.permutation(n))
    return SymCochain(x, 1, n, values)


# -- partial injections ---------------------------------------------------------


def test_partial_inj_basics():
    p = PartialInj(3, (1, None, 2))
    assert p.apply(0) == 1 and p.apply(1) is None
    assert p.inverse().apply(1) == 0 and p.inverse().apply(0) is None
    q = p.compose(p.inverse())
    assert q.apply(1) == 1 and q.apply(0) is None
    with pytest.raises(PermstabError):
        PartialInj(3, (1, 1, None))
    assert p.drop_index_symmetric(2).images == (1, None, None)
    assert p.completed().is_total


def test_orientation_carries_inverse():
    x = full_triangle()
    tau = transposition(3, 0, 1)
    f = cochain_with(x, 3, {(0, 1): PartialInj(3, (1, 2, 0))})
    assert f.value_on((0, 1)).images == (1, 2, 0)
    assert f.value_on((1, 0)).images == (2, 0, 1)
    g = SymCochain(x, 2, 3, {(0, 1, 2): tau})
    assert g.value_on((0, 2, 1)) == tau.inverse()
    assert g.value_on((1, 2, 0)) == tau  # even permutation of the orientation


def test_value_on_a_cell_outside_the_complex_is_refused():
    f = identity_cochain(annulus(), 1, 3)
    for oriented in ((0, 5), (5, 0), (0,), (0, 1, 2)):
        with pytest.raises(PermstabError, match="^" + re.escape(f"{oriented!r} is not a 1-cell of the complex") + "$"):
            f.value_on(oriented)
    with pytest.raises(PermstabError, match="^repeated vertices"):
        f.value_on((1, 1))


def test_values_are_frozen_after_validation():
    x = full_triangle()
    given = {c: PartialInj.identity(2) for c in x.cells(1)}
    f = SymCochain(x, 1, 2, given)
    with pytest.raises(TypeError):
        f.values[(5, 6)] = PartialInj.identity(2)
    with pytest.raises(TypeError):
        del f.values[(0, 1)]
    # the caller's mapping stays the caller's: a later edit does not reach the cochain
    given[(5, 6)] = PartialInj.identity(2)
    given[(0, 1)] = PartialInj(2, (1, 0))
    assert set(f.values) == set(x.cells(1)) and f.value_on((0, 1)) == PartialInj.identity(2)
    assert f == identity_cochain(x, 1, 2) and f.with_value((0, 1), given[(0, 1)]) != f


# -- distance ---------------------------------------------------------------------


def test_sym_distance_examples():
    x = full_triangle()
    f = identity_cochain(x, 1, 3)
    assert sym_distance(f, f) == 0
    assert weight(f) == 0
    g2 = identity_cochain(x, 1, 2)
    g3 = identity_cochain(x, 1, 3)
    assert sym_distance(g2, g3) == Fraction(1, 3)


def test_sym_distance_undefined_counting():
    x = full_triangle()
    f = identity_cochain(x, 1, 2)
    undef = cochain_with(x, 2, {(0, 1): PartialInj(2, (None, 1))})
    # one mismatching (edge, index) pair out of weighted mass
    assert sym_distance(f, undef) == Fraction(1, 3) * Fraction(1, 2)
    both = cochain_with(x, 2, {(0, 1): PartialInj(2, (None, 1))})
    assert sym_distance(undef, both) == 0  # undefined agrees with undefined


def test_sym_distance_pseudometric():
    rng = SplitMix64(900)
    x = boundary_of_simplex(3)
    for _ in range(500):
        f = random_total_cochain(x, 3, rng)
        g = random_total_cochain(x, 3, rng)
        h = random_total_cochain(x, 3, rng)
        assert sym_distance(f, g) == sym_distance(g, f)
        assert sym_distance(f, h) <= sym_distance(f, g) + sym_distance(g, h)


# -- triangle statistics ------------------------------------------------------------


def test_delta_weight_identity():
    x = boundary_of_simplex(3)
    assert sym_delta_weight(identity_cochain(x, 1, 4)) == (0, 0)


def test_delta_weight_one_transposed_index():
    x = full_triangle()
    f = cochain_with(x, 4, {(0, 1): transposition(4, 0, 1)})
    plain, robust = sym_delta_weight(f)
    assert plain == 1 and robust == Fraction(1, 2)


def test_delta_weight_undefined_flag():
    x = full_triangle()
    none_val = PartialInj(3, (None, None, None))
    f = SymCochain(x, 1, 3, {c: none_val for c in x.cells(1)})
    assert sym_delta_weight(f, strict=False) == (0, 0)
    plain, robust = sym_delta_weight(f, strict=True)
    assert plain == 1 and robust == 1


def test_vertex_coboundary_is_cocycle():
    rng = SplitMix64(901)
    x = boundary_of_simplex(3)
    g = {v: PartialInj.from_perm(rng.permutation(4)) for v in x.vertices}
    f = vertex_coboundary(x, g)
    for (u, v), val in f.values.items():  # u -> v is g(v)^-1 after g(u)
        assert val.images == tuple(g[v].images.index(g[u].images[j]) for j in range(4))
    assert sym_delta_weight(f) == (0, 0)
    assert count_joint_violations(f) == 0


def test_gauge_shift_needs_a_value_at_every_vertex():
    x = full_triangle()
    with pytest.raises(PermstabError, match="^no value at vertex 0$"):
        vertex_coboundary(x, {})
    h = {0: PartialInj.identity(2), 2: PartialInj.identity(2)}
    with pytest.raises(PermstabError, match="^no value at vertex 1$"):
        twist(identity_cochain(x, 1, 2), h)
    with pytest.raises(PermstabError, match="^no value at vertex 1$"):
        vertex_coboundary(x, h)


# -- minimality ----------------------------------------------------------------------


def test_eta_minimality_identity_clean():
    x = full_triangle()
    verdict = eta_minimality_check(identity_cochain(x, 1, 2), eta=10)
    assert not verdict.violated and verdict.exhaustive


def test_eta_minimality_finds_gauge_witness():
    x = full_triangle()
    rng = SplitMix64(902)
    h0 = {v: transposition(2, 0, 1) for v in x.vertices}
    h0[0] = PartialInj.identity(2)
    f = twist(identity_cochain(x, 1, 2), h0)
    assert weight(f) > 0
    verdict = eta_minimality_check(f, eta=100)
    assert verdict.violated and verdict.exhaustive
    g = twist(f, verdict.witness)
    assert 100 * (weight(f) - weight(g)) > sym_distance(f, g)


def test_eta_minimality_wrong_degree():
    x = full_triangle()
    f0 = SymCochain(x, 0, 2, {c: PartialInj.identity(2) for c in x.cells(0)})
    with pytest.raises(PermstabError):
        eta_minimality_check(f0, eta=1)


# -- localization --------------------------------------------------------------------


def test_localize_degree1_at_vertex():
    x = full_triangle()
    f = cochain_with(x, 3, {(0, 1): PartialInj(3, (1, 2, 0)), (0, 2): transposition(3, 0, 2)})
    f0 = localize(f, (0,))
    assert f0.degree == 0
    assert f0.values[(1,)] == f.value_on((0, 1))
    assert f0.values[(2,)] == f.value_on((0, 2))


def test_localize_degree2_at_edge():
    x = boundary_of_simplex(3)
    vals = {c: transposition(2, 0, 1) for c in x.cells(2)}
    f = SymCochain(x, 2, 2, vals)
    fe = localize(f, (0, 1))
    assert fe.degree == 0
    assert set(fe.complex.cells(0)) == {(2,), (3,)}
    assert fe.values[(2,)] == f.value_on((0, 1, 2))


def test_localize_degree_check_and_local_minimality():
    x = boundary_of_simplex(3)
    f = SymCochain(x, 2, 2, {c: PartialInj.identity(2) for c in x.cells(2)})
    with pytest.raises(PermstabError):
        localize(f, (0, 1, 2))
    results = eta_local_minimality_check(f, eta=5, random_trials=2)
    assert results  # vertex localizations are edge cochains on the link circle
    assert all(not v.violated for v in results.values())


# -- single edge correction ------------------------------------------------------------


def test_edge_correction_unanimous_vote():
    x = SimplicialComplex.build_from_top_faces([(0, 1, 2), (0, 1, 3)])
    f = cochain_with(x, 3, {(0, 1): transposition(3, 0, 1)})
    out = single_edge_correction(f, 0, 1, Fraction(3, 4))
    assert out.value_on((0, 1)) == PartialInj.identity(3)


def test_edge_correction_split_three_ways_deletes():
    x = SimplicialComplex.build_from_top_faces([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    f = cochain_with(
        x,
        3,
        {
            (1, 2): PartialInj.identity(3),
            (1, 3): transposition(3, 0, 1),
            (1, 4): transposition(3, 0, 2),
        },
    )
    # votes for index 0: w=2 says 0, w=3 says 1, w=4 says 2
    out = single_edge_correction(f, 0, 1, Fraction(3, 5))
    assert out.value_on((0, 1)).apply(0) is None


def test_edge_correction_even_split_unchanged():
    x = SimplicialComplex.build_from_top_faces([(0, 1, 2), (0, 1, 3)])
    f = cochain_with(x, 3, {(1, 3): transposition(3, 0, 1)})
    out = single_edge_correction(f, 0, 1, Fraction(3, 4))
    assert out.value_on((0, 1)) == f.value_on((0, 1))


def test_edge_correction_only_touches_the_edge():
    x = SimplicialComplex.build_from_top_faces([(0, 1, 2), (0, 1, 3)])
    rng = SplitMix64(903)
    f = random_total_cochain(x, 4, rng)
    out = single_edge_correction(f, 0, 1, Fraction(2, 3))
    for cell in x.cells(1):
        if cell != (0, 1):
            assert out.values[cell] == f.values[cell]


def test_edge_correction_never_increases_incident_violations():
    rng = SplitMix64(904)
    for trial in range(30):
        x = SimplicialComplex.build_from_top_faces([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        f = random_total_cochain(x, 3, rng)
        out = single_edge_correction(f, 0, 1, Fraction(2, 3))
        deleted = any(
            out.value_on((0, 1)).apply(i) is None and f.value_on((0, 1)).apply(i) is not None
            for i in range(3)
        )
        if deleted:
            continue

        def incident_violations(c):
            return sum(
                1
                for tri in x.cells(2)
                for i in range(3)
                if {0, 1} <= set(tri)
                and (v := triangle_composite(c, tri).apply(i)) is not None
                and v != i
            )

        assert incident_violations(out) <= incident_violations(f)


def test_edge_correction_requires_majority_threshold():
    x = full_triangle()
    f = identity_cochain(x, 1, 2)
    with pytest.raises(PermstabError):
        single_edge_correction(f, 0, 1, Fraction(1, 2))


def test_edge_correction_empty_link_warns():
    x = SimplicialComplex.build_from_top_faces([(0, 1)])
    f = identity_cochain(x, 1, 2)
    with pytest.warns(UserWarning):
        out = single_edge_correction(f, 0, 1, Fraction(3, 4))
    assert out == f


# -- vertex link correction --------------------------------------------------------------


def wheel_complex():
    return SimplicialComplex.build_from_top_faces([(0, 1, 2), (0, 1, 3), (0, 2, 3)])


# -- triangle statistics against their definitions ------------------------------


PURE_SURFACES = [
    full_triangle(),
    boundary_of_simplex(3),
    wheel_complex(),
    SimplicialComplex.build_from_top_faces([(0, 1, 2), (2, 3, 4)]),
    annulus(),
]


def partial_cochain(draw, x, degree: int) -> SymCochain:
    """A cochain of random partial injections on 1-4 indices."""
    n = draw(st.integers(1, 4))
    values = {}
    for cell in x.cells(degree):
        perm = draw(st.permutations(range(n)))
        kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        values[cell] = PartialInj(n, tuple(p if k else None for p, k in zip(perm, kept)))
    return SymCochain(x, degree, n, values)


@st.composite
def partial_cochains(draw):
    """A pure 2-complex, an edge cochain of random partial injections, and oriented triangles."""
    x = draw(st.sampled_from(PURE_SURFACES))
    f = partial_cochain(draw, x, 1)
    tris = [tuple(draw(st.permutations(t))) for t in x.cells(2)]
    return f, tris


@settings(max_examples=200, deadline=None)
@given(case=partial_cochains())
def test_triangle_statistics_match_their_definitions(case):
    f, tris = case
    x = f.complex
    maps = oracles.edge_maps(f)
    for tri in tris:
        assert triangle_composite(f, tri).images == oracles.walk(maps, tri + tri[:1], f.n)
    for i in range(f.n):
        want = sum(i in oracles.moved(oracles.walk(maps, tri + tri[:1], f.n)) for tri in tris)
        assert _index_violation_count(f, tris, i) == want
    joint = 0
    for strict in (False, True):
        plain = robust = Fraction(0)
        for u, v, w in x.cells(2):
            images = oracles.walk(maps, (u, v, w, u), f.n)
            bad = len(oracles.moved(images)) + (images.count(None) if strict else 0)
            plain += face_weight(x, (u, v, w)) if bad else 0
            robust += face_weight(x, (u, v, w)) * Fraction(bad, f.n)
            if not strict:
                joint += len(set(oracles.moved(images) + oracles.moved(oracles.walk(maps, (u, w, v, u), f.n))))
        assert sym_delta_weight(f, strict=strict) == (plain, robust)
    assert count_joint_violations(f) == joint


def test_vertex_correction_fixed_point():
    x = wheel_complex()
    f = identity_cochain(x, 1, 3)
    out = vertex_link_correction(f, 0, Fraction(1, 2), Fraction(1, 2))
    assert out == f


def test_vertex_correction_repairs_single_bad_edge():
    x = wheel_complex()
    f = cochain_with(x, 3, {(0, 1): transposition(3, 0, 1)})
    out = vertex_link_correction(f, 0, Fraction(1, 2), Fraction(9, 10))
    assert sym_delta_weight(out) == (0, 0)


def test_vertex_correction_eta2_deletion():
    x = wheel_complex()
    tau = transposition(3, 0, 1)
    # all three link edges disagree: no vertex assignment can fit them,
    # so the everywhere-violated index is dropped at the spoke edges
    f = cochain_with(x, 3, {(1, 2): tau, (1, 3): tau, (2, 3): tau})
    out = vertex_link_correction(f, 0, Fraction(9, 10), Fraction(1, 2))
    for u in (1, 2, 3):
        assert out.value_on((u, 0)).apply(0) is None
        assert out.value_on((u, 0)).apply(2) == 2
    # edges inside the link are untouched, and no countable violation remains at v
    assert out.values[(1, 2)] == f.values[(1, 2)]
    tris = [t for t in x.cells(2) if 0 in t]
    for tri in tris:
        for i in range(3):
            val = triangle_composite(out, tri).apply(i)
            assert val is None or val == i


# -- the distance against its definition -----------------------------------------------


@st.composite
def cochain_pairs(draw):
    """Two cochains of one degree on one pure surface, with partial values and index sets drawn apart."""
    x = draw(st.sampled_from(PURE_SURFACES))
    degree = draw(st.integers(0, 2))
    return partial_cochain(draw, x, degree), partial_cochain(draw, x, degree)


@settings(max_examples=300, deadline=None)
@given(pair=cochain_pairs())
def test_sym_distance_matches_the_definition(pair):
    f, g = pair
    assert sym_distance(f, g) == oracles.sym_distance(f, g)
    assert weight(f) == oracles.sym_distance(f, identity_cochain(f.complex, f.degree, f.n))


# -- global deletion ------------------------------------------------------------------------


def test_global_deletion_clean_input():
    x = boundary_of_simplex(3)
    f = identity_cochain(x, 1, 4)
    out, report = global_deletion(f)
    assert out == f and report.deleted == frozenset() and report.eps_hat == 0


def test_global_deletion_single_bad_edge():
    x = SimplicialComplex.build_from_top_faces([(0, 1, 2), (0, 1, 3)])
    f = cochain_with(x, 4, {(1, 2): transposition(4, 2, 3)})
    out, report = global_deletion(f)
    assert report.deleted == frozenset({2, 3})
    for cell in x.cells(1):
        assert out.values[cell].apply(2) is None
        assert out.values[cell].apply(3) is None
        assert 2 not in [out.values[cell].apply(i) for i in range(4)]
    assert count_joint_violations(out) == 0


def noisy_coboundary(x, n, rng, flips=2):
    g = {v: PartialInj.from_perm(rng.permutation(n)) for v in x.vertices}
    f = vertex_coboundary(x, g)
    edges = list(x.cells(1))
    for _ in range(flips):
        e = edges[rng.below(len(edges))]
        a, b = rng.below(n), rng.below(n)
        if a != b:
            f = f.with_value(e, f.values[e].compose(transposition(n, a, b)))
    return f


def test_global_deletion_randomized_markov_bound():
    rng = SplitMix64(905)
    from test_complexes import random_pure_complex

    deleted_somewhere = False
    for trial in range(50):
        x = random_pure_complex(rng, n_vertices=6, n_faces=4 + rng.below(4))
        n = 3 + rng.below(6)
        f = noisy_coboundary(x, n, rng)
        out, report = global_deletion(f)
        assert count_joint_violations(out) == 0
        assert len(report.deleted) <= report.count_bound
        assert report.eps_hat * n * x.n_cells(2) == report.violating_pairs
        deleted_somewhere = deleted_somewhere or report.deleted
    assert deleted_somewhere


# -- cycles ------------------------------------------------------------------------------


def test_cycle_validation():
    x = full_triangle()
    Cycle(x, (0, 1, 2, 0))
    Cycle.trivial(x, 1)
    with pytest.raises(PermstabError):
        Cycle(x, (0, 1, 2))  # does not close up
    with pytest.raises(PermstabError):
        Cycle(x, (0, 0))


def test_evaluate_cycle_examples():
    x = full_triangle()
    f = identity_cochain(x, 1, 3)
    assert evaluate_cycle(f, Cycle(x, (0, 1, 0))) == PartialInj.identity(3)
    assert evaluate_cycle(f, Cycle(x, (0, 1, 2, 0))) == PartialInj.identity(3)
    assert evaluate_cycle(f, Cycle.trivial(x, 0)) == PartialInj.identity(3)


def test_cycle_domain_intersection():
    x = full_triangle()
    v01 = PartialInj(3, (None, 1, 2))
    v12 = PartialInj(3, (0, None, 2))
    f = cochain_with(x, 3, {(0, 1): v01, (1, 2): v12})
    c = Cycle(x, (0, 1, 2, 0))
    assert cycle_domain(f, c) == frozenset({2})
    # the composite can be defined beyond the edge-wise domain when the
    # chained image dodges the undefined point
    g = cochain_with(
        x, 3, {(0, 1): transposition(3, 0, 1), (1, 2): PartialInj(3, (0, None, 2))}
    )
    assert 1 not in cycle_domain(g, c)
    assert evaluate_cycle(g, c).apply(1) is not None


def test_evaluate_concatenation():
    x = boundary_of_simplex(3)
    rng = SplitMix64(906)
    f = random_total_cochain(x, 4, rng)
    c1 = Cycle(x, (0, 1, 2, 0))
    c2 = Cycle(x, (0, 2, 3, 0))
    joined = Cycle(x, c1.verts[:-1] + c2.verts)
    assert evaluate_cycle(f, joined) == evaluate_cycle(f, c2).compose(evaluate_cycle(f, c1))


def test_relation_steps():
    x = full_triangle()
    c = Cycle(x, (0, 1, 0))
    assert relation_step(x, c, "EC", 0, (0, 1)).verts == (0,)
    c2 = relation_step(x, Cycle(x, (0, 1, 0)), "TE", 0, (0, 1, 2))
    assert c2.verts == (0, 2, 1, 0)
    back = relation_step(x, c2, "TC", 0, (0, 1, 2))
    assert back.verts == (0, 1, 0)
    grown = relation_step(x, Cycle.trivial(x, 0), "EE", 0, (0, 2))
    assert grown.verts == (0, 2, 0)
    with pytest.raises(PermstabError):
        relation_step(x, c, "TC", 0, (0, 1, 2))
    with pytest.raises(PermstabError):
        relation_step(x, c, "EC", 0, (0, 2))


def test_te_tc_inverse_pair_everywhere():
    x = boundary_of_simplex(3)
    c = Cycle(x, (0, 1, 2, 0))
    for kind, p, cell, nxt in enumerate_steps(x, c, max_len=6):
        if kind == "TE":
            undone = relation_step(x, nxt, "TC", p, cell)
            assert undone.verts == c.verts


def test_contractibility_triangle_and_trivial():
    x = full_triangle()
    verdict = is_contractible(x, Cycle(x, (0, 1, 2, 0)), max_len=4)
    assert verdict.found and len(verdict.sequence) <= 3
    assert is_contractible(x, Cycle.trivial(x, 0), max_len=2).found


def test_hexagon_not_contracted_within_budget():
    x = hollow_polygon(6)
    hexagon = Cycle(x, (0, 1, 2, 3, 4, 5, 0))
    verdict = is_contractible(x, hexagon, max_len=12)
    assert not verdict.found
    assert not verdict.budget_exhausted  # the bounded space was explored completely


# -- good function checks ---------------------------------------------------------------


def test_good_function_identity():
    x = boundary_of_simplex(3)
    f = identity_cochain(x, 1, 3)
    report = good_function_check(f, max_len=6, max_steps=4000)
    assert report.ok and not report.step_violations and report.ee_gaps == 0


def test_good_function_detects_holonomy():
    x = hollow_polygon(3)  # no triangles: the boundary cycle is not contractible
    f = cochain_with(x, 2, {(0, 1): transposition(2, 0, 1)})
    report = good_function_check(f, max_len=6, max_steps=4000)
    # only EE/EC steps exist; backtracking kills any holonomy, so this stays ok
    assert report.ok


def test_good_function_post_deletion_steps_preserved():
    rng = SplitMix64(907)
    from test_complexes import random_pure_complex

    for trial in range(10):
        x = random_pure_complex(rng, n_vertices=6, n_faces=5)
        f = noisy_coboundary(x, 4, rng)
        cleaned, _ = global_deletion(f)
        report = good_function_check(cleaned, max_len=6, max_steps=3000)
        assert report.step_violations == ()
        assert report.ok


def test_good_function_flags_planted_violation():
    # an uncorrected transposition on a triangle edge moves an index around
    # the contractible boundary cycle
    x = full_triangle()
    f = cochain_with(x, 2, {(0, 1): transposition(2, 0, 1)})
    report = good_function_check(f, max_len=4, max_steps=2000)
    assert not report.ok
    cyc, j = report.counterexample
    val = evaluate_cycle(f, cyc).apply(j)
    assert val is not None and val != j


def test_good_function_ignores_moves_outside_the_edgewise_domain():
    # around 0 -> 1 -> 2 -> 0 the composite sends 0 to 1, but no index is
    # defined on all three edges, so this is no counterexample
    x = full_triangle()
    f = SymCochain(x, 1, 2, {(0, 1): PartialInj(2, (1, None)), (1, 2): PartialInj(2, (None, 0)), (0, 2): PartialInj(2, (None, 0))})
    loop = Cycle(x, (0, 1, 2, 0))
    assert evaluate_cycle(f, loop).images == (1, None) and cycle_domain(f, loop) == frozenset()
    report = good_function_check(f, max_len=3)
    assert report.ok and report.counterexample is None and report.cycles_enumerated == 15


# -- samplers -----------------------------------------------------------------------------


def complete_bipartite(n, n_right):
    return SamplerGraph(n, tuple(tuple(range(n)) for _ in range(n_right)))


def test_sampler_complete_bipartite_passes():
    g = complete_bipartite(5, 4)
    for alpha, beta in [(Fraction(1, 100), 0), (Fraction(1, 10), 1), (Fraction(1, 2), 5)]:
        assert sampler_check(g, alpha, beta).passed


def test_sampler_single_right_vertex_counterexample():
    g = SamplerGraph(4, ((0,),))
    bad = sampler_check(g, Fraction(1, 10), 3)
    assert not bad.passed and bad.failing_set == frozenset({0})
    assert sampler_check(g, Fraction(1, 10), 4).passed


def test_sampler_exhaustive_small():
    g = SamplerGraph(3, ((0, 1), (1, 2), (0, 2)))
    verdict = sampler_check(g, Fraction(1, 6), Fraction(1, 2))
    assert verdict.exhaustive
    if not verdict.passed:
        a = verdict.failing_set
        k = len(a)
        bad = sum(
            1
            for ns in g.neighbors
            if Fraction(len(a & set(ns)), 2) > Fraction(k, 3) + Fraction(1, 6)
        )
        assert Fraction(bad, 3) > Fraction(1, 2) * Fraction(k, 3)


def test_sampler_rejects_irregular():
    with pytest.raises(PermstabError):
        SamplerGraph(3, ((0,), (0, 1)))
