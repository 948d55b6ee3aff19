"""Differential tests of the cover build and the cover walkers against naive oracles.

The oracle lifts every base cell one fiber point at a time through
``vertex_id`` and closes the family with ``SimplicialComplex.from_cells``;
the naive walkers project one cover cell at a time.  The pool is acceptance
criterion 7's (annulus, boundary of the 3-simplex, a hollow hexagon, the
triangle, random pure complexes) plus a complex with gapped vertex labels,
at fibers 1-5.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from permstab import covers
from permstab.actions import AlmostAction, normalize_sofic_approx
from permstab.cohomology import F2Cochain, coboundary
from permstab.complexes import (
    Presentation,
    SimplicialComplex,
    annulus,
    boundary_of_simplex,
    edge_gen,
    full_triangle,
    hollow_polygon,
)
from permstab.covers import (
    _cover_triangles,
    build_cover,
    contradiction_experiment,
    first_type_triangle_check,
    pull_back_cocycle,
    zeta_cochain,
)
from permstab.errors import BoundViolation, PermstabError
from permstab.experiments import ExperimentConfig, build_instance
from permstab.perms import ERROR, ErrPerm, sign_flip
from permstab.rng import SplitMix64

from test_complexes import random_pure_complex
from test_covers import random_exact_action


def cover_pool():
    rng = SplitMix64(10_007)
    return [
        annulus(),
        boundary_of_simplex(3),
        hollow_polygon(6),
        full_triangle(),
        SimplicialComplex.from_cells([(0, 2, 5)]),
        SimplicialComplex.from_cells([(0, 2, 5), (2, 5, 7), (0, 7), (9,)]),
    ] + [random_pure_complex(rng, n_vertices=5 + rng.below(4), n_faces=4) for _ in range(6)]


POOL = cover_pool()


# -- naive oracles -----------------------------------------------------------------


def naive_cover(x, action):
    """(total, vertex_id, vertex_pair): every cell lifted point by point, then closed."""
    m = action.space
    vertex_id = {(v, s): i * m + s for i, v in enumerate(x.vertices) for s in range(m)}
    vertex_pair = {vid: pair for pair, vid in vertex_id.items()}
    cells = [(vid,) for vid in vertex_pair]
    for k in range(1, x.dim + 1):
        for cell in x.cells(k):
            for s in range(m):
                lift = [vertex_id[(cell[0], s)]]
                for xi in cell[1:]:
                    lift.append(vertex_id[(xi, action.image(edge_gen(xi, cell[0])).apply(s))])
                cells.append(lift)
    return SimplicialComplex.from_cells(cells), vertex_id, vertex_pair


def project(cov, cell):
    return tuple(sorted(cov.vertex_pair[v][0] for v in cell))


def naive_pull_back(phi, cov):
    y = cov.total
    bits = sum(1 << j for j, cell in enumerate(y.cells(phi.degree)) if phi(project(cov, cell)))
    return F2Cochain(y, phi.degree, bits)


def naive_zeta(psi, cov):
    n = psi.space // 2
    y = cov.total
    bits = 0
    types = {}
    for j, (va, vb) in enumerate(y.cells(1)):
        (xa, sa), (xb, sb) = sorted((cov.vertex_pair[va], cov.vertex_pair[vb]))
        kind = "second"
        if sb < n:
            img = psi.image(edge_gen(xa, xb)).apply(2 * sb)
            if img >> 1 == sa:
                kind = "first"
                bits |= (img & 1) << j
        types[(va, vb)] = kind
    return F2Cochain(y, 1, bits), types


def naive_triangles(psi, phi, cov, types):
    n = psi.space // 2
    out = []
    for j, cell in enumerate(cov.total.cells(2)):
        va, vb, vc = sorted(cell, key=lambda v: cov.vertex_pair[v][0])
        edges = [tuple(sorted(e)) for e in ((va, vb), (vb, vc), (va, vc))]
        second = any(types[e] != "first" for e in edges)
        (xx, sx), (yy, _), (zz, _) = (cov.vertex_pair[v] for v in (va, vb, vc))
        word = ((edge_gen(xx, yy), 1), (edge_gen(yy, zz), 1), (edge_gen(zz, xx), 1))
        image = oracles.points(oracles.evaluate_word(psi, word)).get(2 * sx, ERROR)
        tracked = sx < n and image == 2 * sx + phi((xx, yy, zz))
        out.append((j, cell, second, tracked))
    return out


def naive_first_type_check(psi, phi, cov, zeta, types):
    diff = naive_pull_back(phi, cov) ^ coboundary(zeta)
    rows = [(j, cell) for j, cell, second, tracked in naive_triangles(psi, phi, cov, types)
            if tracked and not second]
    return len(rows), [cell for j, cell in rows if diff.bits >> j & 1]


# -- seeded inputs -------------------------------------------------------------------


def random_signed_psi(x, f, n, rng):
    """A sign-commuting action on the signed double of range(n), edge by edge.

    Its unsigned shadow follows f wherever f stays inside range(n), then two
    targets may swap; a shadow fixed point may drop out of the domain, so
    some images are partial.
    """
    images = {"tau": sign_flip(n)}
    pairs = []
    for (a, b) in x.cells(1):
        g = f.image(edge_gen(a, b))
        target = {s: g.apply(s) for s in range(n) if g.apply(s) < n}
        free = [t for t in range(n) if t not in target.values()]
        rng.shuffle(free)
        target.update(zip((s for s in range(n) if s not in target), free))
        if n >= 2 and rng.random() < 0.5:
            s, u = rng.sample(range(n), 2)
            target[s], target[u] = target[u], target[s]
        table = {}
        for s in range(n):
            if target[s] == s and rng.random() < 0.2:
                continue
            sign = rng.randrange(2)
            table[2 * s] = 2 * target[s] + sign
            table[2 * s + 1] = 2 * target[s] + (sign ^ 1)
        perm = ErrPerm.from_mapping(table, 2 * n)
        images[edge_gen(a, b)], images[edge_gen(b, a)] = perm, perm.inverse()
        pairs.append((edge_gen(a, b), edge_gen(b, a)))
    return AlmostAction(Presentation(tuple(images), (), tuple(pairs)), 2 * n, images)


def random_cocycle(x, k, rng):
    if k == x.dim:
        return F2Cochain(x, k, rng.getrandbits(x.n_cells(k)))
    if k == 0:
        return F2Cochain(x, 0, rng.randrange(2) * ((1 << x.n_cells(0)) - 1))
    return coboundary(F2Cochain(x, k - 1, rng.getrandbits(x.n_cells(k - 1))))


def check_against_oracle(x, m, seed):
    action = random_exact_action(x, seed, m)
    cov = build_cover(x, action)
    total, vertex_id, vertex_pair = naive_cover(x, action)
    assert cov.total.faces_by_dim == total.faces_by_dim
    assert cov.vertex_id == vertex_id and cov.vertex_pair == vertex_pair
    assert cov.total.is_pure == total.is_pure

    rng = random.Random(seed)
    for k in range(x.dim + 1):
        phi = random_cocycle(x, k, rng)
        assert pull_back_cocycle(phi, cov) == naive_pull_back(phi, cov)

    psi = random_signed_psi(x, action, rng.randint(1, m), rng)
    zeta, types = zeta_cochain(psi, cov)
    assert (zeta, types) == naive_zeta(psi, cov)
    assert list(types) == list(cov.total.cells(1))
    if x.dim >= 2:
        phi = random_cocycle(x, 2, rng)
        assert list(_cover_triangles(psi, phi, cov, types)) == naive_triangles(psi, phi, cov, types)
        wrong = F2Cochain(zeta.complex, 1, zeta.bits ^ rng.getrandbits(zeta.complex.n_cells(1)))
        for z in (zeta, wrong):
            got = first_type_triangle_check(psi, phi, cov, z, types)
            assert got == naive_first_type_check(psi, phi, cov, z, types)


def test_cover_and_walkers_match_naive_oracle_seeded():
    for i, x in enumerate(POOL):
        for m in range(1, 6):
            for rep in range(2):
                check_against_oracle(x, m, 30_000 + 100 * i + 10 * m + rep)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.integers(1, 5), st.integers(0, 2**31))
def test_cover_and_walkers_match_naive_oracle(index, m, seed):
    check_against_oracle(POOL[index], m, seed)


def test_cover_of_sweep_instances_matches_naive_oracle():
    for seed, fiber, extra in ((1, 12, 2), (2, 24, 0), (3, 48, 3)):
        x, phi, raw, f = build_instance(ExperimentConfig(seed=seed, epsilon=Fraction(1, 10),
                                                         fiber=fiber, extra=extra))
        cov = build_cover(x, f)
        total, vertex_id, _ = naive_cover(x, f)
        assert cov.total.faces_by_dim == total.faces_by_dim and cov.vertex_id == vertex_id
        psi, _ = normalize_sofic_approx(raw)
        zeta, types = zeta_cochain(psi, cov)
        assert (zeta, types) == naive_zeta(psi, cov)
        assert pull_back_cocycle(phi, cov) == naive_pull_back(phi, cov)
        assert list(_cover_triangles(psi, phi, cov, types)) == naive_triangles(psi, phi, cov, types)


def test_a_wrong_sign_cochain_is_refused_with_the_naive_count(monkeypatch):
    real_zeta = covers.zeta_cochain

    def wrong_zeta(*args):
        zeta, types = real_zeta(*args)
        return F2Cochain(zeta.complex, 1, zeta.bits ^ 0b110101), types

    monkeypatch.setattr(covers, "zeta_cochain", wrong_zeta)
    for seed, eps, extra in ((2, "1/20", 0), (3, "1/10", 2), (2, "1/2", 2)):
        x, phi, raw, f = build_instance(ExperimentConfig(seed=seed, epsilon=Fraction(eps), fiber=12, extra=extra))
        psi, _ = normalize_sofic_approx(raw)
        cov = build_cover(x, f)
        zeta, types = wrong_zeta(psi, cov)
        _, violations = naive_first_type_check(psi, phi, cov, zeta, types)
        with pytest.raises(BoundViolation, match=f"^{len(violations)} qualifying triangles disagree$"):
            contradiction_experiment(phi, psi, f)
        assert violations


def test_build_cover_refuses_a_lift_that_is_not_closed():
    # no relations, so the defect is 0, but the swap on edge 12 breaks the
    # triangle: the lifted triangles have edges that are not lifted edges
    x = full_triangle()
    gens = tuple(edge_gen(a, b) for a, b in x.cells(1)) + tuple(edge_gen(b, a) for a, b in x.cells(1))
    pres = Presentation(gens, (), tuple((edge_gen(a, b), edge_gen(b, a)) for a, b in x.cells(1)))
    images = {g: ErrPerm.identity(2) for g in gens}
    images[edge_gen(1, 2)] = images[edge_gen(2, 1)] = ErrPerm.from_cycle((0, 1), 2)
    with pytest.raises(PermstabError, match="fiberwise lift failed in dimension 1"):
        build_cover(x, AlmostAction(pres, 2, images))


def test_verify_cover_rejects_a_star_that_repeats_a_projection_with_every_count_right():
    # over the hollow triangle with m=2 (vertex (v, s) has id 2v+s), vertex 0
    # has two edges over 01 and none over 02, yet every vertex has degree 2
    # and every dimension has 2 cells per base cell
    base = hollow_polygon(3)
    pair = {2 * v + s: (v, s) for v in range(3) for s in range(2)}
    total = SimplicialComplex.from_cells([(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5)])
    cov = covers.Covering(base, total, 2, None, pair, {p: vid for vid, p in pair.items()})
    assert all(len(total.neighbors(v)) == 2 for v in total.vertices)
    with pytest.raises(PermstabError, match="projection is not a bijection on a vertex star"):
        covers._verify_cover(cov)


def test_walkers_are_reached_through_the_module(monkeypatch):
    x, phi, raw, f = build_instance(ExperimentConfig(seed=4, epsilon=Fraction(1, 20), fiber=12))
    psi, _ = normalize_sofic_approx(raw)
    calls = []
    for name in ("build_cover", "pull_back_cocycle", "zeta_cochain", "_cover_triangles"):
        real = getattr(covers, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(covers, name, spy)
    contradiction_experiment(phi, psi, f)
    assert set(calls) == {"build_cover", "pull_back_cocycle", "zeta_cochain", "_cover_triangles"}


# -- the experiment report, pinned ---------------------------------------------------


def report_family():
    """Seeded configs: fibers 2-48, extra 0-3, both cocycle modes, epsilon up to 1/2."""
    rng = random.Random(20261020)
    fibers = (2, 3, 4, 5, 7, 9, 12, 16, 24, 33, 48)
    epsilons = ("0", "1/100", "1/50", "1/20", "1/10", "1/4", "1/2")
    for i in range(33):
        yield ExperimentConfig(
            seed=rng.getrandbits(31),
            epsilon=Fraction(rng.choice(epsilons)),
            fiber=fibers[i % len(fibers)],
            extra=rng.randrange(4),
            cocycle_mode=rng.choice(("coboundary", "zero")),
        )


# sha256 over the family above, computed before the cover was lifted fiber by fiber
EXPERIMENT_REPORT_SHA256 = "825e29a1038e40320c85bece4250bd3011812f03b973b75179b78da3cee4f5a9"


def test_experiment_reports_are_pinned():
    digest = hashlib.sha256()
    for config in report_family():
        x, phi, raw, f = build_instance(config)
        psi, _ = normalize_sofic_approx(raw)
        digest.update(repr(contradiction_experiment(phi, psi, f)).encode())
    assert digest.hexdigest() == EXPERIMENT_REPORT_SHA256
