"""Acceptance suite: one test per criterion, exact arithmetic, stated budgets.

Each test prints a single PASS line (visible under ``pytest -s``); a failure
anywhere is a failure of the corresponding criterion.
"""

import time
from fractions import Fraction
from itertools import permutations

from permstab.actions import AlmostAction, action_distance, defect, normalize_sofic_approx
from permstab.cohomology import (
    F2Cochain,
    coboundary,
    cocycle_expansion_constant,
    cohomology_dim,
    cosystole,
)
from permstab.complexes import (
    annulus,
    boundary_of_simplex,
    face_weight,
    full_triangle,
    hollow_polygon,
)
from permstab.covers import build_cover, first_type_triangle_check, zeta_cochain
from permstab.errors import BoundViolation
from permstab.experiments import ExperimentConfig, build_instance, sweep
from permstab.perms import (
    ErrPerm,
    commute_with_sign_flip,
    commutes_with_flip,
    compose,
    fix_fixed_point_free,
    fix_to_involution,
    hamming,
    sign_flip,
)
from permstab.rng import SplitMix64
from permstab.symcochains import count_joint_violations, global_deletion, good_function_check
from test_complexes import random_pure_complex
from test_covers import random_exact_action
from test_perms import all_involutions, random_perm
from test_sym import noisy_coboundary


def report(name, t0):
    print(f"\nACCEPTANCE {name}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_involution_distance_identity():
    t0 = time.perf_counter()
    for n in range(1, 7):
        ident = ErrPerm.identity(n)
        for p in permutations(range(n)):
            zeta = ErrPerm.from_one_line(p)
            tau = fix_to_involution(zeta)
            assert hamming(zeta, tau) == hamming(compose(zeta, zeta), ident)
    rng = SplitMix64(10_001)
    ident = ErrPerm.identity(100)
    for _ in range(10_000):
        zeta = ErrPerm.from_one_line(rng.permutation(100))
        tau = fix_to_involution(zeta)
        assert compose(tau, tau) == ident
        assert hamming(zeta, tau) == hamming(compose(zeta, zeta), ident)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report("1 (nearest involution, exact identity)", t0)


def test_criterion_02_fixed_point_removal_bound():
    t0 = time.perf_counter()
    for n in range(1, 9):
        for zeta in all_involutions(n):
            tau = fix_fixed_point_free(zeta)
            assert tau.size == 2 * ((n + 1) // 2)
            assert tau.is_total and tau.is_bijection
            assert all(tau.apply(x) != x for x in tau.domain)
            assert all(tau.apply(tau.apply(x)) == x for x in tau.domain)
            eps = Fraction(len(zeta.fixed_points()), n)
            assert hamming(zeta, tau) <= 2 * eps
    report("2 (fixed-point-free repair bound)", t0)


def test_criterion_03_sign_commutation_bound():
    t0 = time.perf_counter()
    for n in range(1, 4):
        flip = sign_flip(n)
        ident = ErrPerm.identity(2 * n)
        for p in permutations(range(2 * n)):
            zeta = ErrPerm.from_one_line(p)
            sigma = commute_with_sign_flip(zeta)
            assert commutes_with_flip(sigma)
            z = zeta
            commutator = compose(compose(flip, z), compose(flip.inverse(), z.inverse()))
            assert hamming(sigma, z) <= hamming(commutator, ident)
    report("3 (sign-flip commutation repair bound)", t0)


def test_criterion_04_perturbation_bound():
    from test_actions import random_presentation

    t0 = time.perf_counter()
    rng = SplitMix64(10_004)
    for _ in range(1000):
        pres = random_presentation(rng)
        ell = pres.max_relation_length
        assert ell <= 4
        n = 10 + rng.below(100)
        m = min(n + rng.below(30), 200)
        phi = AlmostAction(pres, n, {g: random_perm(rng, range(n)) for g in pres.generators})
        images = {}
        for g in pres.generators:
            table = {i: phi.image(g).apply(i) for i in range(n)}
            table.update({i: i for i in range(n, m)})
            support = rng.sample(range(m), rng.below(m // 3 + 1))
            noise = {i: i for i in range(m)}
            shuffled = sorted(support)
            rng.shuffle(shuffled)
            noise.update(dict(zip(sorted(support), shuffled)))
            images[g] = compose(ErrPerm.from_mapping(noise, m), ErrPerm.from_mapping(table, m))
        psi = AlmostAction(pres, m, images)
        eps2 = action_distance(phi, psi)
        assert defect(psi) <= defect(phi) + (ell + 1) * eps2
    report("4 (perturbed-action defect bound)", t0)


def test_criterion_05_normalization_pipeline():
    from test_actions import exact_signed_action
    from permstab.experiments import noise_injector

    t0 = time.perf_counter()
    rng = SplitMix64(10_005)
    for trial in range(100):
        n = 4 + rng.below(27)
        action = exact_signed_action(n, rng, n_extra=1 + rng.below(3))
        noisy, _ = noise_injector(action, Fraction(1 + rng.below(3), 10), seed=trial)
        out, rep = normalize_sofic_approx(noisy)
        flip = sign_flip(out.space // 2)
        assert out.image("tau") == flip
        for g in out.generators:
            if g != "tau":
                assert commutes_with_flip(out.image(g))
        chained = (2 * rep.ell + 2) * rep.eps_prime + (3 * rep.ell + 4) * rep.eps
        assert rep.defect_out <= chained + (rep.ell + 1) * rep.stage3_distance
        assert rep.bound == chained + (rep.ell + 1) * rep.stage3_distance
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report("5 (three-stage normalization bound)", t0)


def test_criterion_06_cohomology_core():
    t0 = time.perf_counter()
    rng = SplitMix64(10_006)
    complexes = [random_pure_complex(rng, n_vertices=6, n_faces=4 + rng.below(5)) for _ in range(20)]
    per = 1000 // len(complexes)
    for x in complexes:
        for _ in range(per):
            alpha = F2Cochain(x, 0, rng.below(1 << x.n_cells(0)))
            assert coboundary(coboundary(alpha)).is_zero
        for k in range(x.dim + 1):
            assert sum(face_weight(x, c) for c in x.cells(k)) == 1
    sphere = boundary_of_simplex(3)
    assert cohomology_dim(sphere, 2) == 1
    assert cosystole(sphere, 2) == Fraction(1, 4)
    assert cocycle_expansion_constant(full_triangle(), 0) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report("6 (cohomology core, exact values)", t0)


def test_criterion_07_covering_correctness():
    t0 = time.perf_counter()
    rng = SplitMix64(10_007)
    pool = [
        annulus(),
        boundary_of_simplex(3),
        hollow_polygon(6),
        full_triangle(),
    ] + [random_pure_complex(rng, n_vertices=5 + rng.below(4), n_faces=4) for _ in range(8)]
    checked = 0
    seed = 0
    while checked < 50:
        x = pool[checked % len(pool)]
        m = 2 + (checked % 3)  # fibers of size 2..4
        action = random_exact_action(x, 20_000 + seed, m)
        seed += 1
        cov = build_cover(x, action)  # star-bijectivity is verified inside
        y = cov.total
        for k in range(x.dim + 1):
            assert y.n_cells(k) == m * x.n_cells(k)
            for cell in y.cells(k):
                assert face_weight(y, cell) == face_weight(x, cov.project_cell(cell)) / m
        # independent star check at every vertex
        for vid, (v, _) in cov.vertex_pair.items():
            for k in range(y.dim + 1):
                stars = [c for c in y.cells(k) if vid in c]
                projected = {cov.project_cell(c) for c in stars}
                base_star = {c for c in x.cells(k) if v in c}
                assert len(stars) == len(projected) and projected == base_star
        checked += 1
    report("7 (covering correctness, 50 seeded actions)", t0)


SWEEP_EPSILONS = (Fraction(0), Fraction(1, 100), Fraction(1, 50), Fraction(1, 20), Fraction(1, 10))


def _acceptance_runs():
    rows_a = sweep(SWEEP_EPSILONS, seeds=[41, 42], fiber=12)
    rows_b = sweep(SWEEP_EPSILONS, seeds=[43, 44], fiber=16, extra=2)
    return rows_a + rows_b


def test_criterion_08_end_to_end_inequality(monkeypatch):
    t0 = time.perf_counter()
    rows = _acceptance_runs()
    assert len(rows) >= 20
    for row in rows:
        assert row.holds and row.dw <= row.eps + 4 * row.rho
    assert any(row.eps > 0 for row in rows)  # the sweep exercises genuinely noisy runs
    # a bound violation must surface as exit code 2
    from permstab import cli, experiments

    def boom(config):
        raise BoundViolation("forced for the exit-code contract")

    monkeypatch.setattr(experiments, "run_pipeline", boom)
    assert cli.main(["experiment", "sweep", "--epsilons", "0", "--runs", "1"]) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report("8 (end-to-end distance inequality)", t0)


def test_criterion_09_first_type_triangle_equality():
    t0 = time.perf_counter()
    total_checked = 0
    for seed in (41, 42, 43, 44):
        for eps in SWEEP_EPSILONS:
            config = ExperimentConfig(seed=seed, epsilon=eps, fiber=12)
            x, phi, raw, f = build_instance(config)
            psi, _ = normalize_sofic_approx(raw)
            cov = build_cover(x, f)
            zeta, types = zeta_cochain(psi, cov)
            checked, violations = first_type_triangle_check(psi, phi, cov, zeta, types)
            assert violations == []
            total_checked += checked
    assert total_checked > 0
    report("9 (first-type triangle equality)", t0)


def test_criterion_10_deletion_algorithm():
    t0 = time.perf_counter()
    rng = SplitMix64(10_010)
    deleted_total = 0
    for trial in range(100):
        x = random_pure_complex(rng, n_vertices=6, n_faces=4 + rng.below(5))
        assert x.n_cells(2) <= 30
        n = 4 + rng.below(13)
        f = noisy_coboundary(x, n, rng, flips=1 + rng.below(3))
        cleaned, rep = global_deletion(f)
        assert count_joint_violations(cleaned) == 0
        assert len(rep.deleted) <= rep.eps_hat * n * x.n_cells(2)
        deleted_total += len(rep.deleted)
        check = good_function_check(cleaned, max_len=8, max_steps=250)
        assert check.step_violations == ()  # EC/TE/TC all preserve values
        assert check.ok  # EE gaps are only logged, never failures
    assert deleted_total > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report("10 (global deletion and step preservation)", t0)


def test_criterion_11_contractibility():
    from permstab.symcochains import Cycle, is_contractible

    t0 = time.perf_counter()
    tri = full_triangle()
    verdict = is_contractible(tri, Cycle(tri, (0, 1, 2, 0)), max_len=4)
    assert verdict.found and len(verdict.sequence) <= 3
    hexa = hollow_polygon(6)
    loop = Cycle(hexa, (0, 1, 2, 3, 4, 5, 0))
    verdict = is_contractible(hexa, loop, max_len=12)
    assert not verdict.found  # reported as search exhaustion, not impossibility
    report("11 (contractibility searches)", t0)


def test_criterion_12_sampler_checks():
    from permstab.symcochains import SamplerGraph, sampler_check

    t0 = time.perf_counter()
    complete = SamplerGraph(8, tuple(tuple(range(8)) for _ in range(5)))
    for alpha, beta in [(Fraction(1, 100), Fraction(0)), (Fraction(1, 10), Fraction(1, 2)), (Fraction(1, 2), 2)]:
        verdict = sampler_check(complete, alpha, beta)
        assert verdict.passed and verdict.exhaustive
    single = SamplerGraph(4, ((0,),))
    for beta in (0, 1, 2, 3):
        verdict = sampler_check(single, Fraction(1, 10), beta)
        assert not verdict.passed and verdict.exhaustive
    assert sampler_check(single, Fraction(1, 10), 4).passed
    ten = SamplerGraph(10, tuple(tuple(range(j, j + 3)) for j in range(7)))
    assert sampler_check(ten, Fraction(1, 3), 3).exhaustive  # full subset enumeration
    report("12 (sampler property checks)", t0)
