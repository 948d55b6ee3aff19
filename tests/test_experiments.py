import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from permstab.actions import defect, is_sign_commuting
from permstab.actions import AlmostAction
from permstab import experiments
from permstab.cli import main
from permstab.cohomology import F2Cochain
from permstab.errors import BoundViolation, PermstabError
from permstab.complexes import Presentation, annulus, annulus_winding_cocycle, edge_gen, hollow_polygon, spanning_tree
from permstab.experiments import (
    ExperimentConfig,
    build_instance,
    exact_action_from_int_cocycle,
    integer_cocycle_basis,
    noise_injector,
    rows_to_csv,
    run_pipeline,
    sign_twisted_lift,
    signed_noise_injector,
    sweep,
)
from permstab.perms import ErrPerm
from permstab.rng import SplitMix64
from test_actions import exact_signed_action


def test_noise_zero_is_identity_map():
    rng = SplitMix64(55)
    action = exact_signed_action(6, rng)
    out, realized = noise_injector(action, 0, seed=1)
    assert out.images == action.images
    assert all(v == 0 for v in realized.values())


def test_noise_realized_within_rate():
    rng = SplitMix64(56)
    action = exact_signed_action(10, rng, n_extra=2)
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1)):
        out, realized = noise_injector(action, eps, seed=3)
        assert all(v <= eps for v in realized.values())
    # full-rate noise scrambles the whole set for at least one generator
    out, realized = noise_injector(action, 1, seed=4)
    assert max(realized.values()) > Fraction(1, 2)


def test_signed_noise_preserves_structure():
    rng = SplitMix64(57)
    action = exact_signed_action(8, rng, n_extra=2)
    out, realized = signed_noise_injector(action, Fraction(1, 2), seed=9)
    assert is_sign_commuting(out)
    assert all(v <= Fraction(1, 2) for v in realized.values())
    assert realized["tau"] == 0


def annulus_lift(n):
    """The exact signed lift that ``build_instance`` noises, on fiber ``n``."""
    x = annulus()
    tree = spanning_tree(x, 0)
    sigma = ErrPerm.from_cycle(tuple(range(n)), n)
    f = exact_action_from_int_cocycle(x, tree, annulus_winding_cocycle(), sigma)
    return sign_twisted_lift(f, F2Cochain(x, 1, 0b100100100100), n)


def noise_digest(out, realized):
    body = [
        [g, out.image(g).size, list(out.image(g).domain), list(out.image(g).images), str(realized[g])]
        for g in out.generators
    ]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()[:16]


# digests of the seeded noise streams, computed before the two injectors shared one loop
NOISE_CASES = [
    (
        "plain-skip-tau",
        lambda: noise_injector(annulus_lift(12), Fraction(1, 4), seed=5, skip=("tau",)),
        "ba4d0bf0132c2369",
    ),
    ("plain-all", lambda: noise_injector(annulus_lift(12), Fraction(1, 2), seed=6), "bcc52bf48bd4421a"),
    (
        "plain-skip-pair",
        lambda: noise_injector(annulus_lift(8), 1, seed=7, skip=("tau", edge_gen(0, 1), edge_gen(1, 0))),
        "ace81223b3470e8f",
    ),
    (
        # skipping one member of a pair skips both: the same stream as above
        "plain-skip-half-pair",
        lambda: noise_injector(annulus_lift(8), 1, seed=7, skip=("tau", edge_gen(0, 1))),
        "ace81223b3470e8f",
    ),
    ("signed", lambda: signed_noise_injector(annulus_lift(12), Fraction(1, 3), seed=8), "1a15902a899e435a"),
    (
        "plain-unpaired",
        lambda: noise_injector(exact_signed_action(9, SplitMix64(58), n_extra=3), 1, seed=9),
        "c4e07de777b9d1c0",
    ),
    (
        "signed-unpaired",
        lambda: signed_noise_injector(exact_signed_action(9, SplitMix64(59), n_extra=3), Fraction(1, 2), seed=10),
        "b87cffda60877932",
    ),
]


@pytest.mark.parametrize("name, run, digest", NOISE_CASES, ids=[c[0] for c in NOISE_CASES])
def test_noise_injectors_match_pinned_digests(name, run, digest):
    assert noise_digest(*run()) == digest


def test_signed_noise_leaves_a_paired_tau_alone():
    """tau and its declared partner keep their images at any noise rate."""
    pres = Presentation(("a", "tau"), (), (("a", "tau"),))
    flip = ErrPerm.from_mapping({i: i ^ 1 for i in range(8)}, 8)
    action = AlmostAction(pres, 8, {"a": flip, "tau": flip})
    for eps in (0, Fraction(1, 2), 1):
        out, realized = signed_noise_injector(action, eps, seed=3)
        assert out.images == action.images and realized == {"a": 0, "tau": 0}


def test_noise_injectors_refuse_a_rate_outside_the_unit_interval():
    action = annulus_lift(4)
    for inject in (noise_injector, signed_noise_injector):
        for eps in (-1, 2):
            with pytest.raises(PermstabError, match="^noise rate out of range$"):
                inject(action, eps, seed=1)


def test_noise_refuses_a_noised_generator_paired_with_itself():
    """Noise breaks an involution paired with itself, at any rate; skipped, the pair stays legal."""
    flip = ErrPerm.from_mapping({i: i ^ 1 for i in range(8)}, 8)
    action = AlmostAction(Presentation(("a", "tau"), (), (("a", "a"),)), 8, {"a": flip, "tau": flip})
    for inject in (noise_injector, signed_noise_injector):
        for eps in (0, 1):
            with pytest.raises(PermstabError, match="^noised generator 'a' is paired with itself$"):
                inject(action, eps, seed=2)
    tau_pair = AlmostAction(Presentation(("a", "tau"), (), (("tau", "tau"),)), 8, {"a": flip, "tau": flip})
    out, realized = signed_noise_injector(tau_pair, 1, seed=2)
    assert out.image("tau") == flip and realized["tau"] == 0 and realized["a"] > 0
    out, realized = noise_injector(action, 1, seed=2, skip=("a",))
    assert out.image("a") == flip and realized["a"] == 0


@pytest.mark.parametrize("skip", [(), ("a",), ("c",)])
def test_noise_refuses_a_generator_in_two_pairs(skip):
    """A second pair would overwrite the image of its shared member, skipped or not."""
    ident = ErrPerm.identity(6)
    pres = Presentation(("a", "b", "c"), (), (("a", "b"), ("c", "a")))
    action = AlmostAction(pres, 6, dict.fromkeys(pres.generators, ident))
    with pytest.raises(PermstabError, match="^generator 'a' is in two inverse pairs$"):
        noise_injector(action, Fraction(1, 2), seed=3, skip=skip)


def test_integer_cocycle_basis_shapes():
    x = annulus()
    tree = spanning_tree(x, 0)
    basis = integer_cocycle_basis(x, tree)
    assert len(basis) == 1  # one winding class
    c6 = hollow_polygon(6)
    assert len(integer_cocycle_basis(c6, spanning_tree(c6, 0))) == 1
    # every basis vector really is a cocycle vanishing on the tree
    vec = basis[0]
    assert all(vec[e] == 0 for e in tree.tree_edges)

    def val(a, b):
        return vec[(a, b)] if (a, b) in vec else -vec[(b, a)]

    for (a, b, c) in x.cells(2):
        assert val(a, b) + val(b, c) + val(c, a) == 0


def test_build_instance_zero_noise_is_exact():
    x, phi, raw, f = build_instance(ExperimentConfig(seed=2, epsilon=Fraction(0)))
    assert defect(raw) == 0 and defect(f) == 0
    assert is_sign_commuting(raw)


def test_sweep_ordering_and_empty():
    rows = sweep([Fraction(1, 10), Fraction(0)], seeds=[2, 1], fiber=6)
    keys = [(r.config.epsilon, r.config.seed) for r in rows]
    assert keys == sorted(keys)
    assert rows_to_csv([]).count("\n") == 1  # header-only


def test_run_pipeline_report_consistency():
    row, report = run_pipeline(ExperimentConfig(seed=12, epsilon=Fraction(1, 10), fiber=12))
    assert row.bound == row.eps + 4 * row.rho
    assert row.dw == report.dw_best <= report.dw_total
    assert report.dw_total <= report.event1 + report.event2


def test_run_pipeline_refuses_a_failed_normalization_bound(monkeypatch, capsys):
    real = experiments.normalize_sofic_approx

    def failing(action):
        out, report = real(action)
        return out, dataclasses.replace(report, holds=False)

    monkeypatch.setattr(experiments, "normalize_sofic_approx", failing)
    config = ExperimentConfig(seed=3, epsilon=Fraction(1, 20), fiber=8, extra=1)
    with pytest.raises(BoundViolation, match="^normalization bound failed at seed 3, epsilon 1/20, fiber 8, extra 1$"):
        run_pipeline(config)
    assert main(["--csv", "-", "experiment", "sweep", "--epsilons", "0", "--runs", "1", "--fiber", "6"]) == 2
    assert capsys.readouterr().err.startswith("bound violation: normalization bound failed at seed 0")
