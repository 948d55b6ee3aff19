from fractions import Fraction

from permstab.actions import defect, is_sign_commuting
from permstab.experiments import (
    ExperimentConfig,
    build_instance,
    integer_cocycle_basis,
    noise_injector,
    rows_to_csv,
    run_pipeline,
    signed_noise_injector,
    sweep,
)
from permstab.complexes import annulus, hollow_polygon, spanning_tree
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
