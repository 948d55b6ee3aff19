"""Values the package builds from validated inputs pass the validating constructors.

``ErrPerm`` and ``AlmostAction`` check their input where it enters the
package; what ``perms``, ``actions`` and ``experiments`` build from checked
values is not checked again.  These tests rebuild every such output through
the validating constructor and require it to be accepted and equal, over
partial images, unequal sizes, the empty set and columns that reach
``ERROR``.  They also pin the three results the sweep no longer recomputes:
stage 2's distance, the noise distances and the cover's purity.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from permstab.actions import (
    AlmostAction,
    evaluate_word,
    induced_quotient_action,
    normalize_sofic_approx,
)
from permstab.cohomology import F2Cochain
from permstab.complexes import Presentation, SimplicialComplex, annulus, edge_gen, full_triangle, random_lm_complex
from permstab.covers import build_cover
from permstab.errors import PermstabError
from permstab.experiments import (
    ExperimentConfig,
    build_instance,
    noise_injector,
    sign_twisted_lift,
    signed_noise_injector,
)
from permstab.perms import (
    ErrPerm,
    commute_with_sign_flip,
    compose,
    fix_fixed_point_free,
    fix_to_involution,
    hamming,
    power,
    sign_flip,
)
from test_actions import pinned_family
from test_covers import random_exact_action
from test_oracles import lift_inputs, random_errperm, random_signed, random_total, signed_action

SEEDS = st.integers(0, 2**32 - 1)
SWEEP_CONFIGS = [
    ExperimentConfig(seed=s, epsilon=Fraction(e), fiber=fiber, extra=extra)
    for s, e, fiber, extra in (
        (0, "1/20", 12, 0),
        (1, "1/10", 12, 2),
        (2, "1/5", 6, 1),
        (3, "1/20", 24, 2),
        (4, "1/3", 8, 0),
    )
]


def rechecked(perm: ErrPerm) -> ErrPerm:
    """``perm`` rebuilt by the validating constructor; it must be accepted, equal and read alike."""
    assert type(perm) is ErrPerm
    assert type(perm.size) is int and type(perm.domain) is tuple and type(perm.images) is tuple
    again = ErrPerm(perm.size, perm.domain, perm.images)
    assert again == perm
    assert again._line == perm._line and again._inverse_line == perm._inverse_line
    return again


def rechecked_action(action: AlmostAction) -> AlmostAction:
    """``action`` rebuilt by the validating constructor, every image rechecked too."""
    again = AlmostAction(action.presentation, action.space, dict(action.images))
    assert again == action
    for perm in action.images.values():
        rechecked(perm)
    return again


def partial_bijection(rng: random.Random, size: int) -> ErrPerm:
    """A bijection of a random subset of range(size) onto itself, as an action image must be."""
    domain = sorted(rng.sample(range(size), rng.randrange(0, size + 1)))
    images = list(domain)
    rng.shuffle(images)
    return ErrPerm(size, tuple(domain), tuple(images))


# -- perms ------------------------------------------------------------------------


def check_perm_sites(rng: random.Random):
    f = random_errperm(rng, rng.randrange(0, 8))
    g = random_errperm(rng, rng.randrange(0, 8))
    rechecked(compose(f, g))
    rechecked(compose(g, f))
    rechecked(f.inverse())
    for k in range(-3, 4):
        rechecked(power(f, k))
    zeta = random_total(rng, rng.randrange(0, 8))
    inv = rechecked(fix_to_involution(zeta))
    rechecked(fix_fixed_point_free(inv))
    n = rng.randrange(0, 6)
    rechecked(commute_with_sign_flip(random_signed(rng, n)))
    rechecked(sign_flip(n))


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS)
def test_perms_outputs_pass_the_constructor(seed):
    check_perm_sites(random.Random(seed))


def test_perms_outputs_pass_the_constructor_seeded():
    rng = random.Random(26001)
    for _ in range(1500):
        check_perm_sites(rng)


def test_composites_that_reach_error_pass_the_constructor():
    f = ErrPerm(3, (0, 2), (1, 0))
    g = ErrPerm(5, (0, 1, 3, 4), (4, 2, 0, 1))
    for h in (compose(f, g), compose(g, f), compose(f, f), power(f, 2), power(g, -2)):
        rechecked(h)
    assert compose(f, g) == ErrPerm(5, (1, 3), (0, 1))
    empty = ErrPerm(0, (), ())
    for h in (compose(empty, empty), compose(empty, f), compose(f, empty), empty.inverse(), power(empty, 3)):
        rechecked(h)


# -- actions and experiments -------------------------------------------------------


def check_action_sites(rng: random.Random):
    size = rng.randrange(0, 7)
    gens = ("a", "b", "c")
    action = AlmostAction(Presentation(gens, ()), size, {g: partial_bijection(rng, size) for g in gens})
    for _ in range(4):
        word = tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randrange(0, 5)))
        rechecked(evaluate_word(action, word))
    signed = signed_action(rng, rng.randrange(0, 6))
    try:
        quotient = induced_quotient_action(signed)
    except PermstabError:
        pass
    else:
        rechecked_action(quotient)
    x, f, signs, n = lift_inputs(rng)
    try:
        lift = sign_twisted_lift(f, signs, n)
    except PermstabError:
        pass
    else:
        rechecked_action(lift)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS)
def test_action_outputs_pass_the_constructor(seed):
    check_action_sites(random.Random(seed))


def test_action_outputs_pass_the_constructor_seeded():
    rng = random.Random(26002)
    for _ in range(600):
        check_action_sites(rng)


def test_sign_twisted_lift_refuses_edge_images_that_are_not_inverse():
    x = full_triangle()
    images = {edge_gen(a, b): ErrPerm.identity(3) for a, b in permutations(range(3), 2)}
    images[edge_gen(0, 1)] = ErrPerm.from_one_line((1, 0, 2))
    f = AlmostAction(Presentation(tuple(images), ()), 3, images)
    with pytest.raises(PermstabError, match="^images of 'e0_1' and 'e1_0' are not mutually inverse$"):
        sign_twisted_lift(f, F2Cochain(x, 1, 0), 3)
    images[edge_gen(1, 0)] = images[edge_gen(0, 1)]
    rechecked_action(sign_twisted_lift(AlmostAction(f.presentation, 3, images), F2Cochain(x, 1, 0b101), 3))


def test_pipeline_outputs_pass_the_constructor():
    for act in list(pinned_family())[::7]:
        out, _ = normalize_sofic_approx(act)
        rechecked_action(out)
    for config in SWEEP_CONFIGS:
        x, phi, raw, f = build_instance(config)
        rechecked_action(raw)
        rechecked_action(f)
        psi, _ = normalize_sofic_approx(raw)
        rechecked_action(psi)
        rechecked_action(induced_quotient_action(psi))


def test_noise_outputs_pass_the_constructor_and_report_their_distances():
    x, phi, raw, f = build_instance(SWEEP_CONFIGS[0])
    psi, _ = normalize_sofic_approx(raw)
    for eps in (0, Fraction(1, 7), Fraction(1, 2), 1):
        for src, (out, realized) in (
            (f, noise_injector(f, eps, seed=11)),
            (raw, noise_injector(raw, eps, seed=12, skip=("tau",))),
            (psi, signed_noise_injector(psi, eps, seed=13)),
        ):
            rechecked_action(out)
            assert realized == {g: hamming(out.image(g), src.image(g)) for g in src.generators}
            assert all(d <= eps for d in realized.values())


# -- stage 2's distance -------------------------------------------------------------


def test_stage2_distance_matches_the_relabeled_images():
    nonzero = 0
    for act in pinned_family():
        _, report = normalize_sofic_approx(act)
        assert report.stage2_distance == oracles.stage2_distance(act)
        nonzero += report.stage2_distance != 0
    for config in SWEEP_CONFIGS:
        _, _, raw, _ = build_instance(config)
        _, report = normalize_sofic_approx(raw)
        assert report.stage2_distance == oracles.stage2_distance(raw)
    assert nonzero > 100  # the family does reach the padding point


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS)
def test_stage2_distance_matches_the_relabeled_images_random(seed):
    rng = random.Random(seed)
    space = rng.randrange(1, 10)
    pres = Presentation(("a", "tau"), ())
    act = AlmostAction(pres, space, {"a": random_total(rng, space), "tau": random_total(rng, space)})
    _, report = normalize_sofic_approx(act)
    assert report.stage2_distance == oracles.stage2_distance(act)


# -- the cover's purity --------------------------------------------------------------


def test_cover_purity_is_what_the_check_computes():
    rng = random.Random(26005)
    bases = [annulus(), SimplicialComplex.from_cells([(0, 1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])]
    bases += [random_lm_complex(rng.randrange(4, 7), Fraction(rng.randrange(1, 4), 4), seed) for seed in range(8)]
    seen = set()
    for i, x in enumerate(bases):
        for m in (1, 2, 3):
            cov = build_cover(x, random_exact_action(x, 26006 + i, m))
            assert cov.total.is_pure == cov.total._check_pure() == x.is_pure
            seen.add(x.is_pure)
    assert seen == {True, False}
    for config in SWEEP_CONFIGS[:2]:
        x, _, _, f = build_instance(config)
        cov = build_cover(x, f)
        assert cov.total.is_pure and cov.total._check_pure()


# -- read-only images ------------------------------------------------------------------


def test_action_images_are_read_only():
    images = {"a": ErrPerm.identity(2)}
    act = AlmostAction(Presentation(("a",), ()), 2, images)
    with pytest.raises(TypeError):
        act.images["a"] = ErrPerm.from_one_line((1, 0))
    with pytest.raises(TypeError):
        del act.images["a"]
    images["a"] = ErrPerm(3, (), ())  # the caller's dict is not the action's
    assert act.image("a") == ErrPerm.identity(2)
    for out in (normalize_sofic_approx(next(pinned_family()))[0], build_instance(SWEEP_CONFIGS[0])[2]):
        with pytest.raises(TypeError):
            out.images["tau"] = out.image("tau")


# -- the entry points still refuse ------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ErrPerm.from_mapping({0: 1, 1: 1}), "images not injective"),
        (lambda: ErrPerm.from_mapping({0: 2}, 2), r"point label outside range\(2\)"),
        (lambda: ErrPerm.from_mapping({0: -1, 1: 0}), r"point label outside range\(2\)"),
        (lambda: ErrPerm.from_mapping({0: 0, 1: 1}, 1), r"point label outside range\(1\)"),
        (lambda: ErrPerm.from_cycle((0, 5), 3), r"point label outside range\(3\)"),
        (lambda: ErrPerm.from_one_line((1, 1, 0)), "images not injective"),
        (lambda: ErrPerm.from_one_line((0, 3)), r"point label outside range\(2\)"),
        (lambda: ErrPerm.identity_on((0, 4), 3), r"point label outside range\(3\)"),
        (lambda: ErrPerm(3, (1, 0), (0, 1)), "domain must be strictly increasing"),
        (lambda: ErrPerm(3, (0, 1), (0,)), "domain/image length mismatch"),
        (lambda: ErrPerm.from_one_line((1, 0)).relabel({0: 2, 1: 3}), r"point label outside range\(2\)"),
        # a negative size is refused before any label is read
        (lambda: ErrPerm(-3, (), ()), "negative size -3"),
        (lambda: ErrPerm.identity(-2), "negative size -2"),
        (lambda: ErrPerm(-1, (0,), (0,)), "negative size -1"),
        (lambda: AlmostAction(Presentation((), ()), -1, {}), "negative space -1"),
    ],
)
def test_public_constructors_refuse_bad_tables(build, message):
    with pytest.raises(PermstabError, match=f"^{message}$"):
        build()


def test_relabel_refuses_a_table_that_merges_points():
    for perm, table in (
        (ErrPerm.identity(2), {0: 0, 1: 0}),
        (ErrPerm.from_one_line([1, 0, 2, 3]), {0: 0, 1: 1, 2: 3, 3: 3}),
        (ErrPerm(4, (0,), (2,)), {0: 1, 2: 1}),  # a domain point and an image merged
    ):
        with pytest.raises(PermstabError, match="^relabeling table is not injective on the points$"):
            perm.relabel(table)
    assert ErrPerm(4, (0,), (2,)).relabel({0: 3, 2: 1}) == ErrPerm(4, (3,), (1,))
    assert ErrPerm.from_one_line([1, 0, 2]).relabel({0: 2, 1: 0, 2: 1}) == ErrPerm.from_one_line([2, 1, 0])


def test_action_refusals_are_unchanged():
    pres = Presentation(("a", "b"), (), (("a", "b"),))
    cases = [
        ({"a": ErrPerm.identity(2)}, "no image for generator 'b'"),
        ({"a": ErrPerm.identity(2), "b": ErrPerm.identity(3)}, "image of 'b' has size 3, expected 2"),
        ({"a": ErrPerm(2, (0,), (1,)), "b": ErrPerm(2, (1,), (0,))}, "image of 'a' is not a bijection of its domain"),
        (
            {"a": ErrPerm.from_one_line((1, 0)), "b": ErrPerm.identity(2)},
            "images of 'a' and 'b' are not mutually inverse",
        ),
    ]
    for images, message in cases:
        with pytest.raises(PermstabError, match=f"^{message}$"):
            AlmostAction(pres, 2, images)
