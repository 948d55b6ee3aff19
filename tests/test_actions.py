import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from permstab.actions import (
    AlmostAction,
    action_distance,
    defect,
    evaluate_word,
    extension_relations,
    induced_quotient_action,
    is_sign_commuting,
    normalize_sofic_approx,
    quotient_presentation,
    separation_report,
)
from permstab.complexes import Presentation
from permstab.covers import contradiction_experiment
from permstab.errors import PermstabError
from permstab.experiments import ExperimentConfig, build_instance, rows_to_csv, run_pipeline, sweep
from permstab.perms import ErrPerm, compose, hamming, sign_flip
from permstab.rng import SplitMix64
from test_oracles import same_outcome
from test_perms import random_perm

S2_PRES = Presentation(("s",), ((("s", 1), ("s", 1)),))


def involution_presentation_action(perm):
    return AlmostAction(S2_PRES, perm.size, {"s": perm})


def test_evaluate_word_basics():
    p = Presentation(("a", "b"), ())
    act = AlmostAction(
        p, 4, {"a": ErrPerm.from_cycle((0, 1, 2), 4), "b": ErrPerm.from_cycle((2, 3), 4)}
    )
    assert evaluate_word(act, ()) == ErrPerm.identity(4)
    assert evaluate_word(act, (("a", 1), ("a", -1))) == ErrPerm.identity(4)
    # composition applies the rightmost letter first
    word = (("a", 1), ("b", 1))
    assert evaluate_word(act, word).apply(2) == act.image("a").apply(3)


def test_defect_examples():
    exact = involution_presentation_action(ErrPerm.from_cycle((0, 1), 3))
    assert defect(exact) == 0
    bad = involution_presentation_action(ErrPerm.from_cycle((0, 1, 2), 3))
    assert defect(bad) == 1


def test_action_distance_examples():
    p = Presentation(("a", "b"), ())
    base = {
        "a": ErrPerm.from_cycle((0, 1), 4),
        "b": ErrPerm.from_cycle((2, 3), 4),
    }
    phi = AlmostAction(p, 4, base)
    assert action_distance(phi, phi) == 0
    other = AlmostAction(p, 4, {"a": base["a"], "b": ErrPerm.from_cycle((1, 3), 4)})
    assert action_distance(phi, other) == max(
        hamming(base["b"], other.image("b")), Fraction(0)
    )
    # extension by the identity on a superset moves every generator the same amount
    ten = AlmostAction(
        p,
        10,
        {
            "a": ErrPerm(10, tuple(range(10)), (1, 0, 2, 3, 4, 5, 6, 7, 8, 9)),
            "b": ErrPerm(10, tuple(range(10)), (0, 1, 3, 2, 4, 5, 6, 7, 8, 9)),
        },
    )
    nine = AlmostAction(
        p,
        9,
        {
            "a": ErrPerm(9, tuple(range(9)), (1, 0, 2, 3, 4, 5, 6, 7, 8)),
            "b": ErrPerm(9, tuple(range(9)), (0, 1, 3, 2, 4, 5, 6, 7, 8)),
        },
    )
    assert action_distance(nine, ten) == Fraction(1, 10)


def test_inverse_pair_validation():
    p = Presentation(("a", "A"), (), (("a", "A"),))
    good = AlmostAction(
        p, 3, {"a": ErrPerm.from_cycle((0, 1, 2), 3), "A": ErrPerm.from_cycle((0, 2, 1), 3)}
    )
    assert defect(good) == 0
    with pytest.raises(PermstabError):
        AlmostAction(
            p, 3, {"a": ErrPerm.from_cycle((0, 1, 2), 3), "A": ErrPerm.from_cycle((0, 1, 2), 3)}
        )


def random_presentation(rng):
    n_gens = 2 + rng.below(3)
    gens = tuple(f"g{i}" for i in range(n_gens))
    rels = []
    for _ in range(1 + rng.below(4)):
        length = 1 + rng.below(4)
        rels.append(
            tuple((gens[rng.below(n_gens)], 1 if rng.below(2) else -1) for _ in range(length))
        )
    return Presentation(gens, tuple(rels))


def test_perturbation_defect_bound_random():
    rng = SplitMix64(301)
    for _ in range(300):
        pres = random_presentation(rng)
        ell = pres.max_relation_length
        n = 4 + rng.below(60)
        m = n + rng.below(8)
        phi = AlmostAction(pres, n, {g: random_perm(rng, range(n)) for g in pres.generators})
        images = {}
        for g in pres.generators:
            extended = {i: phi.image(g).apply(i) for i in range(n)}
            for i in range(n, m):
                extended[i] = i
            noise = random_perm(rng, rng.sample(range(m), rng.below(m // 2 + 1)), size=m)
            noise_map = {i: i for i in range(m)}
            for x, y in zip(noise.domain, noise.images):
                noise_map[x] = y
            images[g] = compose(ErrPerm.from_mapping(noise_map, m), ErrPerm.from_mapping(extended, m))
        psi = AlmostAction(pres, m, images)
        eps2 = action_distance(phi, psi)
        assert defect(psi) <= defect(phi) + (ell + 1) * eps2


# -- normalization pipeline -----------------------------------------------------


def extension_pres(n_extra=1):
    gens = tuple(f"g{i}" for i in range(n_extra)) + ("tau",)
    return extension_relations(Presentation(gens, ()))


def exact_signed_action(n, rng, n_extra=1):
    pres = extension_pres(n_extra)
    images = {"tau": sign_flip(n)}
    for i in range(n_extra):
        base = random_perm(rng, range(n))
        table = {}
        for x in range(n):
            for s in (0, 1):
                table[2 * x + s] = 2 * base.apply(x) + s
        images[f"g{i}"] = ErrPerm.from_mapping(table, 2 * n)
    return AlmostAction(pres, 2 * n, images)


def test_normalize_exact_action_is_untouched():
    rng = SplitMix64(407)
    action = exact_signed_action(5, rng)
    out, report = normalize_sofic_approx(action)
    assert report.stage1_distance == 0
    assert report.stage2_distance == 0
    assert report.stage3_distance == 0
    assert report.defect_out == 0
    assert out.image("tau") == sign_flip(5)
    assert is_sign_commuting(out)


def test_normalize_repairs_transposed_flip():
    rng = SplitMix64(409)
    action = exact_signed_action(50, rng)
    # spoil tau by one transposition on the 100 signed points
    spoiled = compose(ErrPerm.from_cycle((0, 2), 100), action.image("tau"))
    images = dict(action.images)
    images["tau"] = spoiled
    bad = AlmostAction(action.presentation, 100, images)
    out, report = normalize_sofic_approx(bad)
    assert out.image("tau") == sign_flip(50)
    assert is_sign_commuting(out)
    assert report.defect_out <= report.bound
    assert report.stage1_distance == hamming(compose(spoiled, spoiled), ErrPerm.identity(100))


def test_normalize_seeded_noise_obeys_chained_bound():
    from permstab.experiments import noise_injector

    rng = SplitMix64(411)
    for trial in range(20):
        action = exact_signed_action(4 + rng.below(20), rng, n_extra=2)
        noisy, _ = noise_injector(action, Fraction(1, 8), seed=trial, skip=())
        out, report = normalize_sofic_approx(noisy)
        n_out = out.space // 2
        assert out.image("tau") == sign_flip(n_out)
        assert is_sign_commuting(out)
        assert report.defect_out <= report.bound
        # the final stage stays within the intermediate defect bound
        inter = (2 * report.ell + 2) * report.eps_prime + (3 * report.ell + 4) * report.eps
        assert report.stage3_distance <= inter


def test_normalize_requires_tau():
    pres = Presentation(("a",), ())
    act = AlmostAction(pres, 2, {"a": ErrPerm.identity(2)})
    with pytest.raises(PermstabError):
        normalize_sofic_approx(act)


# -- quotient ----------------------------------------------------------------


def test_quotient_presentation_erases_tau():
    pres = extension_pres(2)
    q = quotient_presentation(pres)
    assert "tau" not in q.generators
    assert all(all(sym != "tau" for sym, _ in rel) for rel in q.relations)
    # tau^2 and the commutators vanish entirely
    assert q.relations == ()


def test_induced_quotient_examples():
    n = 4
    pres = extension_pres(1)
    flip = sign_flip(n)
    act = AlmostAction(pres, 2 * n, {"g0": flip, "tau": flip})
    quot = induced_quotient_action(act)
    assert quot.image("g0") == ErrPerm.identity(n)  # the projection kills signs

    rng = SplitMix64(501)
    lifted = exact_signed_action(6, rng)
    base = lifted.image("g0")
    quot = induced_quotient_action(lifted)
    assert quot.image("g0") == ErrPerm.from_one_line(
        tuple(base.apply(2 * x) >> 1 for x in range(6))
    )


def test_induced_quotient_rejects_non_commuting():
    n = 3
    pres = extension_pres(1)
    images = {
        "tau": sign_flip(n),
        "g0": ErrPerm.from_cycle((0, 2), 2 * n),  # moves +0 to +1 but not -0 to -1
    }
    act = AlmostAction(pres, 2 * n, images)
    with pytest.raises(PermstabError):
        induced_quotient_action(act)


def test_a_missing_tau_is_refused_or_not_sign_commuting():
    action = AlmostAction(Presentation(("g",), ()), 2, {"g": ErrPerm.identity(2)})
    assert is_sign_commuting(action) is False
    with pytest.raises(PermstabError, match="^distinguished generator 'tau' missing$"):
        induced_quotient_action(action)


def test_quotient_defect_never_exceeds_lift():
    from permstab.experiments import signed_noise_injector

    rng = SplitMix64(503)
    for trial in range(100):
        action = exact_signed_action(4 + rng.below(10), rng, n_extra=2)
        noisy, _ = signed_noise_injector(action, Fraction(1, 4), seed=trial)
        assert is_sign_commuting(noisy)
        quot = induced_quotient_action(noisy)
        assert defect(quot) <= defect(noisy)


def test_separation_report_bounded():
    rng = SplitMix64(601)
    act = involution_presentation_action(ErrPerm.from_cycle((0, 1), 4))
    rows = separation_report(act, 2)
    words = [w for w, _ in rows]
    assert (("s", 1),) in words
    assert (("s", 1), ("s", -1)) not in words  # not freely reduced
    dist = dict(rows)[(("s", 1),)]
    assert dist == Fraction(1, 2)


def test_perturbation_bound_reference_instance():
    # eps1 = 1/10, eps2 = 1/20 and a longest relation of 3 letters give the
    # composite bound 1/10 + 4 * 1/20 = 3/10
    pres = Presentation(
        ("a", "b"),
        ((("a", 1), ("b", 1), ("a", -1)),),
    )
    n = 40
    ident = ErrPerm.identity(n)
    double = compose(ErrPerm.from_cycle((0, 1), n), ErrPerm.from_cycle((2, 3), n))
    phi = AlmostAction(pres, n, {"a": ident, "b": double})
    assert defect(phi) == Fraction(1, 10)
    psi = AlmostAction(pres, n, {"a": ErrPerm.from_cycle((4, 5), n), "b": double})
    eps2 = action_distance(phi, psi)
    assert eps2 == Fraction(1, 20)
    assert defect(phi) + (3 + 1) * eps2 == Fraction(3, 10)
    assert defect(psi) <= Fraction(3, 10)


def near_involution(rng: random.Random, space: int) -> ErrPerm:
    """A shuffled involution of range(space) with fixed points, sometimes spoiled by a 3-cycle."""
    pts = list(range(space))
    rng.shuffle(pts)
    mapping = {x: x for x in pts}
    for i in range(0, rng.randrange(0, space // 2 + 1) * 2, 2):
        mapping[pts[i]], mapping[pts[i + 1]] = pts[i + 1], pts[i]
    if space >= 3 and rng.random() < 0.5:
        a, b, c = rng.sample(range(space), 3)
        mapping[a], mapping[b], mapping[c] = mapping[b], mapping[c], mapping[a]
    return ErrPerm.from_mapping(mapping, space)


def pinned_family():
    """Seeded actions of an inverse pair a/b and a central tau on 1-11 points."""
    rng = random.Random(20261019)
    pres = Presentation(("a", "b", "tau"), ((("a", 1), ("a", 1), ("b", -1)),), (("a", "b"),))
    for i in range(400):
        space = 1 + i % 11
        img = list(range(space))
        rng.shuffle(img)
        a = ErrPerm(space, tuple(range(space)), tuple(img))
        yield AlmostAction(pres, space, {"a": a, "b": a.inverse(), "tau": near_involution(rng, space)})


# sha256 over the family above, computed before ErrPerm refused labels past its size
STAGE_AND_SEPARATION_SHA256 = "c8b3712b6cc4546376ab009e494bc642204880719ffc7644f385ea015c860b3f"


def test_stage_reports_and_separation_are_pinned():
    digest = hashlib.sha256()
    for act in pinned_family():
        out, report = normalize_sofic_approx(act)
        for part in (report, separation_report(act, 2), separation_report(out, 2)):
            digest.update(repr(part).encode())
    assert digest.hexdigest() == STAGE_AND_SEPARATION_SHA256


# -- words and defects against the oracles -------------------------------------------

GENS = ("a", "b", "c", "A")


def random_action(rng: random.Random) -> AlmostAction:
    """Partial bijections of range(space), the empty set included."""
    space = rng.randrange(0, 7)
    images = {}
    for g in GENS[:3]:
        dom = rng.sample(range(space), rng.randrange(0, space + 1))
        img = list(dom)
        rng.shuffle(img)
        images[g] = ErrPerm.from_mapping(dict(zip(dom, img)), space)
    images["A"] = images["a"].inverse()
    return AlmostAction(Presentation(GENS, (), (("a", "A"),)), space, images)


def random_word(rng: random.Random, unknown: bool):
    letters = GENS + (("z", "y") if unknown else ())
    return tuple((rng.choice(letters), rng.choice((1, -1))) for _ in range(rng.randrange(0, 7)))


def check_word(action, word):
    same_outcome(lambda: evaluate_word(action, word), lambda: oracles.evaluate_word(action, word))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), unknown=st.booleans())
def test_word_evaluation_matches_the_oracle(seed, unknown):
    rng = random.Random(seed)
    action = random_action(rng)
    check_word(action, random_word(rng, unknown))


def test_word_evaluation_matches_the_oracle_seeded():
    rng = random.Random(20241003)
    for _ in range(2000):
        action = random_action(rng)
        check_word(action, random_word(rng, unknown=rng.random() < 0.2))


def test_labels_past_space_and_edge_words():
    # a map that sends 2 to 3 is no partial permutation of range(3): it is refused when built
    with pytest.raises(PermstabError, match=r"^point label outside range\(3\)$"):
        ErrPerm(3, (1, 2, 3), (2, 3, 1))
    pres = Presentation(("p", "q"), ())
    p = ErrPerm(3, (1, 2), (2, 1))
    q = ErrPerm(3, (0, 1, 2), (1, 2, 0))
    act = AlmostAction(pres, 3, {"p": p, "q": q})
    for word in ((), (("p", 1),), (("p", -1),), (("q", 1), ("p", 1)), (("p", 1), ("q", -1), ("p", -1))):
        check_word(act, word)
    # 0 is outside p's domain; the empty word is the identity of range(3)
    assert evaluate_word(act, (("p", 1),)).apply(0) == -1
    assert evaluate_word(act, (("q", 1), ("p", 1))) == ErrPerm(3, (1, 2), (0, 2))
    assert evaluate_word(act, ()) == ErrPerm.identity(3)
    # the first unknown letter reading left to right is named, whatever its place
    with pytest.raises(PermstabError, match="unknown generator 'x'"):
        evaluate_word(act, (("p", 1), ("x", 1), ("y", -1)))


def with_relations(action, rng, unknown):
    """The action under a presentation with 0-3 random relations, empty ones included.

    Unknown letters are declared generators of the new presentation but have
    no image, so evaluation is what refuses them.
    """
    relations = tuple(random_word(rng, unknown) for _ in range(rng.randrange(0, 4)))
    gens = GENS + (("z", "y") if unknown else ())
    action.presentation = Presentation(gens, relations, action.presentation.inverse_pairs)
    return action


def check_defect(action):
    return same_outcome(lambda: defect(action), lambda: oracles.defect(action))


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), unknown=st.booleans())
def test_defect_matches_the_oracle(seed, unknown):
    rng = random.Random(seed)
    check_defect(with_relations(random_action(rng), rng, unknown))


def test_defect_matches_the_oracle_seeded():
    rng = random.Random(20261019)
    errors = []
    for _ in range(3000):
        action = with_relations(random_action(rng), rng, unknown=rng.random() < 0.2)
        errors.append(check_defect(action))
    # the seeded run reaches the refusal as well as measured relations
    assert any(e and e.startswith("unknown generator") for e in errors)
    assert None in errors


def test_separation_report_matches_the_oracle():
    """Each word's distance is the ``hamming`` distance of its composite from the identity."""
    rng = random.Random(20261020)
    for _ in range(300):
        action = random_action(rng)
        ident = oracles.identity(action.space)
        rows = separation_report(action, 2, limit=rng.randrange(1, 60))
        assert rows == [(w, oracles.hamming(oracles.evaluate_word(action, w), ident)) for w, _ in rows]


def test_defect_edge_cases():
    pres = Presentation(("a",), ((("a", 1),),))
    # an undefined point counts as moved
    part = AlmostAction(pres, 3, {"a": ErrPerm(3, (0, 2), (0, 2))})
    assert defect(part) == oracles.defect(part) == Fraction(1, 3)
    # the empty relation, no relation and an empty underlying set give 0
    for rels in ((), ((),)):
        act = AlmostAction(Presentation(("a",), rels), 3, {"a": ErrPerm.from_cycle((0, 1, 2), 3)})
        assert defect(act) == 0
    empty = AlmostAction(pres, 0, {"a": ErrPerm(0, (), ())})
    assert defect(empty) == oracles.defect(empty) == 0
    # an unknown letter is refused wherever its relation stands, on an empty set too
    for space in (0, 2):
        act = AlmostAction(pres, space, {"a": ErrPerm.identity(space)})
        for rels in (((("a", 1),), (("z", 1),)), ((("z", 1),), (("a", 1),))):
            act.presentation = Presentation(("a", "z"), rels)
            with pytest.raises(PermstabError, match="^unknown generator 'z'$"):
                defect(act)


def test_inverse_pairs_are_checked_by_point_maps():
    """An inverse pair is accepted exactly when the partner is the swapped point map."""
    rng = random.Random(7)
    pres = Presentation(("a", "b"), (), (("a", "b"),))
    seen = set()
    for _ in range(500):
        space = rng.randrange(0, 5)
        dom = rng.sample(range(space), rng.randrange(0, space + 1))
        img = list(dom)
        rng.shuffle(img)
        a = ErrPerm.from_mapping(dict(zip(dom, img)), space)
        b = rng.choice((a.inverse(), a, ErrPerm.identity_on(dom, space), ErrPerm.identity(space)))
        accepted = oracles.points(b) == oracles.points(oracles.inverse(a))
        seen.add(accepted)
        if accepted:
            AlmostAction(pres, space, {"a": a, "b": b})
        else:
            with pytest.raises(PermstabError, match="^images of 'a' and 'b' are not mutually inverse$"):
                AlmostAction(pres, space, {"a": a, "b": b})
    assert seen == {True, False}
    # a three-cycle is not its own inverse; a partial involution is its own partner
    cyc = ErrPerm.from_cycle((0, 1, 2), 3)
    with pytest.raises(PermstabError, match="not mutually inverse"):
        AlmostAction(pres, 3, {"a": cyc, "b": cyc})
    AlmostAction(pres, 3, {"a": cyc, "b": cyc.inverse()})
    part = ErrPerm(3, (1, 2), (2, 1))
    AlmostAction(pres, 3, {"a": part, "b": part})
    with pytest.raises(PermstabError, match="not mutually inverse"):
        AlmostAction(pres, 3, {"a": part, "b": ErrPerm(3, (0, 1, 2), (0, 2, 1))})


def test_defect_and_stage_report_match_the_oracle():
    for s in range(20):
        cfg = ExperimentConfig(seed=s, epsilon=Fraction((0, 1, 1, 1)[s % 4], (1, 100, 20, 10)[s % 4]),
                               fiber=4 + s % 5, extra=s % 3)
        raw = build_instance(cfg)[2]
        out, report = normalize_sofic_approx(raw)
        assert defect(raw) == oracles.defect(raw) == report.defect_in == report.eps, cfg
        assert report.defect_out == oracles.defect(out) == defect(out), cfg


# sha256 of the CSV below, computed before relations were counted over point columns
SWEEP_CSV_SHA256 = "e4a7fdf4a9d0cd24c58f9d310fe1597cf39be7547057db5cc3fe1d5fcedd7a5e"


def test_sweep_csv_bytes_are_pinned():
    rows = []
    for fiber, extra in ((12, 2), (24, 0), (48, 2)):
        epsilons = [Fraction(0), Fraction(1, 50), Fraction(1, 20), Fraction(1, 10)]
        rows += sweep(epsilons, seeds=[3, 11], fiber=fiber, extra=extra)
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == SWEEP_CSV_SHA256


def test_pipeline_report_is_the_same_with_the_measured_defect_passed_in():
    for cfg in (
        ExperimentConfig(seed=2, epsilon=Fraction(1, 10), fiber=12, extra=2),
        ExperimentConfig(seed=1, epsilon=Fraction(1, 10), fiber=24),
        ExperimentConfig(seed=2, epsilon=Fraction(1, 20), fiber=24),
    ):
        _, report = run_pipeline(cfg)
        x, phi, raw, f = build_instance(cfg)
        psi, stage = normalize_sofic_approx(raw)
        assert stage.defect_in != stage.defect_out, cfg
        assert report == contradiction_experiment(phi, psi, f), cfg
