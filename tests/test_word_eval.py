"""Differential tests of word evaluation against the compose-based reference.

``reference_evaluate_word`` is the evaluation the package used before
``apply_word`` and the one-pass ``evaluate_word``: one validated composite
per letter, starting from the identity on ``range(space)``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import permstab.actions as actions
from permstab.actions import AlmostAction, apply_word, defect, evaluate_word, normalize_sofic_approx
from permstab.complexes import Presentation
from permstab.errors import PermstabError
from permstab.experiments import ExperimentConfig, build_instance
from permstab.perms import ErrPerm, compose

GENS = ("a", "b", "c", "A")


def reference_evaluate_word(action, word):
    result = ErrPerm.identity(action.space)
    for sym, exp in word:
        if sym not in action.images:
            raise PermstabError(f"unknown generator {sym!r}")
        perm = action.images[sym]
        if exp < 0:
            perm = perm.inverse()
        result = compose(result, perm)
    return result


def random_action(rng: random.Random) -> AlmostAction:
    """Partial bijections on labels up to space+2, so some labels reach past ``space``."""
    space = rng.randrange(0, 7)
    images = {}
    for g in GENS[:3]:
        dom = rng.sample(range(space + 3), rng.randrange(0, space + 1))
        img = list(dom)
        rng.shuffle(img)
        images[g] = ErrPerm.from_mapping(dict(zip(dom, img)), space)
    images["A"] = images["a"].inverse()
    return AlmostAction(Presentation(GENS, (), (("a", "A"),)), space, images)


def random_word(rng: random.Random, unknown: bool):
    letters = GENS + (("z", "y") if unknown else ())
    return tuple((rng.choice(letters), rng.choice((1, -1))) for _ in range(rng.randrange(0, 7)))


def check_against_reference(action, word):
    try:
        want = reference_evaluate_word(action, word)
    except PermstabError as exc:
        for run in (lambda: evaluate_word(action, word), lambda: apply_word(action, word, 0)):
            with pytest.raises(PermstabError) as got:
                run()
            assert str(got.value) == str(exc)
        return
    got = evaluate_word(action, word)
    assert (got.size, got.domain, got.images) == (want.size, want.domain, want.images)
    for x in range(-1, action.space + 4):
        assert apply_word(action, word, x) == want.apply(x)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), unknown=st.booleans())
def test_word_evaluation_matches_reference(seed, unknown):
    rng = random.Random(seed)
    action = random_action(rng)
    check_against_reference(action, random_word(rng, unknown))


def test_word_evaluation_matches_reference_seeded():
    rng = random.Random(20241003)
    for _ in range(2000):
        action = random_action(rng)
        check_against_reference(action, random_word(rng, unknown=rng.random() < 0.2))


def test_labels_past_space_and_edge_words():
    pres = Presentation(("p", "q"), ())
    p = ErrPerm(3, (1, 2, 3), (2, 3, 1))
    q = ErrPerm(3, (0, 1, 2), (1, 2, 0))
    act = AlmostAction(pres, 3, {"p": p, "q": q})
    for word in ((), (("p", 1),), (("p", -1),), (("q", 1), ("p", 1)), (("p", 1), ("q", -1), ("p", -1))):
        check_against_reference(act, word)
    # p maps 2 to 3, outside range(3): the identity the evaluation starts from sends it to ERROR
    assert apply_word(act, (("p", 1),), 2) == -1
    assert evaluate_word(act, (("p", 1),)) == ErrPerm(3, (1, 3), (2, 1))
    assert apply_word(act, (), 3) == -1 and apply_word(act, (), 2) == 2
    # the first unknown letter reading left to right is named, whatever its place
    for run in (lambda w: evaluate_word(act, w), lambda w: apply_word(act, w, 0)):
        with pytest.raises(PermstabError, match="unknown generator 'x'"):
            run((("p", 1), ("x", 1), ("y", -1)))


def test_defect_and_stage_report_match_reference(monkeypatch):
    configs = [
        ExperimentConfig(seed=s, epsilon=Fraction((0, 1, 1, 1)[s % 4], (1, 100, 20, 10)[s % 4]),
                         fiber=4 + s % 5, extra=s % 3)
        for s in range(20)
    ]
    got = []
    for cfg in configs:
        raw = build_instance(cfg)[2]
        out, report = normalize_sofic_approx(raw)
        got.append((defect(raw), report, out.space, out.images))
    monkeypatch.setattr(actions, "evaluate_word", reference_evaluate_word)
    for cfg, result in zip(configs, got):
        raw = build_instance(cfg)[2]
        out, report = normalize_sofic_approx(raw)
        assert result == (defect(raw), report, out.space, out.images), cfg
