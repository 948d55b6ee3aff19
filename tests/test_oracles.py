"""Differential tests of ``perms`` and the sign lifts against the naive oracles.

Inputs cover partial images, unequal sizes, the empty set and composites
whose points reach ``ERROR``.  ``commute_with_sign_flip``'s tie rule has no naive
definition, so its outputs over seeded signed permutations are pinned by a
sha256 digest instead.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from permstab.actions import AlmostAction, induced_quotient_action
from permstab.cohomology import F2Cochain
from permstab.complexes import Presentation, annulus, edge_gen, full_triangle
from permstab.errors import PermstabError
from permstab.experiments import sign_twisted_lift
from permstab.perms import (
    ERROR,
    ErrPerm,
    commute_with_sign_flip,
    commutes_with_flip,
    compose,
    fix_fixed_point_free,
    fix_to_involution,
    hamming,
)

SEEDS = st.integers(0, 2**32 - 1)


def random_errperm(rng: random.Random, size: int, domain=None) -> ErrPerm:
    """A partial injection of range(size) on ``domain`` (a random subset when None)."""
    if domain is None:
        domain = rng.sample(range(size), rng.randrange(0, size + 1))
    domain = sorted(domain)
    images = rng.sample(range(size), len(domain))
    return ErrPerm(size, tuple(domain), tuple(images))


def random_total(rng: random.Random, size: int) -> ErrPerm:
    return random_errperm(rng, size, range(size))


def random_signed(rng: random.Random, n: int) -> ErrPerm:
    """A permutation of range(2n): sign-equivariant, then spoiled by 0-3 random transpositions."""
    shadow = rng.sample(range(n), n)
    images = []
    for y in shadow:
        bit = rng.randrange(2)
        images += [2 * y + bit, 2 * y + (1 - bit)]
    for _ in range(rng.randrange(4) if n else 0):
        i, j = rng.randrange(2 * n), rng.randrange(2 * n)
        images[i], images[j] = images[j], images[i]
    return ErrPerm.from_one_line(images)


def fields(perm: ErrPerm):
    return perm.size, perm.domain, perm.images


def same_outcome(run, oracle):
    """Both return equal values, or both raise a ``PermstabError`` with the same message, which is returned."""
    try:
        want = oracle()
    except PermstabError as exc:
        with pytest.raises(PermstabError) as got:
            run()
        assert str(got.value) == str(exc)
        return str(exc)
    got = run()
    assert (fields(got) if isinstance(got, ErrPerm) else got) == (fields(want) if isinstance(want, ErrPerm) else want)


# -- the point views ------------------------------------------------------------


def check_point_views(rng: random.Random):
    perm = random_errperm(rng, rng.randrange(0, 9))
    table = oracles.points(perm)
    assert [perm.apply(x) for x in range(-3, perm.size + 4)] == [table.get(x, ERROR) for x in range(-3, perm.size + 4)]
    assert fields(perm.inverse()) == fields(oracles.from_points(perm.size, {y: x for x, y in table.items()}))
    assert perm.is_total == (len(table) == perm.size)
    assert perm.is_bijection == (set(table) == set(table.values()))
    assert perm.fixed_points() == tuple(x for x in sorted(table) if table[x] == x)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS)
def test_point_views_match_the_point_map(seed):
    check_point_views(random.Random(seed))


def test_point_views_match_the_point_map_seeded():
    rng = random.Random(25001)
    for _ in range(2000):
        check_point_views(rng)


# -- compose and hamming --------------------------------------------------------


def check_compose(rng: random.Random):
    f = random_errperm(rng, rng.randrange(0, 8))
    g = random_errperm(rng, rng.randrange(0, 8))
    h = random_errperm(rng, rng.randrange(0, 8))
    assert fields(compose(f, g)) == fields(oracles.compose(f, g))
    assert fields(compose(f, compose(g, h))) == fields(oracles.compose(f, g, h))
    assert fields(compose(compose(f, g), h)) == fields(oracles.compose(f, g, h))


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS)
def test_compose_matches_the_left_fold(seed):
    check_compose(random.Random(seed))


def test_compose_matches_the_left_fold_seeded():
    rng = random.Random(25002)
    for _ in range(2000):
        check_compose(rng)


def test_compose_reaches_error_past_the_smaller_set():
    f = ErrPerm(3, (0, 1, 2), (2, 0, 1))
    g = ErrPerm(5, (0, 1, 2, 3, 4), (4, 3, 2, 1, 0))
    assert fields(compose(f, g)) == (5, (2, 3, 4), (1, 0, 2))
    assert fields(compose(g, f)) == (5, (0, 1, 2), (2, 4, 3))
    assert fields(compose(ErrPerm.identity(0), ErrPerm.identity(0))) == (0, (), ())


def random_pair(rng: random.Random):
    """Two partial injections, of sizes drawn apart; one domain usually contains the other."""
    a = random_errperm(rng, rng.randrange(0, 8))
    size = rng.randrange(0, 8)
    kind = rng.randrange(3)
    if kind == 0 and (not a.domain or a.domain[-1] < size):  # b's domain contains a's
        extra = [x for x in range(size) if x not in a.domain]
        domain = list(a.domain) + rng.sample(extra, rng.randrange(0, len(extra) + 1))
        b = random_errperm(rng, size, domain)
        images, table = list(b.images), oracles.points(a)
        for i, x in enumerate(b.domain):  # agree with a on part of the shared points
            y = table.get(x, size)
            if y < size and y not in images and rng.random() < 0.7:
                images[i] = y
        b = ErrPerm(size, b.domain, tuple(images))
    elif kind == 1:  # b's domain lies inside a's
        b = random_errperm(rng, size, [x for x in a.domain if x < size and rng.random() < 0.6])
    else:
        b = random_errperm(rng, size)
    return (a, b) if rng.random() < 0.5 else (b, a)


def check_hamming(rng: random.Random):
    a, b = random_pair(rng)
    same_outcome(lambda: hamming(a, b), lambda: oracles.hamming(a, b))


@settings(max_examples=400, deadline=None)
@given(seed=SEEDS)
def test_hamming_matches_the_definition(seed):
    check_hamming(random.Random(seed))


def test_hamming_matches_the_definition_seeded():
    rng = random.Random(25003)
    for _ in range(4000):
        check_hamming(rng)


def test_hamming_divides_by_the_larger_set():
    small, large = ErrPerm.identity(2), ErrPerm.identity(6)
    assert hamming(small, large) == hamming(large, small) == oracles.hamming(small, large) == Fraction(2, 3)
    assert hamming(ErrPerm.identity(0), ErrPerm.identity(0)) == 0
    assert hamming(ErrPerm.identity(0), ErrPerm.identity(3)) == 1
    with pytest.raises(PermstabError, match="^incomparable domains"):
        hamming(ErrPerm(4, (0, 1), (0, 1)), ErrPerm(3, (1, 2), (1, 2)))


# -- the sign repairs -----------------------------------------------------------


def check_commutes(rng: random.Random):
    perm = random_signed(rng, rng.randrange(0, 6))
    same_outcome(lambda: commutes_with_flip(perm), lambda: oracles.commutes_with_flip(perm))
    odd = random_total(rng, 2 * rng.randrange(0, 4) + 1)
    partial = random_errperm(rng, 2 * rng.randrange(1, 4))
    for bad in (odd, partial):
        same_outcome(lambda: commutes_with_flip(bad), lambda: oracles.commutes_with_flip(bad))


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS)
def test_commutes_with_flip_matches_the_definition(seed):
    check_commutes(random.Random(seed))


def test_commutes_with_flip_matches_the_definition_seeded():
    rng = random.Random(25004)
    for _ in range(2000):
        check_commutes(rng)


def check_involution_repairs(rng: random.Random):
    zeta = random_total(rng, rng.randrange(0, 9))
    assert fields(fix_to_involution(zeta)) == fields(oracles.fix_to_involution(zeta))
    inv = oracles.fix_to_involution(zeta)
    assert fields(fix_fixed_point_free(inv)) == fields(oracles.fix_fixed_point_free(inv))
    if oracles.compose(zeta, zeta) != ErrPerm.identity(zeta.size):
        with pytest.raises(PermstabError, match="^input is not an involution$"):
            fix_fixed_point_free(zeta)
    partial = random_errperm(rng, rng.randrange(1, 6))
    if len(partial.domain) < partial.size:
        for repair in (fix_to_involution, fix_fixed_point_free):
            with pytest.raises(PermstabError, match="^need a genuine permutation$"):
                repair(partial)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS)
def test_involution_repairs_match_their_definitions(seed):
    check_involution_repairs(random.Random(seed))


def test_involution_repairs_match_their_definitions_seeded():
    rng = random.Random(25005)
    for _ in range(2000):
        check_involution_repairs(rng)


COMMUTE_REPAIR_SHA256 = "06d3fe033f3906c5c9ebf8bc6fef6a43b21d3d9b534f2840ce34cc7d1154dbd6"


def test_commute_repair_outputs_are_pinned():
    rng = random.Random(25006)
    lines = []
    for _ in range(1500):
        zeta = random_signed(rng, rng.randrange(0, 9))
        lines.append(f"{zeta.images} -> {commute_with_sign_flip(zeta).images}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == COMMUTE_REPAIR_SHA256


# -- the quotient and the lift --------------------------------------------------


def signed_action(rng: random.Random, n: int) -> AlmostAction:
    """tau, mostly as the sign flip, and two images of the signed double of range(n), often flip-commuting."""
    images = {"tau": oracles.flip(n) if rng.random() < 0.9 else random_signed(rng, n)}
    for g in ("a", "b"):
        images[g] = random_signed(rng, n)
    if rng.random() < 0.2 and n:  # a partial identity
        keep = tuple(sorted(rng.sample(range(2 * n), 2 * n - 1)))
        images["b"] = ErrPerm(2 * n, keep, keep)
    return AlmostAction(Presentation(("tau", "a", "b"), (), ()), 2 * n, images)


def induced_by_oracle(action: AlmostAction) -> dict:
    if action.image("tau") != oracles.flip(action.space // 2):
        raise PermstabError("'tau' does not act as the sign flip")
    for g in ("a", "b"):
        perm = action.image(g)
        if len(perm.domain) < perm.size:
            raise PermstabError(f"image of {g!r} is partial")
        if not oracles.commutes_with_flip(perm):
            raise PermstabError(f"image of {g!r} does not commute with the sign flip")
    return {g: fields(oracles.unsigned_shadow(action.image(g))) for g in ("a", "b")}


def check_induced_quotient(rng: random.Random):
    action = signed_action(rng, rng.randrange(0, 6))

    def run():
        quotient = induced_quotient_action(action)
        assert quotient.space == action.space // 2
        return {g: fields(quotient.image(g)) for g in ("a", "b")}

    same_outcome(run, lambda: induced_by_oracle(action))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS)
def test_induced_quotient_action_matches_the_shadow(seed):
    check_induced_quotient(random.Random(seed))


def test_induced_quotient_action_matches_the_shadow_seeded():
    rng = random.Random(25007)
    for _ in range(1000):
        check_induced_quotient(rng)


def lift_inputs(rng: random.Random):
    """A complex, edge signs, an action of its edge generators with inverse edges inverse, and n.

    Mostly every image preserves range(n); sometimes one edge's does not, or
    is a partial identity, or n is 0 or past the action's set.
    """
    x = annulus() if rng.random() < 0.3 else full_triangle()
    m = rng.randrange(1, 6)
    n = rng.randrange(1, m + 1) if rng.random() < 0.8 else rng.choice((0, m + 1))
    k = min(n, m)
    edges = x.cells(1)
    bad = rng.choice(edges) if rng.random() < 0.3 else None
    images = {}
    for (a, b) in edges:
        if (a, b) != bad:
            perm = ErrPerm.from_one_line(rng.sample(range(k), k) + rng.sample(range(k, m), m - k))
        elif rng.random() < 0.5:
            perm = random_total(rng, m)
        else:
            keep = tuple(sorted(rng.sample(range(m), m - 1)))
            perm = ErrPerm(m, keep, keep)
        images[edge_gen(a, b)] = perm
        images[edge_gen(b, a)] = oracles.from_points(m, {y: x for x, y in oracles.points(perm).items()})
    f = AlmostAction(Presentation(tuple(images), (), ()), m, images)
    signs = F2Cochain(x, 1, rng.getrandbits(len(edges)))
    return x, f, signs, n


def lift_by_oracle(f: AlmostAction, signs: F2Cochain, n: int) -> dict:
    x = signs.complex
    out = {"tau": fields(oracles.flip(n))}
    for (a, b) in x.cells(1):
        for (u, v) in ((a, b), (b, a)):
            perm = f.image(edge_gen(u, v))
            table = oracles.points(perm)
            if any(not 0 <= table.get(t, ERROR) < n for t in range(n)):
                raise PermstabError("the action does not preserve the lifted points")
            out[edge_gen(u, v)] = fields(oracles.twisted_lift(perm, n, signs((a, b))))
    return out


def check_lift(rng: random.Random):
    x, f, signs, n = lift_inputs(rng)

    def run():
        lift = sign_twisted_lift(f, signs, n)
        assert lift.space == 2 * n
        return {g: fields(p) for g, p in lift.images.items()}

    same_outcome(run, lambda: lift_by_oracle(f, signs, n))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS)
def test_sign_twisted_lift_matches_the_signed_double(seed):
    check_lift(random.Random(seed))


def test_sign_twisted_lift_matches_the_signed_double_seeded():
    rng = random.Random(25008)
    for _ in range(600):
        check_lift(rng)
