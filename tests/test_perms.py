import re
from fractions import Fraction
from itertools import permutations
from operator import ne

import pytest
from hypothesis import given, settings, strategies as st

from permstab.errors import PermstabError
from permstab.perms import (
    ErrPerm,
    commute_with_sign_flip,
    commutes_with_flip,
    compose,
    fix_fixed_point_free,
    fix_to_involution,
    hamming,
    sign_flip,
    signed_encode,
)
from permstab.rng import SplitMix64


def random_perm(rng, pts, size=None):
    pts = sorted(pts)
    images = list(pts)
    rng.shuffle(images)
    return ErrPerm(size if size is not None else len(pts), tuple(pts), tuple(images))


def all_involutions(n):
    for p in permutations(range(n)):
        perm = ErrPerm.from_one_line(p)
        if all(perm.apply(perm.apply(i)) == i for i in range(n)):
            yield perm


# -- hamming -----------------------------------------------------------------


def test_hamming_basics():
    ident = ErrPerm.identity(4)
    assert hamming(ident, ident) == 0
    # the larger underlying set is the denominator; its undefined points are mismatches
    small = ErrPerm.identity_on([1, 2, 3], 4)
    big = ErrPerm.identity_on([1, 2, 3, 4], 5)
    assert hamming(small, big) == hamming(big, small) == Fraction(2, 5)
    swap = ErrPerm.from_mapping({1: 2, 2: 1, 3: 3, 4: 4}, 5)
    assert hamming(big, swap) == Fraction(3, 5)


def test_hamming_incomparable_rejected():
    a = ErrPerm.identity_on([0, 1], 3)
    b = ErrPerm.identity_on([1, 2], 3)
    with pytest.raises(PermstabError):
        hamming(a, b)


def test_hamming_triangle_inequality_mixed_domains():
    rng = SplitMix64(101)
    for _ in range(1000):
        n1 = 2 + rng.below(6)
        n2 = n1 + rng.below(4)
        n3 = n2 + rng.below(4)
        a = random_perm(rng, range(n1))
        b = random_perm(rng, range(n2))
        c = random_perm(rng, range(n3))
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)
        assert hamming(a, c) == hamming(c, a)


def test_composition_distance_bound():
    rng = SplitMix64(103)
    for _ in range(1000):
        n = 2 + rng.below(6)
        m = n + rng.below(4)
        s1, s2 = random_perm(rng, range(n)), random_perm(rng, range(n))
        z1, z2 = random_perm(rng, range(m)), random_perm(rng, range(m))
        lhs = hamming(compose(s1, s2), compose(z1, z2))
        assert lhs <= hamming(s1, z1) + hamming(s2, z2)


def test_error_absorption():
    partial = ErrPerm(4, (0, 1), (1, 0))  # undefined on 2, 3
    ident = ErrPerm.identity(4)
    out = compose(partial, ident)
    assert out.apply(2) == -1 and out.apply(0) == 1
    # once lost, a point stays lost
    assert compose(ident, out).domain == out.domain


# -- nearest involution --------------------------------------------------------


def test_fix_to_involution_examples():
    swap = ErrPerm.from_cycle((0, 1), 2)
    assert fix_to_involution(swap) == swap

    three = ErrPerm.from_cycle((0, 1, 2), 3)
    tau = fix_to_involution(three)
    assert tau == ErrPerm.identity(3)
    assert hamming(three, tau) == 1 == hamming(compose(three, three), ErrPerm.identity(3))

    mixed = ErrPerm.from_mapping({0: 1, 1: 0, 2: 3, 3: 4, 4: 2})
    tau = fix_to_involution(mixed)
    assert tau == ErrPerm.from_mapping({0: 1, 1: 0, 2: 2, 3: 3, 4: 4})
    assert hamming(mixed, tau) == Fraction(3, 5)


def test_fix_to_involution_identity_exhaustive():
    ident6 = ErrPerm.identity(6)
    for p in permutations(range(6)):
        zeta = ErrPerm.from_one_line(p)
        tau = fix_to_involution(zeta)
        assert compose(tau, tau) == ident6
        assert hamming(zeta, tau) == hamming(compose(zeta, zeta), ident6)


def cycle_lengths(line):
    seen, out = set(), []
    for x in range(len(line)):
        if x not in seen:
            k, y = 0, x
            while y not in seen:
                seen.add(y)
                y, k = line[y], k + 1
            out.append(k)
    return out


def test_fix_to_involution_is_not_always_the_nearest():
    # the 3-cycle goes to the identity at distance 1; the transposition (1, 0, 2) is at 2/3
    zeta = ErrPerm.from_one_line((1, 2, 0))
    assert fix_to_involution(zeta) == ErrPerm.identity(3)
    assert hamming(fix_to_involution(zeta), zeta) == 1
    assert hamming(ErrPerm.from_one_line((1, 0, 2)), zeta) == Fraction(2, 3)


def test_nearest_involution_distance_closed_form_exhaustive():
    """For n <= 6 the nearest involution is at (1/n) * sum of ceil(k/2) over the cycles of length k >= 3.

    ``fix_to_involution`` moves (1/n) * sum of k over the same cycles: never
    nearer than that optimum, at most twice as far, and strictly farther on
    every permutation with a cycle of length 3 or more.
    """
    for n in range(1, 7):
        involutions = [q for q in permutations(range(n)) if all(q[q[x]] == x for x in range(n))]
        for p in permutations(range(n)):
            nearest = Fraction(min(sum(map(ne, p, q)) for q in involutions), n)
            long_cycles = [k for k in cycle_lengths(p) if k >= 3]
            assert nearest == Fraction(sum((k + 1) // 2 for k in long_cycles), n)
            repaired = hamming(fix_to_involution(ErrPerm.from_one_line(p)), ErrPerm.from_one_line(p))
            assert repaired == Fraction(sum(long_cycles), n)
            assert nearest <= repaired <= 2 * nearest
            assert (repaired == nearest) == (not long_cycles)


# -- fixed point removal --------------------------------------------------------


def test_fix_fixed_point_free_examples():
    swap = ErrPerm.from_cycle((0, 1), 2)
    assert fix_fixed_point_free(swap) == swap

    one = ErrPerm.identity(1)
    out = fix_fixed_point_free(one)
    assert out.size == 2 and out.apply(0) == 1 and out.apply(1) == 0
    assert hamming(one, out) == 1

    partial_fix = ErrPerm.from_mapping({0: 1, 1: 0, 2: 2, 3: 3})
    out = fix_fixed_point_free(partial_fix)
    assert out == ErrPerm.from_mapping({0: 1, 1: 0, 2: 3, 3: 2})
    assert hamming(partial_fix, out) == Fraction(1, 2)


def test_fix_fixed_point_free_exhaustive():
    for n in range(1, 9):
        for zeta in all_involutions(n):
            out = fix_fixed_point_free(zeta)
            assert out.size == 2 * ((n + 1) // 2)
            assert out.is_total and out.is_bijection
            assert all(out.apply(x) != x for x in out.domain)
            assert all(out.apply(out.apply(x)) == x for x in out.domain)
            n_fixed = len(zeta.fixed_points())
            assert hamming(zeta, out) <= Fraction(n_fixed + 1, n)
            eps = Fraction(n_fixed, n)
            assert hamming(zeta, out) <= 2 * eps or n_fixed == 0

    with pytest.raises(PermstabError):
        fix_fixed_point_free(ErrPerm.from_cycle((0, 1, 2), 3))


# -- sign flip commutation -------------------------------------------------------


def test_sign_flip_structure():
    flip = sign_flip(3)
    assert commutes_with_flip(flip)
    assert flip.apply(signed_encode(1, 2)) == signed_encode(-1, 2)


@pytest.mark.parametrize("check", [commutes_with_flip, commute_with_sign_flip])
@pytest.mark.parametrize(
    "perm, message",
    [
        (ErrPerm.from_cycle((0, 1, 2), 3), "need a genuine permutation of an even-size range"),
        (ErrPerm(4, (0, 1, 2), (1, 0, 2)), "need a genuine permutation of an even-size range"),
        (ErrPerm(6, (0, 1), (0, 5)), "need a genuine permutation of an even-size range"),
    ],
)
def test_signed_double_is_a_permutation_of_an_even_range(check, perm, message):
    with pytest.raises(PermstabError, match=f"^{re.escape(message)}$"):
        check(perm)


def test_signed_double_labels_past_the_size_are_refused_when_built():
    # a relabeled double outside range(2n) never reaches the sign-flip checks
    for mapping in ({1: 2, 2: 1}, {0: 0, 1: 5}):
        with pytest.raises(PermstabError, match=r"^point label outside range\(2\)$"):
            ErrPerm.from_mapping(mapping)


# -- the label contract ----------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_errperm_refuses_exactly_the_labels_outside_its_range(data):
    size = data.draw(st.integers(0, 8))
    labels = st.integers(-3, size + 3)
    domain = tuple(sorted(data.draw(st.sets(labels, max_size=size + 2))))
    images = tuple(data.draw(st.lists(labels, min_size=len(domain), max_size=len(domain), unique=True)))
    if all(0 <= p < size for p in domain + images):
        perm = ErrPerm(size, domain, images)
        assert all(perm.apply(x) == y for x, y in zip(domain, images))
    else:
        with pytest.raises(PermstabError, match=rf"^point label outside range\({size}\)$"):
            ErrPerm(size, domain, images)


@pytest.mark.parametrize(
    "size, domain, images, ok",
    [
        (3, (0, 2), (2, 0), True),
        (3, (1, 3), (0, 2), False),  # the last point equals the size
        (3, (0,), (3,), False),  # an image equals the size
        (3, (-1, 0), (0, 1), False),  # a negative point
        (3, (0, 1), (-1, 1), False),  # a negative image, the smallest one
        (3, (0, 1), (1, -1), False),  # a negative image, not the first
        (0, (), (), True),
    ],
)
def test_errperm_label_bounds_at_the_edges(size, domain, images, ok):
    if ok:
        assert ErrPerm(size, domain, images).domain == domain
    else:
        with pytest.raises(PermstabError, match=r"^point label outside range"):
            ErrPerm(size, domain, images)


def test_commute_examples():
    flip = sign_flip(2)
    assert commute_with_sign_flip(flip) == flip  # central element

    # swaps +0 <-> +1 while fixing -0, -1: nothing is sign-consistent
    zeta = ErrPerm.from_one_line((2, 1, 0, 3))
    sigma = commute_with_sign_flip(zeta)
    assert sigma == ErrPerm.identity(4)
    d = hamming(sigma, zeta)
    comm = _flip_commutator(zeta)
    assert d == Fraction(1, 2) and hamming(comm, ErrPerm.identity(4)) == 1
    assert d <= hamming(comm, ErrPerm.identity(4))


def test_commute_with_sign_flip_is_not_always_the_nearest():
    # (0, 2, 3, 1) goes to the identity at distance 3/4; the flip-commuting (0, 1, 3, 2) is at 2/4
    zeta = ErrPerm.from_one_line((0, 2, 3, 1))
    sigma = commute_with_sign_flip(zeta)
    assert sigma == ErrPerm.identity(4) and hamming(sigma, zeta) == Fraction(3, 4)
    nearer = ErrPerm.from_one_line((0, 1, 3, 2))
    assert commutes_with_flip(nearer) and hamming(nearer, zeta) == Fraction(2, 4)
    # what the repair does guarantee: no farther than the flip commutator from the identity
    assert hamming(sigma, zeta) <= hamming(_flip_commutator(zeta), ErrPerm.identity(4))


def _flip_commutator(zeta: ErrPerm) -> ErrPerm:
    flip = sign_flip(zeta.size // 2)
    z = zeta
    return compose(compose(flip, z), compose(flip.inverse(), z.inverse()))


def test_commute_exhaustive_small():
    ident6 = ErrPerm.identity(6)
    for p in permutations(range(6)):
        zeta = ErrPerm.from_one_line(p)
        sigma = commute_with_sign_flip(zeta)
        assert commutes_with_flip(sigma)
        bound = hamming(_flip_commutator(zeta), ident6)
        assert hamming(sigma, zeta) <= bound
        if commutes_with_flip(zeta):
            assert sigma == zeta


def test_commute_repair_is_inverse_equivariant():
    # the cover machinery needs repaired inverse pairs to stay mutually
    # inverse; the increasing-order extension guarantees it
    for p in permutations(range(6)):
        zeta = ErrPerm.from_one_line(p)
        inv = zeta.inverse()
        lhs = commute_with_sign_flip(inv)
        rhs = commute_with_sign_flip(zeta).inverse()
        assert lhs == rhs
