"""Naive definitions read straight off the mathematics, for differential tests.

Every oracle works point by point on the plain ``domain``/``images`` fields of
an ``ErrPerm``, through ``points``, and calls none of the ``perms`` functions it
is compared with; ``ErrPerm`` is only used to hold a result.  A point outside a
domain goes to ``ERROR``, which is no point of any domain, so it absorbs.
"""

from fractions import Fraction
from functools import reduce

from permstab.errors import PermstabError
from permstab.perms import ERROR, ErrPerm


def points(perm: ErrPerm) -> dict[int, int]:
    """The point map of ``perm``: each domain point to its image."""
    return dict(zip(perm.domain, perm.images))


def from_points(size: int, mapping: dict[int, int]) -> ErrPerm:
    dom = tuple(sorted(mapping))
    return ErrPerm(size, dom, tuple(mapping[x] for x in dom))


def compose(*perms: ErrPerm) -> ErrPerm:
    """The product of ``perms``, rightmost first, on the largest of their sets.

    Each point is carried through the letters by a left fold over the
    reversed word; it is in the result's domain when it never meets ``ERROR``.
    """
    maps = [points(p) for p in perms]
    size = max(p.size for p in perms)
    mapping = {}
    for x in range(size):
        y = reduce(lambda v, m: m.get(v, ERROR), reversed(maps), x)
        if y != ERROR:
            mapping[x] = y
    return from_points(size, mapping)


def hamming(a: ErrPerm, b: ErrPerm) -> Fraction:
    """P[a(x) != b(x)] over range(max size), where an undefined value is a mismatch.

    Refuses two domains of which neither contains the other.
    """
    ma, mb = points(a), points(b)
    if not (ma.keys() <= mb.keys() or mb.keys() <= ma.keys()):
        raise PermstabError("incomparable domains: neither contains the other")
    size = max(a.size, b.size)
    if size == 0:
        return Fraction(0)
    mismatches = sum(1 for x in range(size) if x not in ma or x not in mb or ma[x] != mb[x])
    return Fraction(mismatches, size)


def is_signed_double(perm: ErrPerm) -> bool:
    """Whether ``perm`` is a permutation of an even range, as the sign repairs need."""
    return perm.domain == tuple(range(perm.size)) and sorted(perm.images) == list(perm.domain) and perm.size % 2 == 0


def flip(n: int) -> ErrPerm:
    """The sign flip of the signed double of range(n): +x = 2x and -x = 2x+1 swap."""
    return from_points(2 * n, {p: p ^ 1 for p in range(2 * n)})


def commutes_with_flip(perm: ErrPerm) -> bool:
    """``perm`` after the flip equals the flip after ``perm``."""
    if not is_signed_double(perm):
        raise PermstabError("need a genuine permutation of an even-size range")
    f = flip(perm.size // 2)
    return compose(perm, f) == compose(f, perm)


def fix_to_involution(zeta: ErrPerm) -> ErrPerm:
    """``zeta`` on the points its square fixes, the identity elsewhere."""
    z = points(zeta)
    square = points(compose(zeta, zeta))
    return from_points(zeta.size, {x: z[x] if square[x] == x else x for x in range(zeta.size)})


def fix_fixed_point_free(zeta: ErrPerm) -> ErrPerm:
    """Pair the fixed points of an involution in increasing order; an odd one out pairs with a new point."""
    z = points(zeta)
    fixed = [x for x in range(zeta.size) if z[x] == x]
    if len(fixed) % 2:
        fixed.append(zeta.size)
    mapping = {x: y for x, y in z.items() if x != y}
    for a, b in zip(fixed[::2], fixed[1::2]):
        mapping[a], mapping[b] = b, a
    return from_points(len(mapping), mapping)


def unsigned_shadow(perm: ErrPerm) -> ErrPerm:
    """The permutation of range(n) that a flip-commuting ``perm`` of the signed double induces: x -> |perm(+x)|."""
    p = points(perm)
    n = perm.size // 2
    return from_points(n, {x: p[2 * x] // 2 for x in range(n)})


def twisted_lift(perm: ErrPerm, n: int, bit: int) -> ErrPerm:
    """The signed double of ``perm`` on range(n), every sign multiplied by (-1)**bit: (s, t) -> (s * (-1)**bit, perm(t))."""
    p = points(perm)
    mapping = {}
    for t in range(n):
        for sign in (1, -1):
            out_sign = -sign if bit else sign
            mapping[2 * t + (sign < 0)] = 2 * p[t] + (out_sign < 0)
    return from_points(2 * n, mapping)
