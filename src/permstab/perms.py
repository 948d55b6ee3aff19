"""Permutations evaluated inside a superset, with an explicit error element.

An ``ErrPerm`` is a partial injection of integer labels together with the
cardinality of its underlying set; evaluation outside the domain returns the
distinguished ``ERROR`` element, which composition absorbs.  A genuine
permutation of a set has ``len(domain) == size``.  ``SignedPerm`` carries the
signed-point structure used by the sign-flip repair: point +x is encoded as
2x and -x as 2x+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import PermstabError

ERROR = -1


@dataclass(frozen=True)
class ErrPerm:
    size: int
    domain: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.images):
            raise PermstabError("domain/image length mismatch")
        if len(self.domain) > self.size:
            raise PermstabError("domain larger than the underlying set")
        if any(self.domain[i] >= self.domain[i + 1] for i in range(len(self.domain) - 1)):
            raise PermstabError("domain must be strictly increasing")
        if any(v < 0 for v in self.domain) or any(v < 0 for v in self.images):
            raise PermstabError("negative point label")
        if len(set(self.images)) != len(self.images):
            raise PermstabError("images not injective")

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(zip(self.domain, self.images))

    @cached_property
    def _inverse_map(self) -> dict[int, int]:
        return dict(zip(self.images, self.domain))

    def apply(self, x: int) -> int:
        return self._map.get(x, ERROR)

    def __call__(self, x: int) -> int:
        return self.apply(x)

    @property
    def is_total(self) -> bool:
        return len(self.domain) == self.size

    @property
    def is_bijection(self) -> bool:
        return set(self.domain) == set(self.images)

    def inverse(self) -> "ErrPerm":
        pairs = sorted(zip(self.images, self.domain))
        return ErrPerm(
            self.size,
            tuple(p[0] for p in pairs),
            tuple(p[1] for p in pairs),
        )

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(x for x in self.domain if self._map[x] == x)

    @staticmethod
    def identity(n: int) -> "ErrPerm":
        pts = tuple(range(n))
        return ErrPerm(n, pts, pts)

    @staticmethod
    def identity_on(points, size=None) -> "ErrPerm":
        pts = tuple(sorted(points))
        return ErrPerm(size if size is not None else len(pts), pts, pts)

    @staticmethod
    def from_one_line(images, size=None) -> "ErrPerm":
        images = tuple(images)
        return ErrPerm(size if size is not None else len(images), tuple(range(len(images))), images)

    @staticmethod
    def from_mapping(mapping: dict, size=None) -> "ErrPerm":
        pts = tuple(sorted(mapping))
        return ErrPerm(
            size if size is not None else len(pts),
            pts,
            tuple(mapping[p] for p in pts),
        )

    @staticmethod
    def from_cycle(cycle, n: int) -> "ErrPerm":
        """Permutation of range(n) given by one cycle (remaining points fixed)."""
        mapping = {i: i for i in range(n)}
        for i, x in enumerate(cycle):
            mapping[x] = cycle[(i + 1) % len(cycle)]
        return ErrPerm.from_mapping(mapping, n)

    def relabel(self, table: dict[int, int], size: int | None = None) -> "ErrPerm":
        """Conjugate by a relabeling of points; keeps the underlying-set size."""
        mapping = {table[x]: table[y] for x, y in zip(self.domain, self.images)}
        return ErrPerm.from_mapping(mapping, self.size if size is None else size)


def compose(f: ErrPerm, g: ErrPerm) -> ErrPerm:
    """f after g; anything that reaches the error element stays there."""
    dom, img = [], []
    for x in g.domain:
        y = f.apply(g.apply(x))
        if y != ERROR:
            dom.append(x)
            img.append(y)
    return ErrPerm(max(f.size, g.size), tuple(dom), tuple(img))


def power(f: ErrPerm, k: int) -> ErrPerm:
    base = f if k >= 0 else f.inverse()
    result = ErrPerm.identity_on(base.domain, base.size)
    for _ in range(abs(k)):
        result = compose(base, result)
    return result


def hamming(a: ErrPerm, b: ErrPerm) -> Fraction:
    """Normalized agreement distance, counting error evaluations as mismatches.

    Requires one domain to contain the other; normalizes by the larger
    underlying set.
    """
    ma, mb = a._map, b._map
    if ma.keys() <= mb.keys():
        small = a.domain
    elif mb.keys() <= ma.keys():
        small = b.domain
    else:
        raise PermstabError("incomparable domains: neither contains the other")
    agree = sum(1 for x in small if ma[x] == mb[x])
    denom = max(a.size, b.size)
    if denom == 0:
        return Fraction(0)
    return 1 - Fraction(agree, denom)


def fix_to_involution(zeta: ErrPerm) -> ErrPerm:
    """Nearest involution: keep ``zeta`` where its square fixes, identity elsewhere.

    The output distance to ``zeta`` equals the distance of ``zeta`` squared
    from the identity, exactly.
    """
    if not (zeta.is_total and zeta.is_bijection):
        raise PermstabError("need a genuine permutation")
    square = compose(zeta, zeta)
    keep = {x for x in zeta.domain if square.apply(x) == x}
    mapping = {x: (zeta.apply(x) if x in keep else x) for x in zeta.domain}
    return ErrPerm.from_mapping(mapping, zeta.size)


def fix_fixed_point_free(zeta: ErrPerm) -> ErrPerm:
    """Remove the fixed points of an involution by pairing them up.

    Fixed points are matched consecutively in index order; when their number
    is odd a fresh padding point with the largest new label joins the set, so
    the output lives on 2*ceil(n/2) points.
    """
    if not (zeta.is_total and zeta.is_bijection):
        raise PermstabError("need a genuine permutation")
    if any(compose(zeta, zeta).apply(x) != x for x in zeta.domain):
        raise PermstabError("input is not an involution")
    fixed = sorted(zeta.fixed_points())
    mapping = {x: zeta.apply(x) for x in zeta.domain if zeta.apply(x) != x}
    if len(fixed) % 2 == 1:
        fixed.append(max(zeta.domain) + 1 if zeta.domain else 0)
    for i in range(0, len(fixed), 2):
        a, b = fixed[i], fixed[i + 1]
        mapping[a] = b
        mapping[b] = a
    return ErrPerm.from_mapping(mapping)


# -- signed points ------------------------------------------------------


def signed_encode(sign: int, x: int) -> int:
    """+x -> 2x, -x -> 2x+1; ``sign`` is +1 or -1."""
    return 2 * x + (1 if sign < 0 else 0)


@dataclass(frozen=True)
class SignedPerm:
    """A permutation of the signed double {+,-} x range(n), encoded on range(2n)."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != 2 * self.n or sorted(self.images) != list(range(2 * self.n)):
            raise PermstabError("not a permutation of the signed double")

    def apply(self, p: int) -> int:
        return self.images[p]

    @staticmethod
    def sign_flip(n: int) -> "SignedPerm":
        images = []
        for x in range(n):
            images += [signed_encode(-1, x), signed_encode(1, x)]
        return SignedPerm(n, tuple(images))

    @staticmethod
    def from_err_perm(perm: ErrPerm) -> "SignedPerm":
        if not (perm.is_total and perm.is_bijection and perm.size % 2 == 0):
            raise PermstabError("need a genuine permutation of an even-size range")
        if perm.domain != tuple(range(perm.size)):
            raise PermstabError("signed points must be labeled 0..2n-1")
        return SignedPerm(perm.size // 2, perm.images)

    def to_err_perm(self) -> ErrPerm:
        return ErrPerm.from_one_line(self.images)

    def commutes_with_flip(self) -> bool:
        return all(self.images[p ^ 1] == self.images[p] ^ 1 for p in range(2 * self.n))


def commute_with_sign_flip(zeta: SignedPerm) -> SignedPerm:
    """Nearest sign-equivariant permutation.

    Keeps ``zeta`` on the points whose pair it already treats equivariantly;
    on the rest, the unsigned shadow is extended to a permutation by matching
    unmatched sources to unmatched targets in increasing order and lifted
    with positive signs.  The distance moved is at most the distance of the
    sign-flip commutator from the identity.
    """
    n = zeta.n
    good = [
        x
        for x in range(n)
        if zeta.apply(signed_encode(-1, x)) == zeta.apply(signed_encode(1, x)) ^ 1
    ]
    good_set = set(good)
    shadow = {x: zeta.apply(signed_encode(1, x)) >> 1 for x in good}
    used = set(shadow.values())
    free_targets = [y for y in range(n) if y not in used]
    free_sources = [x for x in range(n) if x not in good_set]
    for x, y in zip(free_sources, free_targets):
        shadow[x] = y
    images = [0] * (2 * n)
    for x in range(n):
        if x in good_set:
            images[signed_encode(1, x)] = zeta.apply(signed_encode(1, x))
            images[signed_encode(-1, x)] = zeta.apply(signed_encode(-1, x))
        else:
            images[signed_encode(1, x)] = signed_encode(1, shadow[x])
            images[signed_encode(-1, x)] = signed_encode(-1, shadow[x])
    return SignedPerm(n, tuple(images))
