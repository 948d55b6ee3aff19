"""Partial permutations of range(size), with an explicit error element.

An ``ErrPerm`` is a partial injection of ``range(size)``: every point of its
domain and every image lies in ``range(size)``, which construction checks.
Evaluation outside the domain returns the distinguished ``ERROR`` element
(-1, never a point), which composition absorbs.  A genuine permutation has
``len(domain) == size``, and then ``images`` is its one-line form.  The signed
double of range(n) used by the sign-flip repair is a permutation of range(2n):
point +x is encoded as 2x and -x as 2x+1, so the sign flip sends p to p ^ 1.

The hot paths read an ``ErrPerm`` through its cached one-line views
``_line`` and ``_inverse_line``: lists of ``size + 1`` entries that hold the
image (or preimage) of every point of ``range(size)``, ``ERROR`` off the
domain, and one trailing ``ERROR``.  Because ``ERROR == -1`` indexes that
trailing entry, ``line[v]`` sends ``ERROR`` to ``ERROR`` without a branch, so
a column of points is carried through a word by plain indexing.  A line may
only be indexed by a point of ``range(size)`` or by ``ERROR``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice
from operator import eq, lt

from .errors import PermstabError

ERROR = -1


@dataclass(frozen=True)
class ErrPerm:
    size: int
    domain: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        domain, images, size = self.domain, self.images, self.size
        if len(domain) != len(images):
            raise PermstabError("domain/image length mismatch")
        if not all(map(lt, domain, islice(domain, 1, None))):
            raise PermstabError("domain must be strictly increasing")
        if domain and not (0 <= domain[0] and domain[-1] < size and 0 <= min(images) and max(images) < size):
            raise PermstabError(f"point label outside range({size})")
        if len(set(images)) != len(images):
            raise PermstabError("images not injective")

    @cached_property
    def _line(self) -> list[int]:
        """The image of every point of range(size), ``ERROR`` off the domain, then one ``ERROR``."""
        line = [ERROR] * (self.size + 1)
        for x, y in zip(self.domain, self.images):
            line[x] = y
        return line

    @cached_property
    def _inverse_line(self) -> list[int]:
        """The preimage of every point of range(size), ``ERROR`` off the image, then one ``ERROR``."""
        line = [ERROR] * (self.size + 1)
        for x, y in zip(self.domain, self.images):
            line[y] = x
        return line

    def apply(self, x: int) -> int:
        return self._line[x] if 0 <= x < self.size else ERROR

    def __call__(self, x: int) -> int:
        return self.apply(x)

    @property
    def is_total(self) -> bool:
        return len(self.domain) == self.size

    @property
    def is_bijection(self) -> bool:
        """Whether the images are the domain; a total injection of range(size) always is."""
        return self.is_total or set(self.domain) == set(self.images)

    def inverse(self) -> "ErrPerm":
        domain = tuple(sorted(self.images))
        line = self._inverse_line
        return ErrPerm(self.size, domain, tuple([line[y] for y in domain]))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(x for x, y in zip(self.domain, self.images) if x == y)

    @staticmethod
    def identity(n: int) -> "ErrPerm":
        pts = tuple(range(n))
        return ErrPerm(n, pts, pts)

    @staticmethod
    def identity_on(points, size=None) -> "ErrPerm":
        pts = tuple(sorted(points))
        return ErrPerm(size if size is not None else len(pts), pts, pts)

    @staticmethod
    def from_one_line(images) -> "ErrPerm":
        images = tuple(images)
        return ErrPerm(len(images), tuple(range(len(images))), images)

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
    """f after g; anything that reaches the error element stays there.

    ``f``'s line is padded with ``ERROR`` up to ``g``'s size, so an image of
    ``g`` past ``f``'s set reaches ``ERROR``.
    """
    line = f._line + [ERROR] * (g.size - f.size)
    ys = [line[y] for y in g.images]
    keep = [y != ERROR for y in ys]
    return ErrPerm(max(f.size, g.size), tuple(compress(g.domain, keep)), tuple(compress(ys, keep)))


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
    if len(a.domain) > len(b.domain):
        a, b = b, a  # a has the smaller domain; the count is symmetric
    # b's images at a's points, past b's set read as ERROR
    line = b._line + [ERROR] * (a.size - b.size)
    ys = [line[x] for x in a.domain]
    if ERROR in ys:  # a's domain is not inside b's, and being no larger, does not contain it
        raise PermstabError("incomparable domains: neither contains the other")
    denom = max(a.size, b.size)
    if denom == 0:
        return Fraction(0)
    return 1 - Fraction(sum(map(eq, a.images, ys)), denom)


def fix_to_involution(zeta: ErrPerm) -> ErrPerm:
    """Nearest involution: keep ``zeta`` where its square fixes, identity elsewhere.

    The output distance to ``zeta`` equals the distance of ``zeta`` squared
    from the identity, exactly.
    """
    if not (zeta.is_total and zeta.is_bijection):
        raise PermstabError("need a genuine permutation")
    line = zeta.images
    return ErrPerm.from_one_line([y if line[y] == x else x for x, y in enumerate(line)])


def fix_fixed_point_free(zeta: ErrPerm) -> ErrPerm:
    """Remove the fixed points of an involution by pairing them up.

    Fixed points are matched consecutively in index order; when their number
    is odd a fresh padding point with the largest new label joins the set, so
    the output lives on 2*ceil(n/2) points.
    """
    if not (zeta.is_total and zeta.is_bijection):
        raise PermstabError("need a genuine permutation")
    line = list(zeta.images)
    if any(line[y] != x for x, y in enumerate(line)):
        raise PermstabError("input is not an involution")
    fixed = [x for x, y in enumerate(line) if x == y]
    if len(fixed) % 2 == 1:
        fixed.append(zeta.size)
        line.append(zeta.size)
    for a, b in zip(fixed[::2], fixed[1::2]):
        line[a], line[b] = b, a
    return ErrPerm.from_one_line(line)


# -- signed points ------------------------------------------------------


def signed_encode(sign: int, x: int) -> int:
    """+x -> 2x, -x -> 2x+1; ``sign`` is +1 or -1."""
    return 2 * x + (1 if sign < 0 else 0)


def sign_flip(n: int) -> ErrPerm:
    """The sign flip of the signed double of range(n): +x <-> -x, i.e. p -> p ^ 1."""
    return ErrPerm.from_one_line(tuple(p ^ 1 for p in range(2 * n)))


def _check_signed(perm: ErrPerm) -> None:
    """Refuse anything but a permutation of range(2n), the encoded signed double."""
    if not (perm.is_total and perm.is_bijection and perm.size % 2 == 0):
        raise PermstabError("need a genuine permutation of an even-size range")


def commutes_with_flip(perm: ErrPerm) -> bool:
    """Whether a permutation of the signed double commutes with the sign flip.

    It does when every -x goes to the flip of the image of +x: the pairs
    {2x, 2x+1} then go to pairs, and p ^ 1 to the image of p ^ 1.
    """
    _check_signed(perm)
    images = perm.images
    return [y ^ 1 for y in images[::2]] == list(images[1::2])


def commute_with_sign_flip(zeta: ErrPerm) -> ErrPerm:
    """Nearest sign-equivariant permutation of the signed double.

    Keeps ``zeta`` on the points whose pair it already treats equivariantly;
    on the rest, the unsigned shadow is extended to a permutation by matching
    unmatched sources to unmatched targets in increasing order and lifted
    with positive signs.  The distance moved is at most the distance of the
    sign-flip commutator from the identity.
    """
    _check_signed(zeta)
    line = list(zeta.images)
    plus, minus = line[::2], line[1::2]  # the images of +x and of -x
    good = [y ^ 1 == z for y, z in zip(plus, minus)]
    used = {y >> 1 for y, ok in zip(plus, good) if ok}
    free_targets = (y for y in range(len(plus)) if y not in used)
    for x, ok in enumerate(good):
        if not ok:
            y = next(free_targets)
            line[2 * x], line[2 * x + 1] = 2 * y, 2 * y + 1
    return ErrPerm.from_one_line(line)
