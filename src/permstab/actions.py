"""Almost actions of finite presentations and the normalization pipeline.

An almost action assigns an ``ErrPerm`` over a common underlying set to every
generator.  Its defect is the largest distance of an evaluated relation from
the identity.  ``normalize_sofic_approx`` repairs an action of a central
2-extension in three stages so that the distinguished central generator acts
as the exact sign flip and every image commutes with it, reporting the exact
distance moved at each stage.

An ``AlmostAction`` checks its images once, when it is constructed, and then
holds them read-only.  The actions this module builds from checked ones (the
normalization's working copy and output, the induced quotient) and the words
it evaluates are valid by construction and skip the re-check, through
``AlmostAction._trusted`` and ``ErrPerm._trusted``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import eq
from types import MappingProxyType

from .complexes import Presentation, Word, free_reduce
from .errors import PermstabError
from .perms import (
    ERROR,
    ErrPerm,
    commute_with_sign_flip,
    commutes_with_flip,
    compose,  # noqa: F401  kept as actions.compose, which perfbench's tracer wraps
    fix_fixed_point_free,
    fix_to_involution,
    hamming,
    sign_flip,
    signed_encode,
)


@dataclass
class AlmostAction:
    """Generator images over a common underlying set of ``space`` points.

    The images are checked on construction and then held read-only.
    """

    presentation: Presentation
    space: int
    images: Mapping[str, ErrPerm]

    def __post_init__(self):
        if self.space < 0:
            raise PermstabError(f"negative space {self.space}")
        for g in self.presentation.generators:
            if g not in self.images:
                raise PermstabError(f"no image for generator {g!r}")
        for g, perm in self.images.items():
            if perm.size != self.space:
                raise PermstabError(f"image of {g!r} has size {perm.size}, expected {self.space}")
            if not perm.is_bijection:
                raise PermstabError(f"image of {g!r} is not a bijection of its domain")
        for a, b in self.presentation.inverse_pairs:
            if self.images[a]._inverse_line != self.images[b]._line:
                raise PermstabError(f"images of {a!r} and {b!r} are not mutually inverse")
        self.images = MappingProxyType(dict(self.images))

    @classmethod
    def _trusted(cls, presentation: Presentation, space: int, images: dict[str, ErrPerm]) -> "AlmostAction":
        """An action whose images are already known to pass the checks, built unchecked.

        ``images`` must hold a total-or-partial bijection of size ``space``
        for every generator, with declared inverse pairs mutually inverse;
        the caller hands the dict over and keeps no reference to it.
        """
        action = object.__new__(cls)
        action.__dict__.update(presentation=presentation, space=space, images=MappingProxyType(images))
        return action

    def image(self, g: str) -> ErrPerm:
        return self.images[g]

    @property
    def generators(self) -> tuple[str, ...]:
        return self.presentation.generators


def _letter_lines(action: AlmostAction, word: Word) -> list[list[int]]:
    """One-line views of the word's letters, left to right; inverse letters read inverted."""
    lines = []
    for sym, exp in word:
        perm = action.images.get(sym)
        if perm is None:
            raise PermstabError(f"unknown generator {sym!r}")
        lines.append(perm._inverse_line if exp < 0 else perm._line)
    return lines


def _column(lines: list[list[int]], points) -> list[int]:
    """The images of a column of points under the letter lines, right to left.

    Each line holds ``size + 1`` entries: the image of every point of
    range(size), ``ERROR`` off the domain, and a trailing ``ERROR``.  As
    ``ERROR == -1`` indexes that last entry, ``ERROR`` absorbs.  Every point
    must lie in range(size) of each line, or be ``ERROR``.
    """
    vals = points
    for line in reversed(lines):
        vals = [line[v] for v in vals]
    return vals


def evaluate_word(action: AlmostAction, word: Word) -> ErrPerm:
    """Compose images right-to-left; the empty word is the identity.

    The points of range(space) are mapped as one column; the composite's
    domain is the part of it that the whole word keeps defined.
    """
    col = _column(_letter_lines(action, word), range(action.space))
    keep = [y != ERROR for y in col]
    return ErrPerm._trusted(action.space, tuple(compress(range(action.space), keep)), tuple(compress(col, keep)))


def _fixed_count(action: AlmostAction, word: Word) -> int:
    """How many points of range(space) the word's composite fixes; all of them for the empty word."""
    points = range(action.space)
    return sum(map(eq, _column(_letter_lines(action, word), points), points))


def _distance(action: AlmostAction, fixed: int) -> Fraction:
    """One minus the fixed-point fraction over range(space); 0 on an empty set.

    With ``fixed`` a word's ``_fixed_count``, this is the ``hamming`` distance
    of ``evaluate_word(action, word)`` from the identity.
    """
    return 1 - Fraction(fixed, action.space) if action.space else Fraction(0)


def defect(action: AlmostAction) -> Fraction:
    """max over relations of the distance of the evaluated word from the identity.

    That is the distance of the relation that fixes the fewest points.
    """
    relations = action.presentation.relations
    return _distance(action, min((_fixed_count(action, rel) for rel in relations), default=action.space))


def action_distance(a: AlmostAction, b: AlmostAction) -> Fraction:
    """L-infinity distance over a shared generator set."""
    if set(a.generators) != set(b.generators):
        raise PermstabError("actions have different generator sets")
    return max(
        (hamming(a.image(g), b.image(g)) for g in a.generators),
        default=Fraction(0),
    )


# -- the three-stage repair ----------------------------------------------


@dataclass
class StageReport:
    """Exact measurements from ``normalize_sofic_approx``.

    ``bound`` is (2l+2)eps' + (3l+4)eps + (l+1)*stage3_distance, with eps the
    input defect, eps' the fixed-point fraction of the central generator's
    image, and l the longest relation; the output defect never exceeds it.
    """

    ell: int
    eps: Fraction
    eps_prime: Fraction
    stage1_distance: Fraction
    stage2_distance: Fraction
    stage3_distance: Fraction
    defect_in: Fraction
    defect_out: Fraction
    bound: Fraction
    holds: bool


TAU = "tau"  # the central generator of every extension presentation


def _central_relations(gens) -> list[Word]:
    """TAU^2, then the commutator [TAU, g] for every other generator g in order."""
    return [((TAU, 1), (TAU, 1))] + [((TAU, 1), (g, 1), (TAU, -1), (g, -1)) for g in gens if g != TAU]


def extension_relations(presentation: Presentation) -> Presentation:
    """Ensure TAU^2 and all sign-flip commutators are among the relations."""
    if TAU not in presentation.generators:
        raise PermstabError(f"distinguished generator {TAU!r} missing")
    return presentation.with_extra_relations(_central_relations(presentation.generators))


def normalize_sofic_approx(action: AlmostAction) -> tuple[AlmostAction, StageReport]:
    """Repair an extension action so its central generator ``TAU`` acts as the exact sign flip.

    Stage 1 replaces the image of ``TAU`` with an involution: that image
    where its square fixes, the identity elsewhere, at a distance equal to
    that of its square from the identity (``fix_to_involution``; not always
    the nearest involution).  Stage 2 removes its fixed points, relabels the
    enlarged set as a signed double so that it becomes the sign flip, and
    re-embeds the other generators with identity action on any padding
    point.  Stage 3 makes every other image commute with the flip,
    independently per generator.  All images must be total for the staged
    repairs to apply.
    """
    pres = extension_relations(action.presentation)
    # the extension keeps the generators and inverse pairs, so the checked images stay valid
    action = AlmostAction._trusted(pres, action.space, dict(action.images))
    for g, perm in action.images.items():
        if not perm.is_total:
            raise PermstabError(f"stage repairs need total images; {g!r} is partial")
    ident = ErrPerm.identity(action.space)
    eps = defect(action)
    eps_prime = 1 - hamming(action.image(TAU), ident)

    # stage 1: tau to an involution
    inv = fix_to_involution(action.image(TAU))
    d1 = hamming(inv, action.image(TAU))
    stage1 = {g: (inv if g == TAU else p) for g, p in action.images.items()}

    # stage 2: drop fixed points, relabel the result as a signed double
    fpf = fix_fixed_point_free(inv)
    twice = fpf.size
    relabel = [ERROR] * twice  # point -> signed label: the i-th orbit {x < y} becomes +i, -i
    orbits = ((x, y) for x, y in enumerate(fpf.images) if x < y)
    for i, (x, y) in enumerate(orbits):
        relabel[x], relabel[y] = signed_encode(1, i), signed_encode(-1, i)
    if ERROR in relabel:
        raise PermstabError("internal: fixed points survived the pairing")
    back = [0] * twice  # signed label -> point
    for x, j in enumerate(relabel):
        back[j] = x
    # relabeling is a conjugation, which keeps agreement, and every other image
    # only gains the padding point, which tau's stage-1 image lacks as well:
    # stage 2 moves nothing farther than tau moves from inv to fpf
    d2 = hamming(inv, fpf)
    pad = tuple(range(action.space, twice))  # identity on the padding point
    points = tuple(range(twice))
    stage2 = {}
    for g, perm in stage1.items():
        line = fpf.images if g == TAU else perm.images + pad
        stage2[g] = ErrPerm._trusted(twice, points, tuple([relabel[line[x]] for x in back]))
    if stage2[TAU].images != sign_flip(twice // 2).images:
        raise PermstabError("internal: tau is not the sign flip after stage 2")

    # stage 3: conjugation-commuting repair, independently per generator
    stage3 = {}
    d3 = Fraction(0)
    for g, perm in stage2.items():
        if g == TAU:
            stage3[g] = perm
            continue
        repaired = commute_with_sign_flip(perm)
        d3 = max(d3, hamming(repaired, perm))
        stage3[g] = repaired

    out = AlmostAction._trusted(pres, twice, stage3)
    ell = pres.max_relation_length
    bound = (2 * ell + 2) * eps_prime + (3 * ell + 4) * eps + (ell + 1) * d3
    dout = defect(out)
    report = StageReport(
        ell=ell,
        eps=eps,
        eps_prime=eps_prime,
        stage1_distance=d1,
        stage2_distance=d2,
        stage3_distance=d3,
        defect_in=eps,
        defect_out=dout,
        bound=bound,
        holds=dout <= bound,
    )
    return out, report


def is_sign_commuting(action: AlmostAction) -> bool:
    if action.space % 2 != 0 or TAU not in action.generators:
        return False
    if action.image(TAU) != sign_flip(action.space // 2):
        return False
    return all(
        commutes_with_flip(action.image(g))
        for g in action.generators
        if g != TAU and action.image(g).is_total
    )


def quotient_presentation(presentation: Presentation) -> Presentation:
    """Erase the central generator from every relation and drop what cancels."""
    gens = tuple(g for g in presentation.generators if g != TAU)
    relations = []
    seen = set()
    for rel in presentation.relations:
        word = free_reduce(tuple(l for l in rel if l[0] != TAU))
        if word and word not in seen:
            relations.append(word)
            seen.add(word)
    pairs = tuple(p for p in presentation.inverse_pairs if TAU not in p)
    return Presentation(gens, tuple(relations), pairs)


def induced_quotient_action(action: AlmostAction) -> AlmostAction:
    """Project a sign-commuting action to the unsigned points."""
    if TAU not in action.generators:
        raise PermstabError(f"distinguished generator {TAU!r} missing")
    if action.space % 2 != 0:
        raise PermstabError("need an action on a signed double")
    n = action.space // 2
    if action.image(TAU) != sign_flip(n):
        raise PermstabError(f"{TAU!r} does not act as the sign flip")
    images = {}
    points = tuple(range(n))
    for g in action.generators:
        if g == TAU:
            continue
        perm = action.image(g)
        if not perm.is_total:
            raise PermstabError(f"image of {g!r} is partial")
        if not commutes_with_flip(perm):
            raise PermstabError(f"image of {g!r} does not commute with the sign flip")
        images[g] = ErrPerm._trusted(n, points, tuple([y >> 1 for y in perm.images[::2]]))
    return AlmostAction._trusted(quotient_presentation(action.presentation), n, images)


def separation_report(action: AlmostAction, max_len: int, limit: int = 2000):
    """Distances of all freely reduced words up to ``max_len`` from the identity.

    A bounded observation aid: no claim is made about words beyond the bound.
    Returns (word, distance) pairs in enumeration order, capped at ``limit``.
    """
    gens = action.generators
    out = []
    frontier: list[Word] = [()]
    for _ in range(max_len):
        new: list[Word] = []
        for word in frontier:
            for g in gens:
                for exp in (1, -1):
                    cand = word + ((g, exp),)
                    if free_reduce(cand) != cand:
                        continue
                    new.append(cand)
                    out.append((cand, _distance(action, _fixed_count(action, cand))))
                    if len(out) >= limit:
                        return out
        frontier = new
    return out
