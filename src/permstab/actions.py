"""Almost actions of finite presentations and the normalization pipeline.

An almost action assigns an ``ErrPerm`` over a common underlying set to every
generator.  Its defect is the largest distance of an evaluated relation from
the identity.  ``normalize_sofic_approx`` repairs an action of a central
2-extension in three stages so that the distinguished central generator acts
as the exact sign flip and every image commutes with it, reporting the exact
distance moved at each stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import Presentation, Word, free_reduce
from .errors import PermstabError
from .perms import (
    ERROR,
    ErrPerm,
    SignedPerm,
    commute_with_sign_flip,
    compose,  # noqa: F401  kept as actions.compose, which perfbench's tracer wraps
    fix_fixed_point_free,
    fix_to_involution,
    hamming,
    signed_encode,
)


@dataclass
class AlmostAction:
    """Generator images over a common underlying set of ``space`` points."""

    presentation: Presentation
    space: int
    images: dict[str, ErrPerm]

    def __post_init__(self):
        for g in self.presentation.generators:
            if g not in self.images:
                raise PermstabError(f"no image for generator {g!r}")
        for g, perm in self.images.items():
            if perm.size != self.space:
                raise PermstabError(f"image of {g!r} has size {perm.size}, expected {self.space}")
            if not perm.is_bijection:
                raise PermstabError(f"image of {g!r} is not a bijection of its domain")
        for a, b in self.presentation.inverse_pairs:
            if self.images[a].inverse() != self.images[b]:
                raise PermstabError(f"images of {a!r} and {b!r} are not mutually inverse")

    def image(self, g: str) -> ErrPerm:
        return self.images[g]

    @property
    def generators(self) -> tuple[str, ...]:
        return self.presentation.generators


def _letter_maps(action: AlmostAction, word: Word) -> list[dict[int, int]]:
    """Point maps of the word's letters, left to right; inverse letters read inverted."""
    maps = []
    for sym, exp in word:
        perm = action.images.get(sym)
        if perm is None:
            raise PermstabError(f"unknown generator {sym!r}")
        maps.append(perm._inverse_map if exp < 0 else perm._map)
    return maps


def _apply_maps(maps: list[dict[int, int]], space: int, x: int) -> int:
    for point_map in reversed(maps):
        x = point_map.get(x, ERROR)
        if x == ERROR:
            return ERROR
    return x if 0 <= x < space else ERROR


def apply_word(action: AlmostAction, word: Word, x: int) -> int:
    """The word's image of one point: ``evaluate_word(action, word).apply(x)``.

    Letters act right to left, ``ERROR`` absorbs, and a result outside
    ``range(action.space)`` is ``ERROR``, as under the identity the
    evaluation starts from.
    """
    return _apply_maps(_letter_maps(action, word), action.space, x)


def evaluate_word(action: AlmostAction, word: Word) -> ErrPerm:
    """Compose images right-to-left; the empty word is the identity.

    The composite's domain is the part of the rightmost letter's domain
    that the whole word maps into ``range(action.space)``.
    """
    maps = _letter_maps(action, word)
    if not maps:
        return ErrPerm.identity(action.space)
    dom, img = [], []
    for x in sorted(maps[-1]):
        y = _apply_maps(maps, action.space, x)
        if y != ERROR:
            dom.append(x)
            img.append(y)
    return ErrPerm(action.space, tuple(dom), tuple(img))


def defect(action: AlmostAction) -> Fraction:
    """max over relations of the distance of the evaluated word from the identity."""
    ident = ErrPerm.identity(action.space)
    worst = Fraction(0)
    for rel in action.presentation.relations:
        worst = max(worst, hamming(evaluate_word(action, rel), ident))
    return worst


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


def extension_relations(presentation: Presentation, tau: str) -> Presentation:
    """Ensure tau^2 and all sign-flip commutators are among the relations."""
    if tau not in presentation.generators:
        raise PermstabError(f"distinguished generator {tau!r} missing")
    extra: list[Word] = [((tau, 1), (tau, 1))]
    for g in presentation.generators:
        if g != tau:
            extra.append(((tau, 1), (g, 1), (tau, -1), (g, -1)))
    return presentation.with_extra_relations(extra)


def normalize_sofic_approx(action: AlmostAction, tau: str = "tau") -> tuple[AlmostAction, StageReport]:
    """Repair an extension action so tau acts as the exact sign flip.

    Stage 1 replaces the tau image with its nearest involution.  Stage 2
    removes its fixed points, relabels the enlarged set as a signed double so
    that tau becomes the sign flip, and re-embeds the other generators with
    identity action on any padding point.  Stage 3 makes every other image
    commute with the flip, independently per generator.  All images must be
    total for the staged repairs to apply.
    """
    pres = extension_relations(action.presentation, tau)
    action = AlmostAction(pres, action.space, dict(action.images))
    for g, perm in action.images.items():
        if not perm.is_total:
            raise PermstabError(f"stage repairs need total images; {g!r} is partial")
    ident = ErrPerm.identity(action.space)
    eps = defect(action)
    eps_prime = 1 - hamming(action.image(tau), ident)

    # stage 1: tau to an involution
    inv = fix_to_involution(action.image(tau))
    d1 = hamming(inv, action.image(tau))
    stage1 = {g: (inv if g == tau else p) for g, p in action.images.items()}

    # stage 2: drop fixed points, relabel the result as a signed double
    fpf = fix_fixed_point_free(inv)
    twice = fpf.size
    orbits = sorted(x for x in fpf.domain if x < fpf.apply(x))
    relabel = {}
    for i, x in enumerate(orbits):
        relabel[x] = signed_encode(1, i)
        relabel[fpf.apply(x)] = signed_encode(-1, i)
    pad = [x for x in fpf.domain if x not in relabel]
    if pad:
        raise PermstabError("internal: fixed points survived the pairing")
    stage2 = {}
    d2 = Fraction(0)
    for g, perm in stage1.items():
        if g == tau:
            new = fpf.relabel(relabel)
            old = inv.relabel(relabel, size=inv.size)
        else:
            extended = {x: perm.apply(x) for x in perm.domain}
            for x in fpf.domain:
                if x not in extended:
                    extended[x] = x
            new = ErrPerm.from_mapping({relabel[x]: relabel[y] for x, y in extended.items()})
            old = perm.relabel(relabel, size=perm.size)
        stage2[g] = new
        d2 = max(d2, hamming(old, new))
    flip = SignedPerm.sign_flip(twice // 2)
    if stage2[tau].images != flip.to_err_perm().images:
        raise PermstabError("internal: tau is not the sign flip after stage 2")

    # stage 3: conjugation-commuting repair, independently per generator
    stage3 = {}
    d3 = Fraction(0)
    for g, perm in stage2.items():
        if g == tau:
            stage3[g] = perm
            continue
        repaired = commute_with_sign_flip(SignedPerm.from_err_perm(perm)).to_err_perm()
        d3 = max(d3, hamming(repaired, perm))
        stage3[g] = repaired

    out = AlmostAction(pres, twice, stage3)
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


def is_sign_commuting(action: AlmostAction, tau: str = "tau") -> bool:
    if action.space % 2 != 0:
        return False
    flip = SignedPerm.sign_flip(action.space // 2).to_err_perm()
    if action.image(tau) != flip:
        return False
    return all(
        SignedPerm.from_err_perm(action.image(g)).commutes_with_flip()
        for g in action.generators
        if g != tau and action.image(g).is_total
    )


def quotient_presentation(presentation: Presentation, tau: str = "tau") -> Presentation:
    """Erase the central generator from every relation and drop what cancels."""
    gens = tuple(g for g in presentation.generators if g != tau)
    relations = []
    seen = set()
    for rel in presentation.relations:
        word = free_reduce(tuple(l for l in rel if l[0] != tau))
        if word and word not in seen:
            relations.append(word)
            seen.add(word)
    pairs = tuple(p for p in presentation.inverse_pairs if tau not in p)
    return Presentation(gens, tuple(relations), pairs)


def induced_quotient_action(action: AlmostAction, tau: str = "tau") -> AlmostAction:
    """Project a sign-commuting action to the unsigned points."""
    if action.space % 2 != 0:
        raise PermstabError("need an action on a signed double")
    n = action.space // 2
    flip = SignedPerm.sign_flip(n).to_err_perm()
    if action.image(tau) != flip:
        raise PermstabError(f"{tau!r} does not act as the sign flip")
    images = {}
    for g in action.generators:
        if g == tau:
            continue
        perm = action.image(g)
        if not perm.is_total:
            raise PermstabError(f"image of {g!r} is partial")
        signed = SignedPerm.from_err_perm(perm)
        if not signed.commutes_with_flip():
            raise PermstabError(f"image of {g!r} does not commute with the sign flip")
        images[g] = ErrPerm.from_one_line(tuple(signed.apply(2 * x) >> 1 for x in range(n)))
    return AlmostAction(quotient_presentation(action.presentation, tau), n, images)


def separation_report(action: AlmostAction, max_len: int, limit: int = 2000):
    """Distances of all freely reduced words up to ``max_len`` from the identity.

    A bounded observation aid: no claim is made about words beyond the bound.
    Returns (word, distance) pairs in enumeration order, capped at ``limit``.
    """
    ident = ErrPerm.identity(action.space)
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
                    out.append((cand, hamming(evaluate_word(action, cand), ident)))
                    if len(out) >= limit:
                        return out
        frontier = new
    return out
