"""Seeded experiment drivers: noise injection, synthetic instances, sweeps.

Every run is determined by its config (seed included); identical configs
produce byte-identical CSV.  Instances are built on the triangulated annulus
with an exact holonomy action, twisted sign lifts, and seeded noise, then
repaired and pushed through the covering-distance experiment.  The noise
injectors refuse a rate outside [0, 1] and a pairing that noise would break
(a generator in two inverse pairs, a noised generator paired with itself)
before they draw any noise, and build the noised action unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd

from .actions import TAU, AlmostAction, defect, normalize_sofic_approx
from .cohomology import F2Cochain, coboundary, zero_cochain
from .complexes import (
    RootedTree,
    SimplicialComplex,
    annulus,
    annulus_winding_cocycle,
    edge_gen,
    fundamental_group_presentation,
    spanning_tree,
)
from .covers import ExperimentReport, contradiction_experiment, extension_from_cocycle
from .errors import BoundViolation, PermstabError
from .fileio import csv_text, format_decimal, format_fraction
from .perms import ErrPerm, compose, hamming, power, sign_flip
from .rng import SplitMix64


def _subset_shuffle(rng: SplitMix64, n: int, k: int):
    """Pairs (a, b): a runs over a uniform k-subset of range(n) in increasing order, b over its shuffle."""
    support = sorted(rng.sample(range(n), k))
    shuffled = list(support)
    rng.shuffle(shuffled)
    return zip(support, shuffled)


def _support_perm(space: int, eps: Fraction, rng: SplitMix64) -> ErrPerm:
    """Uniform permutation of a random floor(eps*space)-subset, identity elsewhere."""
    k = int(eps * space)
    points = tuple(range(space))
    line = list(points)
    if k >= 2:  # a single point cannot move, and drawing it would shift the seeded stream
        for a, b in _subset_shuffle(rng, space, k):
            line[a] = b
    return ErrPerm._trusted(space, points, tuple(line))


def _signed_double(targets, bits, points: tuple[int, ...]) -> ErrPerm:
    """+t = 2t to 2*targets[t] + bits[t], and -t = 2t+1 to 2*targets[t] + (1 ^ bits[t]).

    ``targets`` must be a permutation of range(n) and ``points`` range(2n);
    the result is then a permutation of the signed double.
    """
    line = []
    for y, bit in zip(targets, bits):
        line += (2 * y + bit, 2 * y + (1 ^ bit))
    return ErrPerm._trusted(len(points), points, tuple(line))


def _signed_support_perm(space: int, eps: Fraction, rng: SplitMix64) -> ErrPerm:
    """Uniform permutation of a floor(eps*n)-subset of the n = space/2 unsigned points, each flipping sign at random."""
    n = space // 2
    k = int(eps * n)
    base = list(range(n))
    signs = [0] * n
    if k >= 1:  # unlike a permutation, one point can still flip its sign
        for a, b in _subset_shuffle(rng, n, k):
            base[a] = b
            signs[a] = rng.below(2)
    return _signed_double(base, signs, tuple(range(space)))


def _noise(action: AlmostAction, eps, seed: int, skip, draw) -> AlmostAction:
    """Compose every generator image outside ``skip`` with its noise ``draw(space, eps, rng.spawn(g))``.

    A declared inverse partner takes the inverse of the noised image, so the
    pair stays inverse; skipping one member of a pair skips both.  The rate
    and the pairing are checked first, so the noised action is built unchecked.
    """
    eps = Fraction(eps)
    if not 0 <= eps <= 1:
        raise PermstabError("noise rate out of range")
    partner = {}
    for a, b in action.presentation.inverse_pairs:
        for g in dict.fromkeys((a, b)):
            if g in partner:
                raise PermstabError(f"generator {g!r} is in two inverse pairs")
        if a == b and a not in skip:
            raise PermstabError(f"noised generator {a!r} is paired with itself")
        partner[a], partner[b] = b, a
    rng = SplitMix64(seed)
    images = dict(action.images)
    done = set(skip) | {partner[g] for g in skip if g in partner}
    for g in action.generators:
        if g not in done:
            noised = images[g] = compose(draw(action.space, eps, rng.spawn(g)), action.image(g))
            if g in partner:
                images[partner[g]] = noised.inverse()
                done.add(partner[g])
    return AlmostAction._trusted(action.presentation, action.space, images)


def _realized(out: AlmostAction, action: AlmostAction) -> dict[str, Fraction]:
    """The distance of every noised generator image from its original."""
    return {g: hamming(out.image(g), action.image(g)) for g in action.generators}


def noise_injector(
    action: AlmostAction, eps, seed: int, skip: tuple[str, ...] = ()
) -> tuple[AlmostAction, dict[str, Fraction]]:
    """Compose every generator image with seeded noise of support rate ``eps``.

    Declared inverse pairs are perturbed coherently so they stay inverse;
    the generators in ``skip`` and their partners keep their images.
    Refuses a rate outside [0, 1], a generator in two inverse pairs and a
    noised generator paired with itself.  Returns the noised action and the
    realized per-generator distances, each at most ``eps``.
    """
    out = _noise(action, eps, seed, skip, _support_perm)
    return out, _realized(out, action)


def signed_noise_injector(action: AlmostAction, eps, seed: int) -> tuple[AlmostAction, dict[str, Fraction]]:
    """Noise that commutes with the sign flip, leaving the central generator ``TAU`` untouched.

    The support is a floor(eps*n)-subset of the unsigned points; a uniform
    permutation acts on it and every supported point may flip sign.  Refuses
    what ``noise_injector`` refuses, and an action on an odd set.
    """
    if action.space % 2:
        raise PermstabError("need an action on a signed double")
    out = _noise(action, eps, seed, (TAU,), _signed_support_perm)
    return out, _realized(out, action)


def tree_adjusted_cocycle(
    x: SimplicialComplex, tree: RootedTree, values: dict
) -> dict:
    """Shift an integer edge cocycle by a potential so it vanishes on the tree."""
    potential: dict[int, int] = {}

    def value_on(a: int, b: int) -> int:
        return values[(a, b)] if (a, b) in values else -values[(b, a)]

    for v in tree.parent:
        path = tree.path_to_root(v)
        total = 0
        for b, a in zip(path, path[1:]):
            total += value_on(a, b)
        potential[v] = total
    out = {}
    for (a, b) in x.cells(1):
        out[(a, b)] = value_on(a, b) - (potential[b] - potential[a])
    return out


def integer_cocycle_basis(x: SimplicialComplex, tree: RootedTree) -> list[dict]:
    """Integer edge cocycles vanishing on the tree (winding homomorphisms).

    Unknowns are the non-tree edge values; every triangle contributes one
    linear relation.  The rational kernel is computed by elimination and
    scaled to integers.  An empty list means only the trivial holonomy.
    """
    free = [e for e in x.cells(1) if e not in tree.tree_edges]
    col = {e: i for i, e in enumerate(free)}
    rows = []
    for (a, b, c) in x.cells(2):
        coeffs = [Fraction(0)] * len(free)
        for (u, v), s in (((a, b), 1), ((b, c), 1), ((a, c), -1)):
            if (u, v) in col:
                coeffs[col[(u, v)]] += s
        rows.append(coeffs)
    # rational row reduction
    pivots = []
    for row in rows:
        row = list(row)
        for prow, pcol in pivots:
            if row[pcol]:
                factor = row[pcol]
                row = [r - factor * p for r, p in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is not None:
            inv = row[lead]
            pivots.append(([v / inv for v in row], lead))
    pivot_cols = {pcol for _, pcol in pivots}
    basis = []
    for j in range(len(free)):
        if j in pivot_cols:
            continue
        vec = [Fraction(0)] * len(free)
        vec[j] = Fraction(1)
        for prow, pcol in reversed(pivots):
            vec[pcol] = -sum(prow[i] * vec[i] for i in range(len(free)) if i != pcol)
        denom = 1
        for v in vec:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        entry = {e: 0 for e in x.cells(1)}
        for e, i in col.items():
            entry[e] = int(vec[i] * denom)
        basis.append(entry)
    return basis


def exact_action_from_int_cocycle(
    x: SimplicialComplex,
    tree: RootedTree,
    cocycle: dict,
    sigma: ErrPerm,
) -> AlmostAction:
    """Action sending each oriented edge to a power of one permutation.

    The exponent is an integer edge cocycle adjusted to vanish on the tree,
    so every relation of the edge presentation holds exactly.
    """
    pres = fundamental_group_presentation(x, tree)
    adjusted = tree_adjusted_cocycle(x, tree, cocycle)
    images = {}
    for (a, b), c in adjusted.items():
        images[edge_gen(a, b)] = power(sigma, c)
        images[edge_gen(b, a)] = power(sigma, -c)
    action = AlmostAction(pres, sigma.size, images)
    if defect(action) != 0:
        raise PermstabError("the integer cochain is not a cocycle")
    return action


def sign_twisted_lift(f: AlmostAction, edge_signs: F2Cochain, n: int) -> AlmostAction:
    """Exact lift of an action to the signed double of its first ``n`` points.

    The oriented edge xy acts on the double of range(n) as f(xy) with an
    overall sign twist given by the edge cochain; ``TAU`` acts as the sign flip.
    The images of f must preserve range(n), and each edge's two images
    must be mutually inverse there.  The lift is an exact action of the
    extension presentation twisted by the coboundary of ``edge_signs``.
    """
    x = edge_signs.complex
    tree_root = min(x.vertices)
    tree = spanning_tree(x, tree_root)
    phi = coboundary(edge_signs) if x.dim >= 2 else None
    if phi is None:
        raise PermstabError("need a complex with triangles")
    pres = extension_from_cocycle(tree, phi)
    images = {TAU: sign_flip(n)}
    points = tuple(range(2 * n))
    shadow = {}  # f's images of range(n), by generator
    for (a, b) in x.cells(1):
        bit = edge_signs((a, b))
        for (u, v) in ((a, b), (b, a)):
            # past f's set the line's trailing ERROR shows
            targets = shadow[edge_gen(u, v)] = f.image(edge_gen(u, v))._line[:n]
            if not all(0 <= y < n for y in targets):
                raise PermstabError("the action does not preserve the lifted points")
            images[edge_gen(u, v)] = _signed_double(targets, repeat(bit), points)
    # f's injective images of range(n) into range(n) lift to permutations of the
    # double; a declared pair lifts to inverse images when f's are inverse on range(n)
    fixed = list(range(n))
    for g, h in pres.inverse_pairs:
        if [shadow[g][y] for y in shadow[h]] != fixed:
            raise PermstabError(f"images of {g!r} and {h!r} are not mutually inverse")
    return AlmostAction._trusted(pres, 2 * n, images)


@dataclass(frozen=True)
class ExperimentConfig:
    """One pipeline run; equal configs give byte-identical reports."""

    seed: int
    epsilon: Fraction
    fiber: int = 6
    extra: int = 0
    cocycle_mode: str = "coboundary"  # "coboundary" or "zero"

    def __post_init__(self):
        if self.cocycle_mode not in ("coboundary", "zero"):
            raise PermstabError("cocycle_mode must be 'coboundary' or 'zero'")
        if self.fiber < 2:
            raise PermstabError("fiber must have at least 2 points")


def build_instance(config: ExperimentConfig):
    """Annulus instance: exact holonomy action, cocycle, and a noisy raw lift."""
    x = annulus()
    tree = spanning_tree(x, 0)
    rng = SplitMix64(config.seed)
    n, m = config.fiber, config.fiber + config.extra
    cycle_n = list(range(n))
    rng.spawn("rotate").shuffle(cycle_n)
    sigma_map = {cycle_n[i]: cycle_n[(i + 1) % n] for i in range(n)}
    if m > n:  # extra fiber points cycle among themselves so range(n) stays invariant
        tail = list(range(n, m))
        for i, j in enumerate(tail):
            sigma_map[j] = tail[(i + 1) % len(tail)]
    sigma = ErrPerm.from_mapping(sigma_map, m)
    f = exact_action_from_int_cocycle(x, tree, annulus_winding_cocycle(), sigma)

    if config.cocycle_mode == "zero":
        signs = zero_cochain(x, 1)
    else:
        # sign twists must vanish on the tree: the extension presentation keeps
        # tree-edge lifts as exact identity relations
        sign_rng = rng.spawn("signs")
        bits = 0
        for pos, cell in enumerate(x.cells(1)):
            if cell not in tree.tree_edges and sign_rng.below(2):
                bits |= 1 << pos
        signs = F2Cochain(x, 1, bits)
    phi = coboundary(signs)
    lift = sign_twisted_lift(f, signs, n)
    raw = _noise(lift, config.epsilon, config.seed ^ 0xA5A5, (TAU,), _support_perm)
    return x, phi, raw, f


@dataclass
class RunRow:
    config: ExperimentConfig
    eps: Fraction
    rho: Fraction
    event1: Fraction
    event2: Fraction
    dw: Fraction
    bound: Fraction
    component: int
    holds: bool


def run_pipeline(config: ExperimentConfig) -> tuple[RunRow, ExperimentReport]:
    """normalize -> quotient -> cover -> sign cochain -> distances."""
    _x, phi, raw, f = build_instance(config)
    psi, stage = normalize_sofic_approx(raw)
    if not stage.holds:
        raise BoundViolation(
            f"normalization bound failed at seed {config.seed}, epsilon {config.epsilon},"
            f" fiber {config.fiber}, extra {config.extra}"
        )
    report = contradiction_experiment(phi, psi, f, eps=stage.defect_out)
    row = RunRow(
        config=config,
        eps=report.eps,
        rho=report.rho,
        event1=report.event1,
        event2=report.event2,
        dw=report.dw_best,
        bound=report.bound,
        component=report.best_component,
        holds=report.holds,
    )
    return row, report


CSV_COLUMNS = [
    "epsilon_nominal",
    "seed",
    "epsilon",
    "epsilon_dec",
    "rho",
    "rho_dec",
    "event1",
    "event1_dec",
    "event2",
    "event2_dec",
    "dw",
    "dw_dec",
    "bound",
    "bound_dec",
    "component",
    "holds",
]


def rows_to_csv(rows) -> str:
    return csv_text(
        CSV_COLUMNS,
        (
            [
                format_fraction(row.config.epsilon),
                row.config.seed,
                format_fraction(row.eps),
                format_decimal(row.eps),
                format_fraction(row.rho),
                format_decimal(row.rho),
                format_fraction(row.event1),
                format_decimal(row.event1),
                format_fraction(row.event2),
                format_decimal(row.event2),
                format_fraction(row.dw),
                format_decimal(row.dw),
                format_fraction(row.bound),
                format_decimal(row.bound),
                row.component,
                "true" if row.holds else "false",
            ]
            for row in rows
        ),
    )


def sweep(
    epsilons,
    seeds,
    fiber: int = 6,
    extra: int = 0,
    cocycle_mode: str = "coboundary",
) -> list[RunRow]:
    """One pipeline run per (epsilon, seed), rows ordered by epsilon then seed."""
    configs = [
        ExperimentConfig(seed=s, epsilon=Fraction(e), fiber=fiber, extra=extra, cocycle_mode=cocycle_mode)
        for e in epsilons
        for s in seeds
    ]
    configs.sort(key=lambda c: (c.epsilon, c.seed))
    return [run_pipeline(c)[0] for c in configs]
