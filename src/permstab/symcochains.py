"""Partial-permutation-valued cochains and their correction procedures.

A value is a partial injection of [n] attached to every oriented cell; the
reversed orientation carries the partial inverse.  Undefined compositions
stay undefined, and the violation statistics expose a strict/lenient flag
for how undefinedness is counted (lenient skips it, strict counts it).
Indices can be removed but never re-added.
"""

from __future__ import annotations

import warnings
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from types import MappingProxyType

from .complexes import SimplicialComplex, link
from .errors import PermstabError
from .rng import SplitMix64

Cell = tuple[int, ...]


@dataclass(frozen=True)
class PartialInj:
    """Partial injection of range(n); ``images[i]`` is None where undefined."""

    n: int
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.n:
            raise PermstabError("image table has the wrong length")
        defined = [v for v in self.images if v is not None]
        if any(not 0 <= v < self.n for v in defined):
            raise PermstabError("image out of range")
        if len(set(defined)) != len(defined):
            raise PermstabError("not injective")

    def apply(self, i: int):
        return self.images[i] if 0 <= i < self.n else None

    def compose(self, other: "PartialInj") -> "PartialInj":
        """self after other; undefined anywhere along the way stays undefined."""
        out = []
        for i in range(self.n):
            mid = other.apply(i)
            out.append(None if mid is None else self.apply(mid))
        return PartialInj(self.n, tuple(out))

    def inverse(self) -> "PartialInj":
        out = [None] * self.n
        for i, v in enumerate(self.images):
            if v is not None:
                out[v] = i
        return PartialInj(self.n, tuple(out))

    @property
    def domain(self) -> frozenset:
        return frozenset(i for i, v in enumerate(self.images) if v is not None)

    @property
    def is_total(self) -> bool:
        return all(v is not None for v in self.images)

    def set_index(self, i: int, target: int) -> "PartialInj":
        """Assign i -> target; an old pair occupying the target is dropped."""
        out = list(self.images)
        for j, v in enumerate(out):
            if v == target and j != i:
                out[j] = None
        out[i] = target
        return PartialInj(self.n, tuple(out))

    def drop_source(self, i: int) -> "PartialInj":
        out = list(self.images)
        out[i] = None
        return PartialInj(self.n, tuple(out))

    def drop_index_symmetric(self, j: int) -> "PartialInj":
        """Remove j from both the domain and the image."""
        out = [None if (i == j or v == j) else v for i, v in enumerate(self.images)]
        return PartialInj(self.n, tuple(out))

    @staticmethod
    def identity(n: int) -> "PartialInj":
        return PartialInj(n, tuple(range(n)))

    @staticmethod
    def from_perm(perm) -> "PartialInj":
        return PartialInj(len(perm), tuple(perm))

    def completed(self) -> "PartialInj":
        """Fill undefined slots with the unused targets in increasing order."""
        used = {v for v in self.images if v is not None}
        free = iter(v for v in range(self.n) if v not in used)
        return PartialInj(
            self.n, tuple(v if v is not None else next(free) for v in self.images)
        )


def _parity(oriented) -> int:
    inv = 0
    for i in range(len(oriented)):
        for j in range(i + 1, len(oriented)):
            if oriented[i] > oriented[j]:
                inv += 1
    return inv & 1


@dataclass(frozen=True)
class SymCochain:
    """Partial-permutation values on the canonical oriented cells of one degree, read-only once checked."""

    complex: SimplicialComplex
    degree: int
    n: int
    values: Mapping[Cell, PartialInj]

    def __post_init__(self):
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        expected = set(self.complex.cells(self.degree))
        if set(self.values) != expected:
            raise PermstabError("values must cover exactly the canonical cells")
        for v in self.values.values():
            if v.n != self.n:
                raise PermstabError("value on the wrong index set")

    def value_on(self, oriented) -> PartialInj:
        if len(set(oriented)) != len(oriented):
            raise PermstabError("repeated vertices in an oriented cell")
        try:
            val = self.values[tuple(sorted(oriented))]
        except KeyError:
            raise PermstabError(f"{tuple(oriented)} is not a {self.degree}-cell of the complex") from None
        return val if _parity(tuple(oriented)) == 0 else val.inverse()

    def with_value(self, cell: Cell, value: PartialInj) -> "SymCochain":
        vals = dict(self.values)
        vals[tuple(sorted(cell))] = value
        return SymCochain(self.complex, self.degree, self.n, vals)

    def __eq__(self, other):
        return (
            isinstance(other, SymCochain)
            and self.complex is other.complex
            and self.degree == other.degree
            and self.n == other.n
            and self.values == other.values
        )


def identity_cochain(x: SimplicialComplex, degree: int, n: int) -> SymCochain:
    return SymCochain(x, degree, n, {c: PartialInj.identity(n) for c in x.cells(degree)})


def _require_vertex_values(x: SimplicialComplex, h: dict) -> None:
    missing = next((v for v in x.vertices if v not in h), None)
    if missing is not None:
        raise PermstabError(f"no value at vertex {missing}")


def vertex_coboundary(x: SimplicialComplex, g: dict) -> SymCochain:
    """Edge cochain u->v given by g(v)^-1 after g(u); an exact cocycle."""
    _require_vertex_values(x, g)
    return twist(identity_cochain(x, 1, next(iter(g.values())).n), g)


def twist(f: SymCochain, h: dict) -> SymCochain:
    """Gauge shift: the value from u to v becomes h(v)^-1 f(uv) h(u)."""
    if f.degree != 1:
        raise PermstabError("twisting is defined for edge cochains")
    _require_vertex_values(f.complex, h)
    values = {}
    for (u, v) in f.complex.cells(1):
        values[(u, v)] = h[v].inverse().compose(f.values[(u, v)]).compose(h[u])
    return SymCochain(f.complex, 1, f.n, values)


def sym_distance(f: SymCochain, g: SymCochain) -> Fraction:
    """Probability of disagreement over a weighted cell and a uniform index.

    The index runs over the larger of the two index sets; an index missing
    from one side counts as a mismatch everywhere, undefined-vs-defined is a
    mismatch, and undefined-vs-undefined agrees.
    """
    if f.complex is not g.complex or f.degree != g.degree:
        raise PermstabError("cochains live on different spaces")
    m = max(f.n, g.n)
    shared = min(f.n, g.n)
    nums, den = f.complex.weight_numerators(f.degree)
    cells = f.complex.cells(f.degree)
    total = Fraction(0)
    for pos, cell in enumerate(cells):
        fv, gv = f.values[cell], g.values[cell]
        mism = m - shared
        mism += sum(1 for j in range(shared) if fv.images[j] != gv.images[j])
        total += Fraction(nums[pos] * mism, den * m)
    return total


def weight(f: SymCochain) -> Fraction:
    return sym_distance(f, identity_cochain(f.complex, f.degree, f.n))


def triangle_composite(f: SymCochain, oriented) -> PartialInj:
    """Value of the closed walk u -> v -> w -> u."""
    u, v, w = oriented
    return _walk_composite(f, (u, v, w, u))


def _moved(comp: PartialInj) -> list:
    """Indices where ``comp`` is defined and not the identity, lowest first."""
    return [j for j, val in enumerate(comp.images) if val is not None and val != j]


def _violating_indices(f: SymCochain, tri: Cell) -> set:
    """Indices whose value is defined and moves around the triangle in either orientation."""
    u, v, w = tri
    return {j for orient in ((u, v, w), (u, w, v)) for j in _moved(triangle_composite(f, orient))}


def sym_delta_weight(f: SymCochain, strict: bool = False) -> tuple[Fraction, Fraction]:
    """(plain, robust) triangle-violation statistics of an edge cochain.

    Plain is the weighted probability that a triangle has any violated index;
    robust is the weighted expectation of the violated-index fraction.  The
    strict flag decides whether an undefined composition counts as violated.
    """
    if f.degree != 1:
        raise PermstabError("expected an edge cochain")
    x = f.complex
    if x.dim < 2:
        raise PermstabError("the complex has no triangles")
    nums, den = x.weight_numerators(2)
    plain = Fraction(0)
    robust = Fraction(0)
    for pos, tri in enumerate(x.cells(2)):
        comp = triangle_composite(f, tri)
        bad = len(_moved(comp)) + (comp.images.count(None) if strict else 0)
        if bad:
            plain += Fraction(nums[pos], den)
        robust += Fraction(nums[pos] * bad, den * f.n)
    return plain, robust


def _assignments(verts, n: int):
    """Every map from ``verts`` to the permutations of range(n), first vertex fastest."""
    perms = [PartialInj.from_perm(p) for p in permutations(range(n))]
    for combo in product(perms, repeat=len(verts)):
        yield dict(zip(verts, reversed(combo)))


@dataclass
class MinimalityVerdict:
    violated: bool
    witness: dict | None
    exhaustive: bool
    tried: int


def eta_minimality_check(
    f: SymCochain, eta, budget: int = 10**7, seed: int = 0, random_trials: int = 200
) -> MinimalityVerdict:
    """Search for a gauge shift whose weight saving beats its distance.

    A witness h violates minimality when eta*(wt(f) - wt(f^h)) strictly
    exceeds dist(f, f^h).  The search is exhaustive when the full assignment
    space fits the budget, otherwise seeded random assignments plus greedy
    transposition descent; a clean verdict only means no violation was found
    within the budget.
    """
    if f.degree != 1:
        raise PermstabError("minimality shifts are defined only for edge cochains")
    eta = Fraction(eta)
    verts = f.complex.vertices
    wf = weight(f)

    def score(h) -> Fraction:
        g = twist(f, h)
        return eta * (wf - weight(g)) - sym_distance(f, g)

    space = 1
    for _ in verts:
        space *= factorial(f.n)
        if space > budget:
            break
    tried = 0
    if space <= budget:
        for h in _assignments(verts, f.n):
            tried += 1
            if score(h) > 0:
                return MinimalityVerdict(True, h, True, tried)
        return MinimalityVerdict(False, None, True, tried)

    rng = SplitMix64(seed)
    for _ in range(random_trials):
        h = {v: PartialInj.from_perm(rng.permutation(f.n)) for v in verts}
        best = score(h)
        tried += 1
        if best <= 0:
            h, best, steps = _descend(h, best, score, f.n, lambda s: s > 0)
            tried += steps
        if best > 0:
            return MinimalityVerdict(True, h, False, tried)
    return MinimalityVerdict(False, None, False, tried)


def _descend(h: dict, best, score, n: int, stop):
    """First-improvement transposition descent on a vertex assignment.

    Vertices are scanned in ``h``'s order, then the index pairs a < b; a swap
    of two images is kept only when it strictly raises ``score``.  Returns
    (h, best, candidates tried), early once ``stop(best)`` holds.
    """
    tried = 0
    improved = True
    while improved:
        improved = False
        for v in list(h):
            for a in range(n):
                for b in range(a + 1, n):
                    imgs = list(h[v].images)
                    imgs[a], imgs[b] = imgs[b], imgs[a]
                    cand = {**h, v: PartialInj(n, tuple(imgs))}
                    s = score(cand)
                    tried += 1
                    if s > best:
                        h, best, improved = cand, s, True
                        if stop(best):
                            return h, best, tried
    return h, best, tried


def localize(f: SymCochain, s) -> SymCochain:
    """Restriction to the link of ``s``: the value at t is the value at (s, t)."""
    s = tuple(sorted(s))
    j = len(s) - 1
    if f.degree <= j:
        raise PermstabError("cell dimension must be below the cochain degree")
    sub = link(f.complex, s)
    deg = f.degree - j - 1
    values = {t: f.value_on(s + t) for t in sub.cells(deg)}
    return SymCochain(sub, deg, f.n, values)


def eta_local_minimality_check(f: SymCochain, eta, **kw):
    """Check eta-minimality of every localization that is an edge cochain."""
    results = {}
    for j in range(f.degree):
        for s in f.complex.cells(j):
            fs = localize(f, s)
            if fs.degree == 1 and fs.complex.dim >= 1:
                results[s] = eta_minimality_check(fs, eta, **kw)
    return results


def single_edge_correction(f: SymCochain, u: int, v: int, eta1) -> SymCochain:
    """Majority vote over the edge's link, changing only the value at (u, v).

    For each index, link vertices whose two-step composite is defined vote
    for its target; a winner with vote share at least eta1 is installed, and
    the index is dropped when every candidate stays below 1 - eta1.
    """
    eta1 = Fraction(eta1)
    if eta1 <= Fraction(1, 2):
        raise PermstabError("need eta1 > 1/2")
    if f.degree != 1:
        raise PermstabError("expected an edge cochain")
    cell = tuple(sorted((u, v)))
    if not f.complex.has_cell(cell):
        raise PermstabError(f"({u},{v}) is not an edge")
    link_verts = [c[0] for c in link(f.complex, cell).cells(0)]
    if not link_verts:
        warnings.warn("edge has an empty link; nothing to vote with")
        return f

    new = f.value_on((u, v))
    for i in range(f.n):
        votes: dict[int, int] = {}
        defined = 0
        for w in link_verts:
            mid = f.value_on((u, w)).apply(i)
            res = None if mid is None else f.value_on((w, v)).apply(mid)
            if res is not None:
                defined += 1
                votes[res] = votes.get(res, 0) + 1
        if defined == 0:
            continue
        top_j, top_c = max(votes.items(), key=lambda t: t[1])
        if Fraction(top_c, defined) >= eta1:
            new = new.set_index(i, top_j)  # evicts whoever holds the winning slot
        elif all(Fraction(c, defined) < 1 - eta1 for c in votes.values()):
            new = new.drop_source(i)
    return _edge_value_from_orientation(f, u, v, new)


def _edge_value_from_orientation(f: SymCochain, u: int, v: int, value: PartialInj) -> SymCochain:
    cell = tuple(sorted((u, v)))
    return f.with_value(cell, value if (u, v) == cell else value.inverse())


def _triangles_at(x: SimplicialComplex, v: int):
    return [t for t in x.cells(2) if v in t]


def _index_violation_count(f: SymCochain, tris, i: int) -> int:
    return sum(i in _moved(triangle_composite(f, tri)) for tri in tris)


def vertex_link_correction(
    f: SymCochain, v: int, eta1, eta2, seed: int = 0
) -> SymCochain:
    """Refit all edges at one vertex against a best local explanation.

    A vertex assignment g on the link is fitted (exhaustively on tiny links,
    otherwise by seeded greedy transposition descent), then index by index
    its prediction is adopted when it lowers that index's violated-triangle
    share by at least eta1; failing that, an index violated on more than an
    eta2 share of the triangles at v is dropped from every edge at v.
    """
    eta1, eta2 = Fraction(eta1), Fraction(eta2)
    if f.degree != 1:
        raise PermstabError("expected an edge cochain")
    x = f.complex
    tris = _triangles_at(x, v)
    if not tris:
        warnings.warn("vertex has no triangles; nothing to correct")
        return f
    link_verts = sorted(c[0] for c in link(x, (v,)).cells(0))

    def with_assignment(base: SymCochain, g: dict) -> SymCochain:
        out = base
        for u in link_verts:
            out = _edge_value_from_orientation(out, u, v, g[u])
        return out

    def objective(g: dict) -> int:
        cand = with_assignment(f, g)
        return sum(len(_moved(triangle_composite(cand, tri))) for tri in tris)

    if len(link_verts) <= 3 and f.n <= 4:
        g = min(_assignments(link_verts, f.n), key=objective)  # the first minimum wins
    else:
        rng = SplitMix64(seed)
        g = {u: f.value_on((u, v)).completed() for u in link_verts}
        best = objective(g)
        for attempt in range(3):
            g, neg, _ = _descend(g, -best, lambda h: -objective(h), f.n, lambda s: False)
            best = -neg
            if attempt < 2:
                cand = {u: PartialInj.from_perm(rng.permutation(f.n)) for u in link_verts}
                if objective(cand) < best:
                    g, best = cand, objective(cand)

    out = f
    total = len(tris)
    for i in range(f.n):
        before = _index_violation_count(out, tris, i)
        adopted = out
        for u in link_verts:
            tgt = g[u].apply(i)
            val = adopted.value_on((u, v))
            val = val.set_index(i, tgt) if tgt is not None else val.drop_source(i)
            adopted = _edge_value_from_orientation(adopted, u, v, val)
        after = _index_violation_count(adopted, tris, i)
        if Fraction(before - after, total) >= eta1:
            out = adopted
        elif Fraction(before, total) > eta2:
            for u in link_verts:
                val = out.value_on((u, v)).drop_index_symmetric(i)
                out = _edge_value_from_orientation(out, u, v, val)
    return out


@dataclass
class DeletionReport:
    deleted: frozenset
    violating_pairs: int
    eps_hat: Fraction
    count_bound: int
    holds: bool


def count_joint_violations(f: SymCochain) -> int:
    """Jointly defined (index, triangle) violations, either orientation."""
    return sum(len(_violating_indices(f, tri)) for tri in f.complex.cells(2))


def global_deletion(f: SymCochain) -> tuple[SymCochain, DeletionReport]:
    """Drop every index that some triangle provably moves.

    An index violated on any triangle (jointly defined composite, either
    orientation) is removed from every edge, from domains and images alike.
    The report carries the measured per-pair violation rate and the count
    bound: no more indices are deleted than there are violating pairs.
    """
    if f.degree != 1:
        raise PermstabError("expected an edge cochain")
    x = f.complex
    tris = x.cells(2)
    pairs = 0
    doomed: set[int] = set()
    for tri in tris:
        bad = _violating_indices(f, tri)
        pairs += len(bad)
        doomed |= bad
    values = dict(f.values)
    for cell, val in values.items():
        for j in doomed:
            val = val.drop_index_symmetric(j)
        values[cell] = val
    out = SymCochain(x, 1, f.n, values)
    total = f.n * max(len(tris), 1)
    report = DeletionReport(
        deleted=frozenset(doomed),
        violating_pairs=pairs,
        eps_hat=Fraction(pairs, total),
        count_bound=pairs,
        holds=len(doomed) <= pairs,
    )
    return out, report


# -- cycles and the rewriting relation -----------------------------------


@dataclass(frozen=True)
class Cycle:
    """A closed based walk, stored with the closing vertex repeated; validated where it enters."""

    complex: SimplicialComplex
    verts: tuple

    def __post_init__(self):
        if not self.verts:
            raise PermstabError("empty cycle")
        if len(self.verts) > 1:
            if self.verts[0] != self.verts[-1]:
                raise PermstabError("cycle must close up")
            for a, b in self.edges():
                if not self.complex.has_cell((a, b)) or a == b:
                    raise PermstabError(f"({a},{b}) is not an edge")

    def edges(self):
        return [
            (self.verts[i], self.verts[i + 1]) for i in range(len(self.verts) - 1)
        ]

    @property
    def base(self) -> int:
        return self.verts[0]

    @property
    def length(self) -> int:
        return len(self.verts) - 1

    @staticmethod
    def trivial(x: SimplicialComplex, v: int) -> "Cycle":
        if not x.has_cell((v,)):
            raise PermstabError(f"{v} is not a vertex")
        return Cycle(x, (v,))


def _walk_composite(f: SymCochain, verts: tuple) -> PartialInj:
    """Compose the edge values along a vertex tuple, first edge applied first."""
    out = PartialInj.identity(f.n)
    for a, b in zip(verts, verts[1:]):
        out = f.value_on((a, b)).compose(out)
    return out


def _walk_domain(f: SymCochain, verts: tuple) -> frozenset:
    """Indices defined on every edge along a vertex tuple."""
    dom = frozenset(range(f.n))
    for a, b in zip(verts, verts[1:]):
        dom &= f.value_on((a, b)).domain
    return dom


def evaluate_cycle(f: SymCochain, cycle: Cycle) -> PartialInj:
    """Compose the edge values around the walk, first edge applied first."""
    if cycle.complex is not f.complex:
        raise PermstabError("cycle lives on a different complex")
    return _walk_composite(f, cycle.verts)


def cycle_domain(f: SymCochain, cycle: Cycle) -> frozenset:
    """Indices defined on every traversed edge (the composite may exceed this)."""
    if cycle.complex is not f.complex:
        raise PermstabError("cycle lives on a different complex")
    return _walk_domain(f, cycle.verts)


KINDS = ("EE", "EC", "TE", "TC")
_KIND_NAMES = dict(
    zip(KINDS, ("edge-extension", "edge-contraction", "triangle-extension", "triangle-contraction"))
)


def _steps(x: SimplicialComplex, verts: tuple, max_len: int):
    """Every rewriting step from a cycle's vertex tuple: (kind, position, cell, next_verts).

    This is the one definition of the relation.  The order is every EC by
    position, every TC by position, then, while the longer cycle stays within
    ``max_len``, TE by position and triangle and EE by position and
    neighbour.  ``verts`` must be a valid cycle of ``x``; so is every
    ``next_verts``.
    """
    length = len(verts) - 1
    for p in range(length - 1):
        if verts[p] == verts[p + 2]:
            yield "EC", p, tuple(sorted(verts[p : p + 2])), verts[: p + 1] + verts[p + 3 :]
    for p in range(length - 1):
        u, mid, w = verts[p : p + 3]
        tri = tuple(sorted((u, mid, w)))
        if len({u, mid, w}) == 3 and x.has_cell(tri):
            yield "TC", p, tri, verts[: p + 1] + verts[p + 2 :]
    if length + 1 <= max_len:
        for p in range(length):
            u, w = verts[p], verts[p + 1]
            for tri in x.cells(2):
                if u in tri and w in tri:
                    mid = next(z for z in tri if z not in (u, w))
                    yield "TE", p, tri, verts[: p + 1] + (mid,) + verts[p + 1 :]
    if length + 2 <= max_len:
        for p, v in enumerate(verts):
            for nb in x.neighbors(v):
                yield "EE", p, tuple(sorted((v, nb))), verts[: p + 1] + (nb,) + verts[p:]


def relation_step(x: SimplicialComplex, cycle: Cycle, kind: str, position: int, cell) -> Cycle:
    """Apply one edge/triangle extension or contraction at a position."""
    if cycle.complex is not x:
        raise PermstabError("cycle lives on a different complex")
    cell = tuple(sorted(cell))
    if not x.has_cell(cell):
        raise PermstabError(f"{cell} is not a cell")
    if kind not in KINDS:
        raise PermstabError(f"unknown step kind {kind!r}")
    for step in _steps(x, cycle.verts, cycle.length + 2):
        if step[:3] == (kind, position, cell):
            return Cycle(x, step[3])
    raise PermstabError(f"no {_KIND_NAMES[kind]} match at this position")


def enumerate_steps(x: SimplicialComplex, cycle: Cycle, max_len: int):
    """All legal single rewriting steps keeping the length within ``max_len``."""
    steps = list(_steps(x, cycle.verts, max_len))
    if steps and cycle.complex is not x:
        raise PermstabError("cycle lives on a different complex")
    return [(kind, p, cell, Cycle(x, nxt)) for kind, p, cell, nxt in steps]


@dataclass
class ContractionVerdict:
    found: bool
    sequence: list | None
    explored: int
    budget_exhausted: bool


def is_contractible(
    x: SimplicialComplex, cycle: Cycle, max_len: int, max_steps: int = 100000
) -> ContractionVerdict:
    """Search for a rewriting route to the trivial cycle; never proves impossibility.

    Breadth-first over cycles of length at most ``max_len``; returns the step
    sequence when the trivial cycle is reached, otherwise reports whether the
    bounded search space was exhausted or the step budget ran out.
    """
    Cycle(x, cycle.verts)  # the one validation: every rewrite of a valid cycle is valid
    target = (cycle.base,)
    start = cycle.verts
    parents: dict[tuple, tuple | None] = {start: None}
    moves: dict[tuple, tuple] = {}
    queue = deque([start])
    explored = 0
    while queue and explored < max_steps:
        cur = queue.popleft()
        explored += 1
        if cur == target:
            seq = []
            node = cur
            while parents[node] is not None:
                seq.append(moves[node])
                node = parents[node]
            return ContractionVerdict(True, list(reversed(seq)), explored, False)
        for kind, p, cell, nxt in _steps(x, cur, max_len):
            if nxt not in parents:
                parents[nxt] = cur
                moves[nxt] = (kind, p, cell)
                queue.append(nxt)
    return ContractionVerdict(False, None, explored, bool(queue))


@dataclass
class GoodFunctionReport:
    ok: bool
    counterexample: tuple | None
    step_violations: tuple
    ee_gaps: int
    cycles_enumerated: int
    budget_exhausted: bool


def good_function_check(
    f: SymCochain, max_len: int, max_steps: int = 50000
) -> GoodFunctionReport:
    """Audit ``f`` on every contractible cycle reachable within the budget.

    Cycles are grown from the trivial ones; a counterexample is a cycle and
    an index in its edge-wise domain that the composite moves.  Along the
    way every non-EE step is checked to preserve composite values where both
    sides are defined, and EE steps that lose definedness are counted as
    gaps, never as violations.
    """
    if f.degree != 1:
        raise PermstabError("expected an edge cochain")
    x = f.complex
    values: dict[tuple, PartialInj] = {}

    def value(verts: tuple) -> PartialInj:
        if verts not in values:
            values[verts] = _walk_composite(f, verts)
        return values[verts]

    step_violations = []
    ee_gaps = 0
    enumerated = 0
    budget_left = max_steps
    for base in sorted(x.vertices):
        start = (base,)
        seen = {start}
        queue = deque([start])
        while queue and budget_left > 0:
            cur = queue.popleft()
            budget_left -= 1
            enumerated += 1
            dom = _walk_domain(f, cur)
            comp = value(cur)
            for j in _moved(comp):
                if j in dom:
                    return GoodFunctionReport(
                        False,
                        (Cycle(x, cur), j),
                        tuple(step_violations),
                        ee_gaps,
                        enumerated,
                        False,
                    )
            for kind, p, cell, nxt in _steps(x, cur, max_len):
                b = value(nxt)
                if kind == "EE":
                    ee_gaps += sum(
                        1
                        for j in range(f.n)
                        if comp.apply(j) is not None and b.apply(j) is None
                    )
                else:
                    for j in range(f.n):
                        va, vb = comp.apply(j), b.apply(j)
                        if va is not None and vb is not None and va != vb:
                            step_violations.append((Cycle(x, cur), kind, p, cell, j))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return GoodFunctionReport(
        True, None, tuple(step_violations), ee_gaps, enumerated, budget_left <= 0
    )


# -- samplers -------------------------------------------------------------


@dataclass(frozen=True)
class SamplerGraph:
    """Right-regular bipartite graph; neighbors[j] lists the left ends of right vertex j."""

    n_left: int
    neighbors: tuple

    def __post_init__(self):
        degs = {len(ns) for ns in self.neighbors}
        if len(degs) != 1 or 0 in degs:
            raise PermstabError("graph is not right-regular")
        for ns in self.neighbors:
            if any(not 0 <= u < self.n_left for u in ns):
                raise PermstabError("neighbor out of range")

    @property
    def degree(self) -> int:
        return len(self.neighbors[0])


@dataclass
class SamplerVerdict:
    passed: bool
    failing_set: frozenset | None
    exhaustive: bool


def sampler_check(
    g: SamplerGraph, alpha, beta, seed: int = 0, trials: int = 500
) -> SamplerVerdict:
    """Test the one-sided sampling inequality over left subsets.

    Exhaustive over all subsets when the left side has at most 20 vertices;
    beyond that, seeded random subsets plus all singletons and their
    complements are tried.  Returns the first failing subset found.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    n, r = g.n_left, g.degree
    masks = [sum(1 << u for u in ns) for ns in g.neighbors]
    n_right = len(masks)

    def fails(a_mask: int):
        k = bin(a_mask).count("1")
        if k == 0:
            return False
        bad = 0
        for mask in masks:
            c = bin(a_mask & mask).count("1")
            # c/r > k/n + alpha, cleared of denominators
            if c * n * alpha.denominator > r * (k * alpha.denominator + n * alpha.numerator):
                bad += 1
        # bad/n_right > beta * k/n, cleared of denominators
        return bad * n * beta.denominator > n_right * beta.numerator * k

    def to_set(mask: int) -> frozenset:
        return frozenset(u for u in range(n) if (mask >> u) & 1)

    if n <= 20:
        for a_mask in range(1 << n):
            if fails(a_mask):
                return SamplerVerdict(False, to_set(a_mask), True)
        return SamplerVerdict(True, None, True)

    candidates = [1 << u for u in range(n)]
    candidates += [((1 << n) - 1) ^ (1 << u) for u in range(n)]
    rng = SplitMix64(seed)
    candidates += [rng.next_uint64() & ((1 << n) - 1) for _ in range(trials)]
    for a_mask in candidates:
        if fails(a_mask):
            return SamplerVerdict(False, to_set(a_mask), False)
    return SamplerVerdict(True, None, False)
