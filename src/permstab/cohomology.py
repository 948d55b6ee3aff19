"""GF(2) cochains, coboundaries, weighted norms, expansion constants and cosystoles.

Cochains are bit vectors over the canonical cell order of a fixed complex.
All norms and distances are exact rationals.  Exhaustive searches refuse to
run above 2**24 points; see ``distance_to_subspace`` for the refusal contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import gf2, kernels
from .complexes import SimplicialComplex
from .errors import ExactSearchRefused, PermstabError

EXHAUSTIVE_DIM_LIMIT = 24


@dataclass(frozen=True)
class F2Cochain:
    """A k-cochain as a bitset over X(k) in canonical cell order."""

    complex: SimplicialComplex
    degree: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.degree <= self.complex.dim:
            raise PermstabError(f"no cells in dimension {self.degree}")
        if self.bits >> self.complex.n_cells(self.degree):
            raise PermstabError("support outside the cell range")

    def __xor__(self, other: "F2Cochain") -> "F2Cochain":
        if other.complex is not self.complex or other.degree != self.degree:
            raise PermstabError("cochains live on different spaces")
        return F2Cochain(self.complex, self.degree, self.bits ^ other.bits)

    __add__ = __xor__

    def __call__(self, cell) -> int:
        return (self.bits >> self.complex.cell_position(cell)) & 1

    def support(self):
        cells = self.complex.cells(self.degree)
        return tuple(cells[i] for i in range(len(cells)) if (self.bits >> i) & 1)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0


def zero_cochain(x: SimplicialComplex, k: int) -> F2Cochain:
    return F2Cochain(x, k, 0)


def cochain_from_support(x: SimplicialComplex, k: int, cells) -> F2Cochain:
    bits = 0
    for cell in cells:
        cell = tuple(sorted(cell))
        if len(cell) != k + 1:
            raise PermstabError(f"{cell} is not a {k}-cell")
        bits |= 1 << x.cell_position(cell)
    return F2Cochain(x, k, bits)


def delta_columns(x: SimplicialComplex, k: int) -> tuple[int, ...]:
    """Per k-cell, the bitset of (k+1)-cells containing it.

    Cells are sorted vertex tuples, so the faces ``combinations`` yields are
    sorted too and are looked up in the position index as they are.
    """
    key = ("delta_cols", k)
    if key not in x._cache:
        cols = [0] * x.n_cells(k)
        index = x._index[k]
        for j, cell in enumerate(x.cells(k + 1)):
            for face in combinations(cell, k + 1):
                cols[index[face]] |= 1 << j
        x._cache[key] = tuple(cols)
    return x._cache[key]


def _set_bits(bits: int):
    """Positions of the set bits, lowest first."""
    while bits:
        yield (bits & -bits).bit_length() - 1
        bits &= bits - 1


def _xor_rows(rows, marker: int) -> int:
    """XOR of ``rows[i]`` over the set bits ``i`` of ``marker``."""
    out = 0
    for i in _set_bits(marker):
        out ^= rows[i]
    return out


def coboundary(alpha: F2Cochain) -> F2Cochain:
    """Sum each (k+1)-cell's k-faces mod 2."""
    x, k = alpha.complex, alpha.degree
    if k >= x.dim:
        raise PermstabError("no codomain above the top dimension")
    return F2Cochain(x, k + 1, _xor_rows(delta_columns(x, k), alpha.bits))


def weighted_norm(alpha: F2Cochain) -> Fraction:
    nums, den = alpha.complex.weight_numerators(alpha.degree)
    return Fraction(sum(nums[i] for i in _set_bits(alpha.bits)), den)


def distance(alpha: F2Cochain, beta: F2Cochain) -> Fraction:
    return weighted_norm(alpha ^ beta)


@dataclass(frozen=True)
class F2Subspace:
    """A subspace of C^k given by a reduced-echelon bitset basis."""

    complex: SimplicialComplex
    degree: int
    basis: tuple[int, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, x: SimplicialComplex, k: int, rows) -> "F2Subspace":
        basis, pivots = gf2.row_reduce(rows)
        return cls(x, k, tuple(basis), tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, bits: int) -> int:
        return gf2.reduce_vector(bits, self.basis, self.pivots)

    def contains(self, alpha: F2Cochain) -> bool:
        return self.reduce(alpha.bits) == 0

    def elements(self):
        """All 2**dim member cochains; only sensible for small subspaces."""
        for t in range(1 << self.dim):
            yield F2Cochain(self.complex, self.degree, _xor_rows(self.basis, t))


def cocycle_space(x: SimplicialComplex, k: int) -> F2Subspace:
    """Kernel of the degree-k coboundary map; all of C^k in the top dimension."""
    if not 0 <= k <= x.dim:
        raise PermstabError(f"no cells in dimension {k}")
    if k == x.dim:
        rows = [1 << i for i in range(x.n_cells(k))]
        return F2Subspace.from_rows(x, k, rows)
    kernel, _ = gf2.kernel_and_complement(delta_columns(x, k))
    return F2Subspace.from_rows(x, k, kernel)


def coboundary_space(x: SimplicialComplex, k: int) -> F2Subspace:
    """Image of the degree-(k-1) coboundary map; trivial for k = 0."""
    if not 0 <= k <= x.dim:
        raise PermstabError(f"no cells in dimension {k}")
    if k == 0:
        return F2Subspace.from_rows(x, k, [])
    return F2Subspace.from_rows(x, k, delta_columns(x, k - 1))


def cohomology_dim(x: SimplicialComplex, k: int) -> int:
    return cocycle_space(x, k).dim - coboundary_space(x, k).dim


@dataclass(frozen=True)
class DistanceResult:
    value: Fraction
    witness: F2Cochain
    exact: bool


def distance_to_subspace(alpha: F2Cochain, space: F2Subspace, mode: str = "exact") -> DistanceResult:
    """Distance from ``alpha`` to the nearest member of ``space``.

    Exact mode enumerates the whole coset (refused above dimension 24) and
    returns the true minimum with the nearest member as witness, ties broken
    by the lexicographically smallest witness bit pattern.  Heuristic mode is
    a deterministic greedy descent over basis vectors and only returns an
    upper bound.
    """
    if space.complex is not alpha.complex or space.degree != alpha.degree:
        raise PermstabError("cochain and subspace live on different spaces")
    x, k = alpha.complex, alpha.degree
    nums, den = x.weight_numerators(k)
    if mode == "exact":
        if space.dim > EXHAUSTIVE_DIM_LIMIT:
            raise ExactSearchRefused(
                f"coset of dimension {space.dim} exceeds the {EXHAUSTIVE_DIM_LIMIT}-dim "
                "exhaustive limit; use mode='heuristic'"
            )
        best_w, best = kernels.min_affine_weight(
            alpha.bits, list(space.basis), list(nums), tie_mask=alpha.bits
        )
        witness = F2Cochain(x, k, best ^ alpha.bits)
        return DistanceResult(Fraction(best_w, den), witness, True)
    if mode == "heuristic":
        cur = alpha.bits

        def wt(bits):
            return sum(nums[i] for i in _set_bits(bits))

        w = wt(cur)
        improved = True
        while improved:
            improved = False
            for row in space.basis:
                cand = wt(cur ^ row)
                if cand < w:
                    cur ^= row
                    w = cand
                    improved = True
        witness = F2Cochain(x, k, cur ^ alpha.bits)
        return DistanceResult(Fraction(w, den), witness, False)
    raise PermstabError(f"unknown mode {mode!r}")


def cocycle_expansion_constant(x: SimplicialComplex, k: int):
    """min over non-cocycles of (coboundary norm / distance to the cocycles).

    Returns ``None`` when every k-cochain is a cocycle (empty minimization).
    Exhaustive over all of C^k, so it refuses when |X(k)| > 24.
    """
    if not 0 <= k < x.dim:
        if k == x.dim:
            return None
        raise PermstabError(f"no cells in dimension {k}")
    m = x.n_cells(k)
    if m > EXHAUSTIVE_DIM_LIMIT:
        raise ExactSearchRefused(f"|X({k})| = {m} exceeds the exhaustive limit")
    cols = delta_columns(x, k)
    kernel, complement = gf2.kernel_and_complement(cols)
    if not complement:
        return None
    nums_k, den_k = x.weight_numerators(k)
    nums_k1, den_k1 = x.weight_numerators(k + 1)
    u_img = [_xor_rows(cols, marker) for marker in complement]
    num, d = kernels.min_ratio_scan(complement, u_img, kernel, list(nums_k), list(nums_k1))
    return Fraction(num * den_k, d * den_k1)


def cosystole(x: SimplicialComplex, k: int):
    """min distance from a non-coboundary cocycle to the coboundaries.

    Returns ``None`` when H^k vanishes (every cocycle is a coboundary).
    Refuses when dim Z^k > 24.
    """
    zk = cocycle_space(x, k)
    if zk.dim > EXHAUSTIVE_DIM_LIMIT:
        raise ExactSearchRefused(f"dim Z^{k} = {zk.dim} exceeds the exhaustive limit")
    bk = coboundary_space(x, k)
    lifts = []
    for row in zk.basis:
        residue = bk.reduce(row)
        if residue:
            lifts.append(residue)
    lifts, _ = gf2.row_reduce(lifts)
    if not lifts:
        return None
    nums, den = x.weight_numerators(k)
    best = None
    rep = 0
    for t in range(1, 1 << len(lifts)):
        rep ^= lifts[(t & -t).bit_length() - 1]
        w, _ = kernels.min_affine_weight(rep, list(bk.basis), list(nums))
        if best is None or w < best:
            best = w
    return Fraction(best, den)
