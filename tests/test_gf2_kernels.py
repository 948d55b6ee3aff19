from fractions import Fraction
from itertools import combinations

from hypothesis import assume, example, given, settings, strategies as st

from permstab import gf2
from permstab.kernels import reference
from permstab.rng import SplitMix64


def _weight(bits, weights):
    return sum(weights[i] for i in range(len(weights)) if (bits >> i) & 1)


def _combine(rows, mask):
    out = 0
    for j, row in enumerate(rows):
        if (mask >> j) & 1:
            out ^= row
    return out


def naive_min_affine(start, rows, weights, tie_mask=0):
    """Direct enumeration of every subset, no Gray code."""
    best = None
    for size in range(len(rows) + 1):
        for combo in combinations(range(len(rows)), size):
            cur = start
            for i in combo:
                cur ^= rows[i]
            w = _weight(cur, weights)
            key = (w, _lex_key(cur ^ tie_mask, len(weights)))
            if best is None or key < best[0]:
                best = (key, (w, cur))
    return best[1]


def _lex_key(bits, n):
    return tuple((bits >> i) & 1 for i in range(n))


def naive_min_ratio(u_rows, u_img_rows, z_rows, weights_lo, weights_hi):
    """Each nonzero coset's minimum by direct enumeration of its points.

    Cosets are visited in Gray-code order of their u combination, so that
    among equal ratios the first one wins, as in the reference.
    """
    best = None
    for t in range(1, 1 << len(u_rows)):
        gray = t ^ (t >> 1)
        lo = _combine(u_rows, gray)
        num = _weight(_combine(u_img_rows, gray), weights_hi)
        den = min(_weight(lo ^ _combine(z_rows, s), weights_lo) for s in range(1 << len(z_rows)))
        if best is None or Fraction(num, den) < Fraction(*best):
            best = (num, den)
    return best


def _examples(cases):
    """Each case becomes an explicit ``hypothesis`` example, run on every test run."""

    def apply(test):
        for case in cases:
            test = example(case)(test)
        return test

    return apply


def _seeded_affine_cases():
    rng = SplitMix64(2)
    for _ in range(60):
        ncells = 1 + rng.below(12)
        k = rng.below(min(6, ncells) + 1)
        rows = [rng.next_uint64() & ((1 << ncells) - 1) for _ in range(k)]
        start = rng.next_uint64() & ((1 << ncells) - 1)
        weights = [1 + rng.below(9) for _ in range(ncells)]
        tie = rng.next_uint64() & ((1 << ncells) - 1)
        yield start, rows, weights, tie


@st.composite
def affine_cases(draw):
    """``(start, rows, weights, tie_mask)``, zero weights, ties and repeated rows included."""
    ncells = draw(st.integers(0, 10))
    bits = st.integers(0, (1 << ncells) - 1)
    if draw(st.booleans()):
        weights = [draw(st.integers(0, 3))] * ncells
    else:
        weights = draw(st.lists(st.integers(0, 9), min_size=ncells, max_size=ncells))
    rows = draw(st.lists(bits, max_size=5))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return draw(bits), rows, weights, draw(bits)


def _seeded_ratio_cases():
    # the domain rows must be independent, as they are in real use:
    # a nonzero combination never has weight zero
    rng = SplitMix64(3)
    for _ in range(40):
        nlo = 4 + rng.below(5)
        nhi = 1 + rng.below(10)
        nu = 1 + rng.below(3)
        nz = rng.below(3)
        rows = []
        while len(rows) < nu + nz:
            cand = rng.next_uint64() & ((1 << nlo) - 1)
            if cand and gf2.rank(rows + [cand]) == len(rows) + 1:
                rows.append(cand)
        ui_rows = [rng.next_uint64() & ((1 << nhi) - 1) for _ in range(nu)]
        wlo = [1 + rng.below(7) for _ in range(nlo)]
        whi = [1 + rng.below(7) for _ in range(nhi)]
        yield rows[:nu], ui_rows, rows[nu:], wlo, whi


@st.composite
def ratio_cases(draw):
    """``(u_rows, u_img_rows, z_rows, weights_lo, weights_hi)`` with independent domain rows."""
    nlo = draw(st.integers(1, 8))
    nhi = draw(st.integers(1, 8))
    nu = draw(st.integers(1, min(3, nlo)))
    nz = draw(st.integers(0, min(3, nlo - nu)))
    rows = draw(st.lists(st.integers(1, (1 << nlo) - 1), min_size=nu + nz, max_size=nu + nz))
    assume(gf2.rank(rows) == len(rows))
    ui_rows = draw(st.lists(st.integers(0, (1 << nhi) - 1), min_size=nu, max_size=nu))
    if draw(st.booleans()):  # equal weights make many ratios equal
        wlo, whi = [1] * nlo, [draw(st.integers(1, 2))] * nhi
    else:
        wlo = draw(st.lists(st.integers(1, 7), min_size=nlo, max_size=nlo))
        whi = draw(st.lists(st.integers(1, 7), min_size=nhi, max_size=nhi))
    return rows[:nu], ui_rows, rows[nu:], wlo, whi


def test_row_reduce_and_rank():
    rows = [0b110, 0b011, 0b101]
    basis, pivots = gf2.row_reduce(rows)
    assert len(basis) == 2 == gf2.rank(rows)
    assert gf2.reduce_vector(0b101, basis, pivots) == 0
    assert gf2.reduce_vector(0b001, basis, pivots) != 0


def test_kernel_and_complement_split():
    cols = [0b01, 0b10, 0b11, 0b00]
    kernel, complement = gf2.kernel_and_complement(cols)
    assert len(kernel) + len(complement) == 4
    for vec in kernel:
        img = 0
        for i in range(4):
            if (vec >> i) & 1:
                img ^= cols[i]
        assert img == 0


@settings(max_examples=300, deadline=None)
@given(affine_cases())
@_examples(_seeded_affine_cases())
@example((0b101, [], [1, 0, 2], 0b011))  # no rows
@example((0b001, [0b110], [2, 1, 1], 0))  # a single row
@example((0, [0b011, 0b011, 0b110], [1, 1, 1], 0b100))  # repeated and overlapping rows
@example((0, [0b01, 0b10], [0, 0], 0b10))  # zero weights: every point ties
@example((0b1, [0b11, 0b110], [2, 2, 2], 0b101))  # equal weights, ties to tie_mask
def test_reference_matches_naive_enumeration(case):
    assert reference.min_affine_weight(*case) == naive_min_affine(*case)


@settings(max_examples=300, deadline=None)
@given(ratio_cases())
@_examples(_seeded_ratio_cases())
@example(([0b01], [0b1], [], [1, 2], [3]))  # nz = 0
@example(([0b001], [0b11], [0b010, 0b100], [1, 1, 1], [1, 1]))  # nu = 1: a single coset
@example(([0b011, 0b100], [0b011, 0b100], [], [1, 1, 1], [1, 1, 1]))  # equal ratios 2/2, 3/3, 1/1
def test_reference_ratio_scan_matches_naive(case):
    assert reference.min_ratio_scan(*case) == naive_min_ratio(*case)
