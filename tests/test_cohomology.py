from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from permstab.cohomology import (
    F2Cochain,
    F2Subspace,
    coboundary,
    coboundary_space,
    cochain_from_support,
    cocycle_expansion_constant,
    cocycle_space,
    cohomology_dim,
    cosystole,
    delta_columns,
    distance_to_subspace,
    weighted_norm,
    zero_cochain,
)
from permstab.complexes import (
    SimplicialComplex,
    annulus,
    boundary_of_simplex,
    face_weight,
    full_triangle,
    hollow_polygon,
    projective_plane_six,
)
from permstab.covers import build_cover
from permstab.errors import ExactSearchRefused, PermstabError
from permstab.experiments import ExperimentConfig, build_instance
from permstab.rng import SplitMix64
from test_complexes import random_pure_complex
from test_covers import random_exact_action


def random_cochain(rng, x, k):
    return F2Cochain(x, k, rng.next_uint64() & ((1 << x.n_cells(k)) - 1))


def test_coboundary_of_vertex_indicator():
    t = full_triangle()
    alpha = cochain_from_support(t, 0, [(0,)])
    assert set(coboundary(alpha).support()) == {(0, 1), (0, 2)}
    assert coboundary(zero_cochain(t, 0)).is_zero


def test_coboundary_squares_to_zero():
    rng = SplitMix64(9)
    # exhaustive on a small complex
    x = full_triangle()
    for bits in range(1 << 3):
        assert coboundary(coboundary(F2Cochain(x, 0, bits))).is_zero
    # randomized elsewhere
    for _ in range(20):
        y = random_pure_complex(rng, n_vertices=7, n_faces=5)
        for _ in range(50):
            for k in range(y.dim - 1):
                assert coboundary(coboundary(random_cochain(rng, y, k))).is_zero


# -- naive definitions: face sums, weights of the support, XORs of basis subsets --

cell_families = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True), min_size=1, max_size=8
)


def face_sum_coboundary(alpha):
    """Bit j of the coboundary: alpha summed over the k-faces of the (k+1)-cell j, mod 2."""
    x, k = alpha.complex, alpha.degree
    bits = 0
    for j, cell in enumerate(x.cells(k + 1)):
        if sum(alpha(face) for face in combinations(cell, k + 1)) % 2:
            bits |= 1 << j
    return F2Cochain(x, k + 1, bits)


@settings(max_examples=200, deadline=None)
@given(cells=cell_families, seed=st.integers(0, 2**32))
def test_coboundary_matches_face_sums(cells, seed):
    x = SimplicialComplex.from_cells(cells)
    rng = SplitMix64(seed)
    for k in range(x.dim):
        alpha = random_cochain(rng, x, k)
        assert coboundary(alpha) == face_sum_coboundary(alpha)


@settings(max_examples=200, deadline=None)
@given(cells=cell_families, seed=st.integers(0, 2**32))
def test_weighted_norm_is_the_weight_of_the_support(cells, seed):
    x = SimplicialComplex.from_cells(cells)
    if not x.is_pure:
        x = SimplicialComplex.build_from_top_faces(x.cells(x.dim))
    rng = SplitMix64(seed)
    for k in range(x.dim + 1):
        alpha = random_cochain(rng, x, k)
        assert weighted_norm(alpha) == sum((face_weight(x, c) for c in alpha.support()), Fraction(0))


def test_subspace_elements_are_the_xors_of_basis_subsets():
    rng = SplitMix64(31)
    for x in (full_triangle(), boundary_of_simplex(3), projective_plane_six()):
        for k in range(x.dim + 1):
            for space in (cocycle_space(x, k), coboundary_space(x, k)):
                if space.dim > 10:
                    continue
                got = [e.bits for e in space.elements()]
                subsets = [
                    reduce(xor, sub, 0)
                    for r in range(space.dim + 1)
                    for sub in combinations(space.basis, r)
                ]
                assert sorted(got) == sorted(subsets) and len(set(got)) == 1 << space.dim
                # element t is the XOR of the basis rows picked by the bits of t
                t = rng.below(1 << space.dim)
                picked = [b for i, b in enumerate(space.basis) if t >> i & 1]
                assert got[t] == reduce(xor, picked, 0)
    space = F2Subspace.from_rows(boundary_of_simplex(3), 1, [0b1011, 0b0110])
    assert sorted(e.bits for e in space.elements()) == sorted({0, 0b1011, 0b0110, 0b1101})


def test_coboundary_top_dimension_rejected():
    with pytest.raises(PermstabError):
        coboundary(zero_cochain(full_triangle(), 2))


def test_weighted_norm_examples():
    x = boundary_of_simplex(3)
    assert weighted_norm(zero_cochain(x, 1)) == 0
    full = F2Cochain(x, 1, (1 << 6) - 1)
    assert weighted_norm(full) == 1
    t = full_triangle()
    assert weighted_norm(cochain_from_support(t, 0, [(0,)])) == Fraction(1, 3)


def test_norm_is_a_norm():
    rng = SplitMix64(13)
    x = projective_plane_six()
    for _ in range(200):
        a, b = random_cochain(rng, x, 1), random_cochain(rng, x, 1)
        assert weighted_norm(a ^ b) <= weighted_norm(a) + weighted_norm(b)
        assert (weighted_norm(a) == 0) == a.is_zero


def test_space_dimensions():
    t = full_triangle()
    assert cocycle_space(t, 0).dim == 1  # constants on a connected complex
    x = boundary_of_simplex(3)
    assert cocycle_space(x, 2).dim == 4
    assert coboundary_space(x, 2).dim == 3
    assert cohomology_dim(x, 2) == 1
    rp = projective_plane_six()
    assert cohomology_dim(rp, 1) == 1


def test_coboundaries_inside_cocycles():
    rng = SplitMix64(17)
    for _ in range(6):
        x = random_pure_complex(rng)
        for k in range(x.dim + 1):
            zk = cocycle_space(x, k)
            for row in coboundary_space(x, k).basis:
                assert zk.reduce(row) == 0


def test_distance_member_is_zero():
    x = boundary_of_simplex(3)
    z2 = cocycle_space(x, 2)
    alpha = next(iter(z2.elements()))
    res = distance_to_subspace(alpha, z2)
    assert res.value == 0 and res.witness == alpha and res.exact


def test_distance_examples():
    t = full_triangle()
    alpha = cochain_from_support(t, 0, [(0,)])
    res = distance_to_subspace(alpha, cocycle_space(t, 0))
    assert res.value == Fraction(1, 3) and res.witness.is_zero

    x = boundary_of_simplex(3)
    alpha = cochain_from_support(x, 2, [(0, 1, 2)])
    b2 = coboundary_space(x, 2)
    # independent oracle: scan the 8 coboundaries directly
    oracle = min(weighted_norm(alpha ^ b) for b in b2.elements())
    res = distance_to_subspace(alpha, b2)
    assert oracle == Fraction(1, 4) == res.value


def test_distance_reverse_enumeration_and_heuristic():
    rng = SplitMix64(19)
    x = projective_plane_six()
    b1 = coboundary_space(x, 1)
    for _ in range(15):
        alpha = random_cochain(rng, x, 1)
        res = distance_to_subspace(alpha, b1)
        # second, independent enumeration in reverse order
        rev = min(
            weighted_norm(alpha ^ v)
            for v in reversed(list(b1.elements()))
        )
        assert res.value == rev
        assert b1.contains(res.witness)
        assert weighted_norm(alpha ^ res.witness) == res.value
        heur = distance_to_subspace(alpha, b1, mode="heuristic")
        assert heur.value >= res.value and not heur.exact


def test_distance_tie_break_smallest_witness():
    # two edges of equal weight: nearest-subspace ties resolve to the lex-least witness
    path = SimplicialComplex.build_from_top_faces([(0, 1), (1, 2)])
    alpha = cochain_from_support(path, 1, [(0, 1)])
    other = cochain_from_support(path, 1, [(1, 2)])
    from permstab.cohomology import F2Subspace

    space = F2Subspace.from_rows(path, 1, [alpha.bits ^ other.bits])
    res = distance_to_subspace(alpha, space)
    # both members of the space are at distance 1/2; the zero witness is lex-least
    assert res.value == Fraction(1, 2) and res.witness.is_zero


def test_distance_refusal_above_limit():
    from itertools import combinations

    k9 = SimplicialComplex.build_from_top_faces(combinations(range(9), 2))
    space = cocycle_space(k9, 1)  # the whole 36-dim edge space
    assert space.dim > 24
    alpha = zero_cochain(k9, 1)
    with pytest.raises(ExactSearchRefused):
        distance_to_subspace(alpha, space)
    assert distance_to_subspace(alpha, space, mode="heuristic").value == 0


def test_expansion_constants():
    t = full_triangle()
    assert cocycle_expansion_constant(t, 0) == 2
    x = boundary_of_simplex(3)
    # frozen from a direct size-64 enumeration oracle
    assert cocycle_expansion_constant(x, 0) == Fraction(4, 3)
    assert cocycle_expansion_constant(x, 1) == 3


def test_expansion_matches_direct_enumeration():
    x = boundary_of_simplex(3)
    z1 = cocycle_space(x, 1)
    best = None
    for bits in range(1 << 6):
        alpha = F2Cochain(x, 1, bits)
        if z1.reduce(bits) == 0:
            continue
        num = weighted_norm(coboundary(alpha))
        den = min(weighted_norm(alpha ^ z) for z in z1.elements())
        ratio = num / den
        best = ratio if best is None else min(best, ratio)
    assert cocycle_expansion_constant(x, 1) == best


def test_expansion_infinite_marker():
    c3 = SimplicialComplex.build_from_top_faces([(0, 1), (1, 2), (0, 2)])
    assert cocycle_expansion_constant(c3, 1) is None  # no 2-cells: everything is a cocycle


def test_cosystole_values():
    x = boundary_of_simplex(3)
    # oracle: scan the 16 cocycles against the 8 coboundaries directly
    z2, b2 = cocycle_space(x, 2), coboundary_space(x, 2)
    oracle = min(
        min(weighted_norm(z ^ b) for b in b2.elements())
        for z in z2.elements()
        if not b2.contains(z)
    )
    assert cosystole(x, 2) == oracle == Fraction(1, 4)
    assert cosystole(full_triangle(), 1) is None  # the disk has no 1-cohomology
    # frozen from the 64-cocycle enumeration oracle: five edges out of fifteen
    assert cosystole(projective_plane_six(), 1) == Fraction(1, 3)


def test_cosystole_matches_direct_enumeration_on_rp2():
    rp = projective_plane_six()
    z1, b1 = cocycle_space(rp, 1), coboundary_space(rp, 1)
    oracle = min(
        min(weighted_norm(z ^ b) for b in b1.elements())
        for z in z1.elements()
        if not b1.contains(z)
    )
    assert cosystole(rp, 1) == oracle


def test_coboundary_squares_exhaustive_larger():
    x = boundary_of_simplex(4)  # 3-dimensional: degree-1 cochains compose twice
    assert x.n_cells(1) == 10
    for bits in range(1 << 10):
        assert coboundary(coboundary(F2Cochain(x, 1, bits))).is_zero


def sorting_delta_columns(x, k):
    """The coboundary columns with every face looked up through ``cell_position``, which sorts it again."""
    cols = [0] * x.n_cells(k)
    for j, cell in enumerate(x.cells(k + 1)):
        for face in combinations(cell, k + 1):
            cols[x.cell_position(face)] |= 1 << j
    return tuple(cols)


def test_delta_columns_match_the_sorting_lookup():
    """On the criterion-7 complexes, their covers, and sweep covers at fibers 12, 24 and 48."""
    rng = SplitMix64(10_007)
    pool = [annulus(), boundary_of_simplex(3), hollow_polygon(6), full_triangle(), projective_plane_six()]
    pool += [random_pure_complex(rng, n_vertices=5 + rng.below(4), n_faces=4) for _ in range(8)]
    complexes = list(pool)
    for i, x in enumerate(pool):
        complexes.append(build_cover(x, random_exact_action(x, 20_000 + i, 2 + i % 3)).total)
    for seed, fiber, extra in ((0, 12, 0), (1, 24, 2), (2, 48, 0)):
        x, _, _, f = build_instance(ExperimentConfig(seed=seed, epsilon=Fraction(1, 20), fiber=fiber, extra=extra))
        complexes.append(build_cover(x, f).total)
    for x in complexes:
        for k in range(x.dim):
            assert delta_columns(x, k) == sorting_delta_columns(x, k)
