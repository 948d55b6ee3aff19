from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from permstab.complexes import (
    EMPTY_COMPLEX,
    SimplicialComplex,
    annulus,
    annulus_winding_cocycle,
    boundary_of_simplex,
    face_weight,
    full_triangle,
    fundamental_group_presentation,
    hollow_polygon,
    link,
    projective_plane_six,
    random_lm_complex,
    spanning_tree,
)
from permstab.errors import PermstabError
from permstab.rng import SplitMix64


def random_pure_complex(rng, n_vertices=6, n_faces=5):
    """Downward closure of random triangles: pure by construction."""
    tris = set()
    while len(tris) < n_faces:
        tris.add(tuple(sorted(rng.sample(range(n_vertices), 3))))
    return SimplicialComplex.build_from_top_faces(sorted(tris))


def test_single_triangle_closure():
    x = SimplicialComplex.build_from_top_faces([(0, 1, 2)])
    assert x.cells(0) == ((0,), (1,), (2,))
    assert x.cells(1) == ((0, 1), (0, 2), (1, 2))
    assert x.cells(2) == ((0, 1, 2),)


def test_boundary_of_3_simplex_counts():
    x = boundary_of_simplex(3)
    assert [x.n_cells(k) for k in range(3)] == [4, 6, 4]
    assert x.is_pure


def test_duplicate_top_faces_deduplicated():
    x = SimplicialComplex.build_from_top_faces([(0, 1, 2), (0, 1, 2)])
    assert x.n_cells(2) == 1


def test_mixed_cardinalities_rejected():
    with pytest.raises(PermstabError):
        SimplicialComplex.build_from_top_faces([(0, 1, 2), (3, 4)])


def test_empty_input_rejected():
    with pytest.raises(PermstabError):
        SimplicialComplex.build_from_top_faces([])


def test_downward_closure_exhaustive():
    rng = SplitMix64(11)
    for _ in range(10):
        x = random_pure_complex(rng)
        all_cells = {c for k in range(x.dim + 1) for c in x.cells(k)}
        for cell in all_cells:
            for size in range(1, len(cell)):
                for sub in combinations(cell, size):
                    assert sub in all_cells
        assert x.is_pure


# -- weights ---------------------------------------------------------------


def test_face_weight_examples():
    x = boundary_of_simplex(3)
    assert face_weight(x, (1, 2, 3)) == Fraction(1, 4)
    # each edge of the boundary sphere lies in 2 of the 4 triangles
    assert sum(1 for t in x.cells(2) if {0, 1} <= set(t)) == 2
    assert face_weight(x, (0, 1)) == Fraction(1, 3) * Fraction(2, 4)
    t = full_triangle()
    assert face_weight(t, (0,)) == Fraction(1, 3)


def test_weights_sum_to_one_per_dimension():
    rng = SplitMix64(5)
    complexes = [boundary_of_simplex(3), full_triangle(), projective_plane_six(), annulus()]
    complexes += [random_pure_complex(rng) for _ in range(6)]
    for x in complexes:
        for k in range(x.dim + 1):
            assert sum(face_weight(x, c) for c in x.cells(k)) == 1


def test_weight_rejects_non_cell_and_non_pure():
    x = boundary_of_simplex(3)
    with pytest.raises(PermstabError):
        face_weight(x, (0, 1, 2, 3))
    nonpure = random_lm_complex(5, Fraction(1, 4), seed=99)
    if not nonpure.is_pure:
        with pytest.raises(PermstabError):
            nonpure.weight_numerators(1)


def quadratic_is_pure(x):
    """The purity scan ``is_pure`` replaced: every cell against every top cell."""
    top = set(x.faces_by_dim[-1])
    return all(
        any(set(cell) <= set(t) for t in top)
        for k in range(x.dim)
        for cell in x.faces_by_dim[k]
    )


cell_families = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=8
)


@settings(max_examples=300, deadline=None)
@given(cell_families)
def test_is_pure_matches_quadratic_scan(cells):
    x = SimplicialComplex.from_cells(cells)
    assert x.is_pure == quadratic_is_pure(x)


def test_is_pure_matches_quadratic_scan_seeded():
    rng = SplitMix64(7)
    seen = set()
    for _ in range(300):
        size = 1 + rng.below(4)
        cells = [
            [rng.below(7) for _ in range(1 + rng.below(size))] for _ in range(1 + rng.below(8))
        ]
        if rng.below(2):  # equal-size top faces: pure by construction
            cells = [c for c in cells if len(set(c)) == len(set(cells[0]))]
        x = SimplicialComplex.from_cells(cells)
        assert x.is_pure == quadratic_is_pure(x)
        seen.add(x.is_pure)
    assert seen == {True, False}


# -- links -----------------------------------------------------------------


def brute_link_cells(x, s):
    sset = set(s)
    out = set()
    for k in range(x.dim + 1):
        for cell in x.cells(k):
            if sset.isdisjoint(cell) and x.has_cell(tuple(sorted(set(cell) | sset))):
                out.add(cell)
    return out


def test_link_examples():
    x = boundary_of_simplex(3)
    lk = link(x, (0,))
    assert lk.cells(1) == ((1, 2), (1, 3), (2, 3))
    assert lk.dim == 1
    t = full_triangle()
    assert link(t, (0, 1)).cells(0) == ((2,),)
    lk2 = link(x, (0, 1))
    assert lk2.cells(0) == ((2,), (3,)) and lk2.dim == 0
    empty = link(t, (0, 1, 2))
    assert empty is EMPTY_COMPLEX and empty.dim == -1 and empty.is_pure
    assert empty.vertices == () and empty.vertex_count == 0 and empty.neighbors(0) == ()
    assert empty.facets() == [] and empty.cells(0) == ()


def test_link_composition_matches_direct():
    rng = SplitMix64(21)
    for _ in range(8):
        x = random_pure_complex(rng, n_vertices=7, n_faces=6)
        for (u, v) in x.cells(1):
            via_links = link(link(x, (u,)), (v,))
            direct = link(x, (u, v))
            left = {c for k in range(via_links.dim + 1) for c in via_links.cells(k)}
            assert left == brute_link_cells(x, (u, v))
            right = {c for k in range(direct.dim + 1) for c in direct.cells(k)}
            assert left == right


# -- trees and presentations -------------------------------------------------


def test_spanning_tree_examples():
    t = spanning_tree(full_triangle(), 0)
    assert t.tree_edges == frozenset({(0, 1), (0, 2)})
    path = SimplicialComplex.build_from_top_faces([(0, 1), (1, 2)])
    tp = spanning_tree(path, 0)
    assert tp.tree_edges == frozenset({(0, 1), (1, 2)})
    two = SimplicialComplex.build_from_top_faces([(0, 1), (2, 3)])
    tt = spanning_tree(two, 0)
    assert tt.component == frozenset({0, 1})
    with pytest.raises(PermstabError):
        spanning_tree(full_triangle(), 9)


def test_presentation_single_triangle():
    x = full_triangle()
    tree = spanning_tree(x, 0)
    pres = fundamental_group_presentation(x, tree)
    assert len(pres.generators) == 6
    lengths = sorted(len(r) for r in pres.relations)
    # 4 tree words (length 1), 3 backtracking (length 2), 2 oriented triangles (length 3)
    assert lengths == [1, 1, 1, 1, 2, 2, 2, 3, 3]
    assert pres.max_relation_length == 3


def f2_abelianization_rank(pres):
    from permstab.gf2 import rank

    gidx = {g: i for i, g in enumerate(pres.generators)}
    rows = []
    for rel in pres.relations:
        row = 0
        for g, _ in rel:  # exponents only matter mod 2
            row ^= 1 << gidx[g]
        rows.append(row)
    return len(pres.generators) - rank(rows)


def test_presented_abelianizations():
    # disk: trivial group
    x = full_triangle()
    pres = fundamental_group_presentation(x, spanning_tree(x, 0))
    assert f2_abelianization_rank(pres) == 0
    # hollow triangle: infinite cyclic
    c3 = hollow_polygon(3)
    pres = fundamental_group_presentation(c3, spanning_tree(c3, 0))
    assert f2_abelianization_rank(pres) == 1
    # 2-sphere: simply connected
    s2 = boundary_of_simplex(3)
    pres = fundamental_group_presentation(s2, spanning_tree(s2, 0))
    assert f2_abelianization_rank(pres) == 0


def test_abelianization_matches_first_betti_mod2():
    from permstab.cohomology import cohomology_dim

    rng = SplitMix64(31)
    for _ in range(8):
        x = random_pure_complex(rng, n_vertices=6, n_faces=4)
        tree = spanning_tree(x, min(x.vertices))
        if tree.component != frozenset(x.vertices):
            continue  # the presentation covers one component only
        pres = fundamental_group_presentation(x, tree)
        assert f2_abelianization_rank(pres) == cohomology_dim(x, 1)


# -- random complexes ---------------------------------------------------------


def test_lm_extremes():
    full = random_lm_complex(5, 1, seed=1)
    assert full.n_cells(2) == 10 and full.n_cells(1) == 10
    empty = random_lm_complex(5, 0, seed=1)
    assert empty.dim == 1 and empty.n_cells(1) == 10


def test_lm_determinism_and_bounds():
    a = random_lm_complex(6, Fraction(1, 2), seed=42)
    b = random_lm_complex(6, Fraction(1, 2), seed=42)
    assert a.faces_by_dim == b.faces_by_dim
    c = random_lm_complex(6, Fraction(1, 2), seed=43)
    assert 0 < c.n_cells(2) < 20  # sanity: the seeded draw is non-degenerate
    with pytest.raises(PermstabError):
        random_lm_complex(2, Fraction(1, 2), seed=0)


def test_annulus_winding_cocycle_sums_to_zero_on_triangles():
    x = annulus()
    c = annulus_winding_cocycle()

    def val(a, b):
        return c[(a, b)] if (a, b) in c else -c[(b, a)]

    for (a, b, d) in x.cells(2):
        assert val(a, b) + val(b, d) + val(d, a) == 0
    # winding of the inner loop is 1
    assert val(0, 1) + val(1, 2) + val(2, 0) == 1
