"""Differential tests of the shared builders against the code they replaced.

Each ``old_*`` function below is a copy of the construction the package used
before it kept one copy of each: the two hand-written edge presentations, the
odometer over vertex assignments in the gauge and vertex-link searches, the
inline eviction in the single-edge vote, the two CSV/decimal writers and the
quadratic facet scan.  The current code must give ``==`` results (and
byte-equal CSV) on seeded inputs and on ``hypothesis`` families.
"""

import csv
import io
import warnings
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from permstab.cohomology import F2Cochain, coboundary
from permstab.complexes import (
    Presentation,
    SimplicialComplex,
    Word,
    annulus,
    boundary_of_simplex,
    edge_gen,
    full_triangle,
    fundamental_group_presentation,
    link,
    projective_plane_six,
    random_lm_complex,
    spanning_tree,
)
from permstab.covers import extension_from_cocycle
from permstab.errors import PermstabError
from permstab.experiments import CSV_COLUMNS, ExperimentConfig, run_pipeline, rows_to_csv
from permstab.fileio import csv_text, format_decimal, format_fraction
from permstab.rng import SplitMix64
from permstab.symcochains import (
    MinimalityVerdict,
    PartialInj,
    SymCochain,
    _edge_value_from_orientation,
    _index_violation_count,
    _triangles_at,
    eta_minimality_check,
    single_edge_correction,
    sym_distance,
    triangle_composite,
    twist,
    vertex_coboundary,
    vertex_link_correction,
    weight,
)

# -- test-local copies of the replaced code --------------------------------------


def old_fundamental_group_presentation(x, tree):
    comp = tree.component
    gens = []
    pairs = []
    edges = [e for e in x.cells(1) if e[0] in comp and e[1] in comp]
    for (a, b) in edges:
        gens.append(edge_gen(a, b))
        gens.append(edge_gen(b, a))
        pairs.append((edge_gen(a, b), edge_gen(b, a)))
    relations = []
    for (a, b) in sorted(tree.tree_edges):
        relations.append(((edge_gen(a, b), 1),))
        relations.append(((edge_gen(b, a), 1),))
    for (a, b) in edges:
        relations.append(((edge_gen(a, b), 1), (edge_gen(b, a), 1)))
    for (a, b, c) in x.cells(2):
        if a in comp and b in comp and c in comp:
            relations.append(((edge_gen(a, b), 1), (edge_gen(b, c), 1), (edge_gen(c, a), 1)))
            relations.append(((edge_gen(a, c), 1), (edge_gen(c, b), 1), (edge_gen(b, a), 1)))
    return Presentation(tuple(gens), tuple(relations), tuple(pairs))


def old_extension_from_cocycle(x, tree, phi, tau="tau"):
    if phi.degree != 2:
        raise PermstabError("expected a 2-cochain")
    if phi.complex.dim > 2 and not coboundary(phi).is_zero:
        raise PermstabError("not a cocycle")
    if phi.complex is not x:
        raise PermstabError("cochain does not live on this complex")
    comp = tree.component
    gens = []
    pairs = []
    edges = [e for e in x.cells(1) if e[0] in comp and e[1] in comp]
    for (a, b) in edges:
        gens.append(edge_gen(a, b))
        gens.append(edge_gen(b, a))
        pairs.append((edge_gen(a, b), edge_gen(b, a)))
    gens.append(tau)
    relations: list[Word] = [((tau, 1), (tau, 1))]
    for g in gens[:-1]:
        relations.append(((tau, 1), (g, 1), (tau, -1), (g, -1)))
    for (a, b) in sorted(tree.tree_edges):
        relations.append(((edge_gen(a, b), 1),))
        relations.append(((edge_gen(b, a), 1),))
    for (a, b) in edges:
        relations.append(((edge_gen(a, b), 1), (edge_gen(b, a), 1)))
    for cell in x.cells(2):
        a, b, c = cell
        if a in comp and b in comp and c in comp:
            tw = ((tau, 1),) if phi(cell) else ()
            relations.append(((edge_gen(a, b), 1), (edge_gen(b, c), 1), (edge_gen(c, a), 1)) + tw)
            relations.append(((edge_gen(a, c), 1), (edge_gen(c, b), 1), (edge_gen(b, a), 1)) + tw)
    return Presentation(tuple(gens), tuple(relations), tuple(pairs))


def old_eta_minimality_check(f, eta, budget=10**7, seed=0, random_trials=200):
    if f.degree != 1:
        raise PermstabError("minimality shifts are defined only for edge cochains")
    eta = Fraction(eta)
    verts = f.complex.vertices
    wf = weight(f)

    def score(h):
        g = twist(f, h)
        return eta * (wf - weight(g)) - sym_distance(f, g)

    space = 1
    for _ in verts:
        space *= factorial(f.n)
        if space > budget:
            break
    tried = 0
    if space <= budget:
        perms = [PartialInj.from_perm(p) for p in permutations(range(f.n))]
        idx = [0] * len(verts)
        while True:
            h = {v: perms[idx[i]] for i, v in enumerate(verts)}
            tried += 1
            if score(h) > 0:
                return MinimalityVerdict(True, h, True, tried)
            pos = 0
            while pos < len(verts):
                idx[pos] += 1
                if idx[pos] < len(perms):
                    break
                idx[pos] = 0
                pos += 1
            if pos == len(verts):
                return MinimalityVerdict(False, None, True, tried)

    rng = SplitMix64(seed)
    swaps = [(a, b) for a in range(f.n) for b in range(a + 1, f.n)]
    for _ in range(random_trials):
        h = {v: PartialInj.from_perm(rng.permutation(f.n)) for v in verts}
        best = score(h)
        tried += 1
        if best > 0:
            return MinimalityVerdict(True, h, False, tried)
        improved = True
        while improved:
            improved = False
            for v in verts:
                for a, b in swaps:
                    imgs = list(h[v].images)
                    imgs[a], imgs[b] = imgs[b], imgs[a]
                    cand = dict(h)
                    cand[v] = PartialInj(f.n, tuple(imgs))
                    s = score(cand)
                    tried += 1
                    if s > best:
                        h, best = cand, s
                        improved = True
                        if best > 0:
                            return MinimalityVerdict(True, h, False, tried)
    return MinimalityVerdict(False, None, False, tried)


def old_single_edge_correction(f, u, v, eta1):
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

    old = f.value_on((u, v))
    decisions = {}
    for i in range(f.n):
        votes = {}
        defined = 0
        for w in link_verts:
            mid = f.value_on((u, w)).apply(i)
            res = None if mid is None else f.value_on((w, v)).apply(mid)
            if res is not None:
                defined += 1
                votes[res] = votes.get(res, 0) + 1
        if defined == 0:
            continue
        top_j, top_c = min(((j, c) for j, c in votes.items()), key=lambda t: (-t[1], t[0]))
        if Fraction(top_c, defined) >= eta1:
            decisions[i] = ("set", top_j)
        elif all(Fraction(c, defined) < 1 - eta1 for c in votes.values()):
            decisions[i] = ("drop", None)

    new = list(old.images)
    for i in sorted(decisions):
        kind, target = decisions[i]
        if kind == "drop":
            new[i] = None
        else:
            for j, t in enumerate(new):
                if t == target and j != i:
                    new[j] = None
            new[i] = target
    return _edge_value_from_orientation(f, u, v, PartialInj(f.n, tuple(new)))


def old_vertex_link_correction(f, v, eta1, eta2, seed=0):
    eta1, eta2 = Fraction(eta1), Fraction(eta2)
    if f.degree != 1:
        raise PermstabError("expected an edge cochain")
    x = f.complex
    tris = _triangles_at(x, v)
    if not tris:
        warnings.warn("vertex has no triangles; nothing to correct")
        return f
    link_verts = sorted(c[0] for c in link(x, (v,)).cells(0))

    def with_assignment(base, g):
        out = base
        for u in link_verts:
            out = _edge_value_from_orientation(out, u, v, g[u])
        return out

    def objective(g):
        cand = with_assignment(f, g)
        return sum(
            1
            for tri in tris
            for i in range(f.n)
            if (val := triangle_composite(cand, tri).apply(i)) is not None and val != i
        )

    if len(link_verts) <= 3 and f.n <= 4:
        best_g = None
        best_obj = None
        perms = [PartialInj.from_perm(p) for p in permutations(range(f.n))]
        idx = [0] * len(link_verts)
        while True:
            g = {u: perms[idx[i]] for i, u in enumerate(link_verts)}
            obj = objective(g)
            if best_obj is None or obj < best_obj:
                best_g, best_obj = g, obj
            pos = 0
            while pos < len(link_verts):
                idx[pos] += 1
                if idx[pos] < len(perms):
                    break
                idx[pos] = 0
                pos += 1
            if pos == len(link_verts):
                break
        g = best_g
    else:
        rng = SplitMix64(seed)
        g = {u: f.value_on((u, v)).completed() for u in link_verts}
        best = objective(g)
        for attempt in range(3):
            improved = True
            while improved:
                improved = False
                for u in link_verts:
                    for a in range(f.n):
                        for b in range(a + 1, f.n):
                            imgs = list(g[u].images)
                            imgs[a], imgs[b] = imgs[b], imgs[a]
                            cand = dict(g)
                            cand[u] = PartialInj(f.n, tuple(imgs))
                            obj = objective(cand)
                            if obj < best:
                                g, best = cand, obj
                                improved = True
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


def old_dec(q):
    return format(float(q), ".12g")


def old_csv(rows, header):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def old_rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                format_fraction(row.config.epsilon),
                row.config.seed,
                format_fraction(row.eps),
                old_dec(row.eps),
                format_fraction(row.rho),
                old_dec(row.rho),
                format_fraction(row.event1),
                old_dec(row.event1),
                format_fraction(row.event2),
                old_dec(row.event2),
                format_fraction(row.dw),
                old_dec(row.dw),
                format_fraction(row.bound),
                old_dec(row.bound),
                row.component,
                "true" if row.holds else "false",
            ]
        )
    return buf.getvalue()


def old_facets(x):
    out = []
    all_cells = [c for cells in x.faces_by_dim for c in cells]
    cell_set = set(all_cells)
    vmax = x.vertex_count
    for c in all_cells:
        cset = set(c)
        if any(tuple(sorted(cset | {v})) in cell_set for v in range(vmax) if v not in cset):
            continue
        out.append(c)
    return sorted(out, key=lambda c: (len(c), c))


# -- inputs ------------------------------------------------------------------------


def seeded_complexes():
    """Named complexes plus seeded random families, some with isolated edges or two components."""
    out = [annulus(), projective_plane_six(), boundary_of_simplex(3), full_triangle()]
    for seed in range(6):
        for p in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            out.append(random_lm_complex(5 + seed % 2, p, seed))
    out.append(SimplicialComplex.from_cells([(0, 1, 2), (1, 2, 3), (3, 4), (5, 6, 7), (6, 8)]))
    return out


def random_phi(x, rng):
    return F2Cochain(x, 2, rng.below(1 << x.n_cells(2)))


def assert_same_presentations(x, phis):
    for root in x.vertices:
        tree = spanning_tree(x, root)
        assert fundamental_group_presentation(x, tree) == old_fundamental_group_presentation(x, tree)
        for phi in phis:
            assert extension_from_cocycle(x, tree, phi) == old_extension_from_cocycle(x, tree, phi)
            assert extension_from_cocycle(x, tree, phi, "t") == old_extension_from_cocycle(x, tree, phi, "t")


def noisy_cochain(x, n, rng):
    """A vertex coboundary with some edges replaced or partly undefined."""
    g = {v: PartialInj.from_perm(rng.permutation(n)) for v in x.vertices}
    values = dict(vertex_coboundary(x, g).values)
    for cell in x.cells(1):
        r = rng.below(5)
        if r == 0:
            values[cell] = PartialInj.from_perm(rng.permutation(n))
        elif r == 1:
            values[cell] = values[cell].drop_source(rng.below(n))
        elif r == 2:
            values[cell] = values[cell].drop_index_symmetric(rng.below(n))
    return SymCochain(x, 1, n, values)


# -- presentations -----------------------------------------------------------------


def test_presentations_match_old_builders_seeded():
    rng = SplitMix64(7)
    for x in seeded_complexes():
        phis = []
        if x.dim >= 2:
            ones = F2Cochain(x, 2, (1 << x.n_cells(2)) - 1)
            phis = [F2Cochain(x, 2, 0), ones, random_phi(x, rng)]
        assert_same_presentations(x, phis)


def test_extension_checks_unchanged():
    x = boundary_of_simplex(4)  # dim 3: a non-cocycle 2-cochain is rejected
    tree = spanning_tree(x, 0)
    bad = F2Cochain(x, 2, 1)
    for build in (extension_from_cocycle, old_extension_from_cocycle):
        with pytest.raises(PermstabError, match="not a cocycle"):
            build(x, tree, bad)
        with pytest.raises(PermstabError, match="expected a 2-cochain"):
            build(x, tree, F2Cochain(x, 1, 0))
        with pytest.raises(PermstabError, match="does not live"):
            build(annulus(), spanning_tree(annulus(), 0), F2Cochain(full_triangle(), 2, 1))
    good = coboundary(F2Cochain(x, 1, 0b1011))
    assert extension_from_cocycle(x, tree, good) == old_extension_from_cocycle(x, tree, good)


cells_on_seven = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True), min_size=1, max_size=10
)


@settings(max_examples=150, deadline=None)
@given(cells=cells_on_seven, bits=st.integers(min_value=0))
def test_presentations_match_old_builders_hypothesis(cells, bits):
    x = SimplicialComplex.from_cells(cells)
    phis = []
    if x.dim == 2:
        phis = [F2Cochain(x, 2, 0), F2Cochain(x, 2, bits % (1 << x.n_cells(2)))]
    assert_same_presentations(x, phis)


# -- assignment enumeration --------------------------------------------------------


def test_eta_minimality_matches_old_search():
    rng = SplitMix64(11)
    hollow = SimplicialComplex.from_cells([(0, 1), (1, 2), (0, 2)])
    cases = []
    for x in (full_triangle(), hollow, SimplicialComplex.from_cells([(0, 1)])):
        for n in (1, 2, 3):
            for _ in range(2):
                cases.append(noisy_cochain(x, n, rng))
    exhaustive = violated = 0
    for f in cases:
        for eta in (0, 1, 10, 100):
            new = eta_minimality_check(f, eta)
            assert new == old_eta_minimality_check(f, eta)
            exhaustive += new.exhaustive
            violated += new.violated
            small = eta_minimality_check(f, eta, budget=0, seed=3, random_trials=2)
            assert small == old_eta_minimality_check(f, eta, budget=0, seed=3, random_trials=2)
            assert not small.exhaustive
    assert exhaustive == 4 * len(cases)
    assert 0 < violated < exhaustive


def test_vertex_link_correction_matches_old():
    rng = SplitMix64(13)
    specs = [
        (full_triangle(), (2, 3, 4)),  # link of 2 vertices: exhaustive up to n = 4
        (boundary_of_simplex(3), (2, 3)),  # link of 3 vertices: exhaustive
        (boundary_of_simplex(3), (5,)),  # n > 4: greedy
        (random_lm_complex(6, Fraction(3, 4), 2), (3,)),  # links above 3 vertices: greedy
    ]
    branches = set()
    for x, ns in specs:
        for n in ns:
            f = noisy_cochain(x, n, rng)
            for v in x.vertices[:3]:
                if not _triangles_at(x, v):
                    continue
                link_size = link(x, (v,)).n_cells(0)
                branches.add(link_size <= 3 and n <= 4)
                for eta1, eta2 in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 5), Fraction(9, 10)), (Fraction(9, 10), Fraction(1, 10))):
                    got = vertex_link_correction(f, v, eta1, eta2, seed=v)
                    assert got == old_vertex_link_correction(f, v, eta1, eta2, seed=v)
    assert branches == {True, False}


def test_single_edge_correction_matches_old():
    rng = SplitMix64(17)
    complexes = [boundary_of_simplex(3), boundary_of_simplex(4), random_lm_complex(6, Fraction(3, 4), 5)]
    changed = 0
    for x in complexes:
        for n in (2, 3, 5):
            for _ in range(3):
                f = noisy_cochain(x, n, rng)
                for (a, b) in x.cells(1):
                    for u, v in ((a, b), (b, a)):
                        for eta1 in (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4)):
                            got = single_edge_correction(f, u, v, eta1)
                            assert got == old_single_edge_correction(f, u, v, eta1)
                            changed += got != f
    assert changed > 0


# -- CSV and decimals ---------------------------------------------------------------


text_cells = st.one_of(
    st.integers(-10**6, 10**6),
    st.text(alphabet=st.sampled_from('ab,"\n\r /-1^.'), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(
    header=st.lists(st.text(alphabet=st.sampled_from('xy,"_ '), max_size=4), min_size=1, max_size=4),
    rows=st.lists(st.lists(text_cells, max_size=5), max_size=5),
    q=st.fractions(),
)
def test_csv_text_matches_old_writers(header, rows, q):
    assert csv_text(header, rows) == old_csv(rows, header)
    assert format_decimal(q) == old_dec(q)


def test_rows_to_csv_matches_old_writer():
    rows = [
        run_pipeline(ExperimentConfig(seed=s, epsilon=e, fiber=6))[0]
        for e in (Fraction(0), Fraction(1, 10))
        for s in (0, 1)
    ]
    assert rows_to_csv(rows) == old_rows_to_csv(rows)
    assert rows_to_csv([]) == old_rows_to_csv([])


# -- facets ------------------------------------------------------------------------


def test_facets_match_quadratic_scan_seeded():
    rng = SplitMix64(19)
    pure = non_pure = 0
    for x in seeded_complexes():
        assert x.facets() == old_facets(x)
    for _ in range(200):
        cells = [
            tuple(rng.sample(range(8), 1 + rng.below(4)))
            for _ in range(1 + rng.below(8))
        ]
        x = SimplicialComplex.from_cells(cells)
        assert x.facets() == old_facets(x)
        pure += x.is_pure
        non_pure += not x.is_pure
    assert pure and non_pure


@settings(max_examples=200, deadline=None)
@given(cells=cells_on_seven)
def test_facets_match_quadratic_scan_hypothesis(cells):
    x = SimplicialComplex.from_cells(cells)
    assert x.facets() == old_facets(x)
