"""The cycle rewriting relation, walk values and the two searches over cycles, against ``oracles``.

The relation is tried at every position with every cell, by its match
conditions; the audit is one breadth-first search over that relation.  A
contractibility search is checked by replaying its route and by the oracle's
distances; its ``explored`` counts have no definition, so a sha256 digest
computed before the oracles replaced the frozen copies pins them.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from permstab.complexes import (
    SimplicialComplex,
    annulus,
    boundary_of_simplex,
    full_triangle,
    hollow_polygon,
    projective_plane_six,
    random_lm_complex,
)
from permstab.errors import PermstabError
from permstab.rng import SplitMix64
from permstab.symcochains import (
    KINDS,
    ContractionVerdict,
    Cycle,
    PartialInj,
    SymCochain,
    _steps,
    cycle_domain,
    enumerate_steps,
    evaluate_cycle,
    global_deletion,
    good_function_check,
    is_contractible,
    relation_step,
)
from test_complexes import random_pure_complex
from test_sym import noisy_coboundary

# -- inputs ------------------------------------------------------------------------


def named_complexes():
    return [
        full_triangle(),
        annulus(),
        projective_plane_six(),
        boundary_of_simplex(3),
        boundary_of_simplex(4),  # 3-cells: TE/TC must use triangles only
        hollow_polygon(5),  # no triangles at all
        random_lm_complex(5, Fraction(1, 2), 3),  # non-pure
        SimplicialComplex.from_cells([(0, 1, 2), (2, 3), (4,)]),  # isolated vertex
    ]


def closed_walks(x, max_len, limit=None):
    """Every closed walk of length at most ``max_len`` (trivial ones included), from each vertex."""
    out = []
    for base in x.vertices:
        stack = [(base,)]
        while stack:
            walk = stack.pop()
            if walk[-1] == base:
                out.append(walk)
            if len(walk) - 1 < max_len:
                stack.extend(walk + (nb,) for nb in x.neighbors(walk[-1]))
    out.sort(key=lambda w: (len(w), w))
    return out if limit is None else out[:limit]


def random_partial_cochain(x, n, rng):
    """Edge values that are partial injections, so domains shrink along a walk."""
    values = {}
    for e in x.cells(1):
        targets = list(range(n))
        rng.shuffle(targets)
        images = [t if rng.random() < 0.8 else None for t in targets]
        values[e] = PartialInj(n, tuple(images))
    return SymCochain(x, 1, n, values)


NAMES = {"EE": "edge-extension", "EC": "edge-contraction", "TE": "triangle-extension", "TC": "triangle-contraction"}


def oracle_relation_step(x, c, kind, p, cell):
    """``relation_step``'s contract: its refusals in order, then the oracle's rewrite."""
    if c.complex is not x:
        raise PermstabError("cycle lives on a different complex")
    cell = tuple(sorted(cell))
    if not x.has_cell(cell):
        raise PermstabError(f"{cell} is not a cell")
    if kind not in NAMES:
        raise PermstabError(f"unknown step kind {kind!r}")
    nxt = oracles.rewrite(x, c.verts, kind, p, cell)
    if nxt is None:
        raise PermstabError(f"no {NAMES[kind]} match at this position")
    return nxt


def outcome(call):
    """The value of ``call()``, or the message of the ``PermstabError`` it raises (faster than ``pytest.raises``)."""
    try:
        return "ok", call()
    except PermstabError as exc:
        return "error", str(exc)


def check_steps(x, walks):
    for verts in walks:
        c = Cycle(x, verts)
        every = oracles.steps(x, verts, c.length + 3)
        for max_len in range(c.length, c.length + 4):
            want = [s for s in every if s[0][1] == "C" or len(s[3]) - 1 <= max_len]
            got = enumerate_steps(x, c, max_len)
            assert [(k, p, cell, nxt.verts) for k, p, cell, nxt in got] == want, (verts, max_len)
            for _kind, _p, _cell, nxt in _steps(x, verts, max_len):
                Cycle(x, nxt)  # every rewrite of a valid cycle is a valid cycle


def check_relation_step(x, walks):
    cells = [c for k in range(x.dim + 1) for c in x.cells(k)]
    non_cell = (max(x.vertices) + 1, max(x.vertices) + 2)
    for verts in walks:
        c = Cycle(x, verts)
        for kind in KINDS + ("XX",):
            for p in range(-1, len(verts) + 1):
                for cell in cells + [non_cell]:
                    want = outcome(lambda: oracle_relation_step(x, c, kind, p, cell))
                    got = outcome(lambda: relation_step(x, c, kind, p, cell).verts)
                    assert got == want, (verts, kind, p, cell)


# -- the rewriting relation ------------------------------------------------------


def test_steps_match_the_oracle_relation():
    for x in named_complexes():
        check_steps(x, closed_walks(x, 4, limit=150))


def test_relation_step_matches_the_oracle_on_every_position_and_cell():
    for x in named_complexes():
        if x.dim < 3:  # the 3-sphere's 30 cells only add time here
            check_relation_step(x, closed_walks(x, 4, limit=25))


cells_on_six = st.lists(
    st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True), min_size=1, max_size=9
)


@settings(max_examples=120, deadline=None)
@given(cells=cells_on_six, pick=st.randoms(use_true_random=False))
def test_steps_and_relation_step_match_the_oracle_hypothesis(cells, pick):
    x = SimplicialComplex.from_cells(cells)
    walks = closed_walks(x, 4)
    walks = sorted(pick.sample(walks, min(len(walks), 12)))
    check_steps(x, walks)
    check_relation_step(x, walks[:4])


def test_steps_come_in_the_documented_order():
    """EC by position, TC by position, TE by position then triangle, EE by position then neighbour."""
    x = full_triangle()
    spur = (0, 1, 0)
    assert [s[:3] for s in _steps(x, spur, 4)] == [
        ("EC", 0, (0, 1)),
        ("TE", 0, (0, 1, 2)),
        ("TE", 1, (0, 1, 2)),
        ("EE", 0, (0, 1)),
        ("EE", 0, (0, 2)),
        ("EE", 1, (0, 1)),
        ("EE", 1, (1, 2)),
        ("EE", 2, (0, 1)),
        ("EE", 2, (0, 2)),
    ]
    y = boundary_of_simplex(3)
    assert list(_steps(y, (0, 1, 2, 0), 3)) == [
        ("TC", 0, (0, 1, 2), (0, 2, 0)),
        ("TC", 1, (0, 1, 2), (0, 1, 0)),
    ]
    assert [s[:3] for s in _steps(y, (0, 2, 0), 3)] == [
        ("EC", 0, (0, 2)),
        ("TE", 0, (0, 1, 2)),
        ("TE", 0, (0, 2, 3)),
        ("TE", 1, (0, 1, 2)),
        ("TE", 1, (0, 2, 3)),
    ]


def test_negative_positions_find_no_match():
    x = full_triangle()
    tri = Cycle(x, (0, 1, 2, 0))
    with pytest.raises(PermstabError, match="^no triangle-extension match at this position$"):
        relation_step(x, tri, "TE", -2, (0, 1, 2))
    with pytest.raises(PermstabError, match="^no triangle-contraction match at this position$"):
        relation_step(x, tri, "TC", -3, (0, 1, 2))
    spur = Cycle(x, (0, 1, 0, 2, 0))
    with pytest.raises(PermstabError, match="^no edge-contraction match at this position$"):
        relation_step(x, spur, "EC", -3, (0, 2))


def test_enumerate_steps_on_a_cycle_of_another_complex():
    x, y = full_triangle(), full_triangle()
    foreign = Cycle(y, (0, 1, 0))
    for max_len in (0, 2, 4):
        with pytest.raises(PermstabError, match="^cycle lives on a different complex$"):
            enumerate_steps(x, foreign, max_len)
    lone = Cycle(SimplicialComplex.from_cells([(0,)]), (0,))
    assert enumerate_steps(x, lone, 1) == []


def test_walk_composite_and_domain_match_the_fold():
    rng = random.Random(17)
    for x in named_complexes():
        f = random_partial_cochain(x, 5, rng)
        maps = oracles.edge_maps(f)
        for verts in closed_walks(x, 4, limit=80):
            c = Cycle(x, verts)
            assert evaluate_cycle(f, c).images == oracles.walk(maps, verts, 5)
            assert cycle_domain(f, c) == oracles.walk_domain(maps, verts, 5)
    other = Cycle(full_triangle(), (0, 1, 0))
    foreign_f = random_partial_cochain(full_triangle(), 3, rng)
    for walk in (evaluate_cycle, cycle_domain):
        with pytest.raises(PermstabError, match="different complex"):
            walk(foreign_f, other)


# -- the audits ----------------------------------------------------------------------


def criterion_10_inputs(trials):
    """The acceptance suite's criterion-10 instances, in its order."""
    rng = SplitMix64(10_010)
    for _ in range(trials):
        x = random_pure_complex(rng, n_vertices=6, n_faces=4 + rng.below(5))
        n = 4 + rng.below(13)
        yield noisy_coboundary(x, n, rng, flips=1 + rng.below(3))


def plain(report):
    """A ``GoodFunctionReport`` in the oracle's terms: vertex tuples for cycles."""
    counter = report.counterexample and (report.counterexample[0].verts, report.counterexample[1])
    violations = [(c.verts, *rest) for c, *rest in report.step_violations]
    return counter, violations, report.ee_gaps, report.cycles_enumerated, report.budget_exhausted


def check_audit(f, max_len, max_steps):
    got = good_function_check(f, max_len=max_len, max_steps=max_steps)
    assert got.ok == (got.counterexample is None)
    assert plain(got) == oracles.good_function_check(f, max_len, max_steps)
    return got


def test_good_function_check_matches_the_oracle_on_criterion_10_inputs():
    counterexamples = 0
    for f in criterion_10_inputs(12):
        cleaned, _ = global_deletion(f)
        for g in (f, cleaned):
            counterexamples += not check_audit(g, 8, 250).ok
    assert counterexamples > 0  # the raw cochains reach the counterexample path


@settings(max_examples=60, deadline=None)
@given(cells=cells_on_six, seed=st.integers(0, 2**32), n=st.integers(1, 5), max_len=st.integers(0, 6))
def test_good_function_check_matches_the_oracle_hypothesis(cells, seed, n, max_len):
    x = SimplicialComplex.from_cells(cells)
    check_audit(random_partial_cochain(x, n, random.Random(seed)), max_len, 60)


# sha256 of the verdicts below, computed before the oracles replaced the frozen copies
CONTRACTIBLE_SHA256 = "76400b6c956a4a5559d7992ddb6cfb81713a84fe371d13d470f1820d627dc49c"


def test_is_contractible_routes_are_shortest_and_explored_counts_pinned():
    digest = hashlib.sha256()
    for x in named_complexes() + [random_pure_complex(SplitMix64(s), 6, 6) for s in range(4)]:
        loops = [t + (t[0],) for t in x.cells(2)[:4]]
        loops += [w for w in closed_walks(x, 4, limit=40) if len(w) > 3][:6]
        for verts in loops:
            c = Cycle(x, verts)
            for max_len, max_steps in ((4, 100000), (6, 300), (6, 1), (3, 50)):
                got = is_contractible(x, c, max_len, max_steps)
                digest.update(repr(got).encode())
                assert got.explored <= max_steps
                if got.found:
                    end = verts
                    for kind, p, cell in got.sequence:
                        end = oracles.rewrite(x, end, kind, p, cell)
                        assert len(end) - 1 <= max_len or kind[1] == "C"
                    assert end == (c.base,)
                    assert len(got.sequence) == oracles.bfs_distance(x, verts, end, max_len)
                elif got.budget_exhausted:
                    assert got.explored == max_steps
                else:
                    assert oracles.bfs_distance(x, verts, (c.base,), max_len) is None
    assert digest.hexdigest() == CONTRACTIBLE_SHA256


def test_is_contractible_validates_its_start_once():
    x = hollow_polygon(4)
    y = full_triangle()
    foreign = Cycle(y, (0, 1, 2, 0))  # (0, 2) is not an edge of the square
    for max_steps in (100000, 0):  # checked even when no cycle is explored
        with pytest.raises(PermstabError, match=r"^\(2,0\) is not an edge$"):
            is_contractible(x, foreign, 4, max_steps)
    trivial = Cycle(y, (0,))
    assert is_contractible(x, trivial, 2, max_steps=0) == ContractionVerdict(False, None, 0, True)
