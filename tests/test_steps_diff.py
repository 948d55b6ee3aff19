"""Differential tests of the cycle rewriting relation and the cover triangle walk.

Each ``old_*`` function below is a copy of the code the package used before
the rewriting relation had one definition: ``relation_step`` with its four
per-kind match blocks, ``enumerate_steps`` finding each match and handing it
to ``relation_step``, and the audit and contractibility searches wrapping
every vertex tuple in a validated ``Cycle``.  ``old_first_type_triangle_check``
and ``old_contradiction_experiment`` are the cover code that walked the cover
triangles twice.  The current code must give ``==`` results, or the same
error message, on seeded inputs and on ``hypothesis`` families.
"""

import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permstab import covers
from permstab.actions import (
    action_distance,
    apply_word,
    defect,
    induced_quotient_action,
    normalize_sofic_approx,
)
from permstab.cohomology import F2Cochain, coboundary, weighted_norm
from permstab.complexes import (
    SimplicialComplex,
    Word,
    annulus,
    boundary_of_simplex,
    edge_gen,
    full_triangle,
    hollow_polygon,
    projective_plane_six,
    random_lm_complex,
)
from permstab.covers import (
    ExperimentReport,
    build_cover,
    connected_components,
    contradiction_experiment,
    first_type_triangle_check,
    pull_back_cocycle,
    zeta_cochain,
)
from permstab.errors import BoundViolation, PermstabError
from permstab.experiments import ExperimentConfig, build_instance
from permstab.rng import SplitMix64
from permstab.symcochains import (
    KINDS,
    ContractionVerdict,
    Cycle,
    GoodFunctionReport,
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

# -- test-local copies of the replaced code --------------------------------------


def old_evaluate_cycle(f, cycle):
    if cycle.complex is not f.complex:
        raise PermstabError("cycle lives on a different complex")
    out = PartialInj.identity(f.n)
    for a, b in cycle.edges():
        out = f.value_on((a, b)).compose(out)
    return out


def old_cycle_domain(f, cycle):
    dom = frozenset(range(f.n))
    for a, b in cycle.edges():
        dom &= f.value_on((a, b)).domain
    return dom


def old_relation_step(x, cycle, kind, position, cell):
    if cycle.complex is not x:
        raise PermstabError("cycle lives on a different complex")
    verts = cycle.verts
    cell = tuple(sorted(cell))
    if not x.has_cell(cell):
        raise PermstabError(f"{cell} is not a cell")
    p = position
    if kind == "EE":
        if not 0 <= p < len(verts) or len(cell) != 2 or verts[p] not in cell:
            raise PermstabError("no edge-extension match at this position")
        other = cell[0] if cell[1] == verts[p] else cell[1]
        return Cycle(x, verts[: p + 1] + (other,) + verts[p:])
    if kind == "EC":
        if (
            p + 2 >= len(verts)
            or verts[p] != verts[p + 2]
            or set(cell) != {verts[p], verts[p + 1]}
        ):
            raise PermstabError("no edge-contraction match at this position")
        return Cycle(x, verts[: p + 1] + verts[p + 3 :])
    if kind == "TE":
        if p + 1 >= len(verts) or len(cell) != 3:
            raise PermstabError("no triangle-extension match at this position")
        u, w = verts[p], verts[p + 1]
        if u == w or not {u, w} < set(cell):
            raise PermstabError("no triangle-extension match at this position")
        mid = next(z for z in cell if z not in (u, w))
        return Cycle(x, verts[: p + 1] + (mid,) + verts[p + 1 :])
    if kind == "TC":
        if p + 2 >= len(verts) or len(cell) != 3:
            raise PermstabError("no triangle-contraction match at this position")
        u, mid, w = verts[p], verts[p + 1], verts[p + 2]
        if len({u, mid, w}) != 3 or set(cell) != {u, mid, w} or not x.has_cell((u, w)):
            raise PermstabError("no triangle-contraction match at this position")
        return Cycle(x, verts[: p + 1] + verts[p + 2 :])
    raise PermstabError(f"unknown step kind {kind!r}")


def old_enumerate_steps(x, cycle, max_len):
    verts = cycle.verts
    out = []
    for p in range(len(verts) - 2):
        if verts[p] == verts[p + 2]:
            cell = tuple(sorted((verts[p], verts[p + 1])))
            out.append(("EC", p, cell, old_relation_step(x, cycle, "EC", p, cell)))
    for p in range(len(verts) - 2):
        u, mid, w = verts[p], verts[p + 1], verts[p + 2]
        tri = tuple(sorted((u, mid, w)))
        if len({u, mid, w}) == 3 and x.has_cell(tri) and x.has_cell((u, w)):
            out.append(("TC", p, tri, old_relation_step(x, cycle, "TC", p, tri)))
    if cycle.length + 1 <= max_len:
        for p in range(len(verts) - 1):
            u, w = verts[p], verts[p + 1]
            for tri in x.cells(2):
                if u in tri and w in tri:
                    out.append(("TE", p, tri, old_relation_step(x, cycle, "TE", p, tri)))
    if cycle.length + 2 <= max_len:
        for p in range(len(verts)):
            for nb in x.neighbors(verts[p]):
                cell = tuple(sorted((verts[p], nb)))
                out.append(("EE", p, cell, old_relation_step(x, cycle, "EE", p, cell)))
    return out


def old_is_contractible(x, cycle, max_len, max_steps=100000):
    target = (cycle.base,)
    start = cycle.verts
    parents = {start: None}
    moves = {}
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
        for kind, p, cell, nxt in old_enumerate_steps(x, Cycle(x, cur), max_len):
            if nxt.verts not in parents:
                parents[nxt.verts] = cur
                moves[nxt.verts] = (kind, p, cell)
                queue.append(nxt.verts)
    return ContractionVerdict(False, None, explored, bool(queue))


def old_good_function_check(f, max_len, max_steps=50000):
    if f.degree != 1:
        raise PermstabError("expected an edge cochain")
    x = f.complex
    values = {}

    def value(verts):
        if verts not in values:
            values[verts] = old_evaluate_cycle(f, Cycle(x, verts))
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
            dom = old_cycle_domain(f, Cycle(x, cur))
            comp = value(cur)
            for j in sorted(dom):
                val = comp.apply(j)
                if val is not None and val != j:
                    return GoodFunctionReport(
                        False, (Cycle(x, cur), j), tuple(step_violations), ee_gaps, enumerated, False
                    )
            for kind, p, cell, nxt in old_enumerate_steps(x, Cycle(x, cur), max_len):
                a, b = value(cur), value(nxt.verts)
                if kind == "EE":
                    ee_gaps += sum(
                        1 for j in range(f.n) if a.apply(j) is not None and b.apply(j) is None
                    )
                else:
                    for j in range(f.n):
                        va, vb = a.apply(j), b.apply(j)
                        if va is not None and vb is not None and va != vb:
                            step_violations.append((Cycle(x, cur), kind, p, cell, j))
                if nxt.verts not in seen:
                    seen.add(nxt.verts)
                    queue.append(nxt.verts)
    return GoodFunctionReport(
        True, None, tuple(step_violations), ee_gaps, enumerated, budget_left <= 0
    )


def old_first_type_triangle_check(psi, phi, cov, zeta, types):
    y = cov.total
    n = psi.space // 2
    dz = coboundary(zeta)
    phi_prime = pull_back_cocycle(phi, cov)
    checked = 0
    violations = []
    for cell in y.cells(2):
        va, vb, vc = sorted(cell, key=lambda v: cov.vertex_pair[v][0])
        (xx, sx) = cov.vertex_pair[va]
        if sx >= n:
            continue
        edges = [tuple(sorted(e)) for e in ((va, vb), (vb, vc), (va, vc))]
        if any(types[e] != "first" for e in edges):
            continue
        (yy, _), (zz, _) = cov.vertex_pair[vb], cov.vertex_pair[vc]
        word: Word = ((edge_gen(xx, yy), 1), (edge_gen(yy, zz), 1), (edge_gen(zz, xx), 1))
        target = 2 * sx + phi(cov.project_cell(cell))
        if apply_word(psi, word, 2 * sx) != target:
            continue
        checked += 1
        if phi_prime(cell) != dz(cell):
            violations.append(cell)
    return checked, violations


def old_contradiction_experiment(x, phi, psi, f, tau="tau"):
    eps = defect(psi)
    quotient = induced_quotient_action(psi, tau)
    rho = action_distance(f, quotient)
    cov = build_cover(x, f)
    y = cov.total
    phi_prime = pull_back_cocycle(phi, cov)
    zeta, types = covers.zeta_cochain(psi, f, cov, tau)
    diff = phi_prime ^ coboundary(zeta)
    dw_total = weighted_norm(diff)

    nums, den = y.weight_numerators(2)
    n = psi.space // 2
    event1_num = 0
    event2_num = 0
    for j, cell in enumerate(y.cells(2)):
        va, vb, vc = sorted(cell, key=lambda v: cov.vertex_pair[v][0])
        edges = [tuple(sorted(e)) for e in ((va, vb), (vb, vc), (va, vc))]
        if any(types[e] == "second" for e in edges):
            event1_num += nums[j]
        (xx, sx) = cov.vertex_pair[va]
        (yy, _), (zz, _) = cov.vertex_pair[vb], cov.vertex_pair[vc]
        ok = False
        if sx < n:
            word: Word = ((edge_gen(xx, yy), 1), (edge_gen(yy, zz), 1), (edge_gen(zz, xx), 1))
            ok = apply_word(psi, word, 2 * sx) == 2 * sx + phi(cov.project_cell(cell))
        if not ok:
            event2_num += nums[j]
    event1 = Fraction(event1_num, den)
    event2 = Fraction(event2_num, den)

    diff_cells = set(diff.support())
    per_component = []
    for i, comp in enumerate(connected_components(y)):
        top = [c for c in y.cells(y.dim) if c[0] in comp]
        if not top:
            continue
        num = sum(nums[y.cell_position(c)] for c in diff_cells if c[0] in comp)
        scale = Fraction(y.n_cells(y.dim), len(top))
        per_component.append((i, len(top), Fraction(num, den) * scale))
    dw_best, best_component = min((dw, i) for i, _, dw in per_component)

    bound = eps + 4 * rho
    checked, violations = old_first_type_triangle_check(psi, phi, cov, zeta, types)
    if violations:
        raise BoundViolation(f"{len(violations)} qualifying triangles disagree")
    if dw_total > event1 + event2:
        raise BoundViolation("total distance exceeds the union of the two events")
    if dw_total > bound or dw_best > bound:
        raise BoundViolation(f"distance {dw_best} exceeds the bound {bound}")
    return ExperimentReport(
        eps=eps,
        rho=rho,
        event1=event1,
        event2=event2,
        dw_total=dw_total,
        per_component=tuple(per_component),
        dw_best=dw_best,
        best_component=best_component,
        bound=bound,
        holds=True,
        first_type_checked=checked,
    )


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


def outcome(call):
    try:
        return "ok", call()
    except PermstabError as exc:
        return "error", str(exc)


def check_steps_match(x, walks):
    for verts in walks:
        c = Cycle(x, verts)
        for max_len in range(c.length, c.length + 4):
            got = enumerate_steps(x, c, max_len)
            assert got == old_enumerate_steps(x, c, max_len), (verts, max_len)
            for _kind, _p, _cell, nxt in _steps(x, verts, max_len):
                Cycle(x, nxt)  # every rewrite of a valid cycle is a valid cycle


def check_relation_step_matches(x, walks):
    cells = [c for k in range(x.dim + 1) for c in x.cells(k)]
    non_cell = (max(x.vertices) + 1, max(x.vertices) + 2)
    for verts in walks:
        c = Cycle(x, verts)
        for kind in KINDS + ("XX",):
            for p in range(-1, len(verts) + 1):
                for cell in cells + [non_cell]:
                    want = outcome(lambda: old_relation_step(x, c, kind, p, cell))
                    got = outcome(lambda: relation_step(x, c, kind, p, cell))
                    assert got == want, (verts, kind, p, cell)


# -- the rewriting relation ------------------------------------------------------


def test_steps_match_old_enumeration():
    for x in named_complexes():
        check_steps_match(x, closed_walks(x, 4, limit=150))


def test_relation_step_matches_old_on_every_position_and_cell():
    for x in named_complexes():
        if x.dim < 3:  # the 3-sphere's 30 cells only add time here
            check_relation_step_matches(x, closed_walks(x, 4, limit=25))


cells_on_six = st.lists(
    st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True), min_size=1, max_size=9
)


@settings(max_examples=120, deadline=None)
@given(cells=cells_on_six, pick=st.randoms(use_true_random=False))
def test_steps_and_relation_step_match_old_hypothesis(cells, pick):
    x = SimplicialComplex.from_cells(cells)
    walks = closed_walks(x, 4)
    walks = sorted(pick.sample(walks, min(len(walks), 12)))
    check_steps_match(x, walks)
    check_relation_step_matches(x, walks[:4])


def test_negative_positions_find_no_match():
    """The old per-kind code wrapped negative positions Python-style; now none matches."""
    x = full_triangle()
    tri = Cycle(x, (0, 1, 2, 0))
    assert old_relation_step(x, tri, "TE", -2, (0, 1, 2)).verts == (0, 1, 2, 1, 0)
    with pytest.raises(PermstabError, match="^no triangle-extension match at this position$"):
        relation_step(x, tri, "TE", -2, (0, 1, 2))
    assert old_relation_step(x, tri, "TC", -3, (0, 1, 2)).verts == (0, 1, 0)
    with pytest.raises(PermstabError, match="^no triangle-contraction match at this position$"):
        relation_step(x, tri, "TC", -3, (0, 1, 2))
    spur = Cycle(x, (0, 1, 0, 2, 0))
    with pytest.raises(PermstabError, match=r"\(0,0\) is not an edge"):
        old_relation_step(x, spur, "EC", -3, (0, 2))
    with pytest.raises(PermstabError, match="^no edge-contraction match at this position$"):
        relation_step(x, spur, "EC", -3, (0, 2))


def test_enumerate_steps_on_a_cycle_of_another_complex():
    x, y = full_triangle(), full_triangle()
    foreign = Cycle(y, (0, 1, 0))
    for max_len in (0, 2, 4):
        want = outcome(lambda: old_enumerate_steps(x, foreign, max_len))
        assert outcome(lambda: enumerate_steps(x, foreign, max_len)) == want
    lone = Cycle(SimplicialComplex.from_cells([(0,)]), (0,))
    assert enumerate_steps(x, lone, 1) == old_enumerate_steps(x, lone, 1) == []


def test_walk_composite_and_domain_match_old():
    rng = random.Random(17)
    for x in named_complexes():
        f = random_partial_cochain(x, 5, rng)
        for verts in closed_walks(x, 4, limit=80):
            c = Cycle(x, verts)
            assert evaluate_cycle(f, c) == old_evaluate_cycle(f, c)
            assert cycle_domain(f, c) == old_cycle_domain(f, c)
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


def test_good_function_check_matches_old_on_criterion_10_inputs():
    counterexamples = 0
    for f in criterion_10_inputs(12):
        cleaned, _ = global_deletion(f)
        for g in (f, cleaned):
            got = good_function_check(g, max_len=8, max_steps=250)
            assert got == old_good_function_check(g, max_len=8, max_steps=250)
            counterexamples += not got.ok
    assert counterexamples > 0  # the raw cochains reach the counterexample path


@settings(max_examples=60, deadline=None)
@given(cells=cells_on_six, seed=st.integers(0, 2**32), n=st.integers(1, 5), max_len=st.integers(0, 6))
def test_good_function_check_matches_old_hypothesis(cells, seed, n, max_len):
    x = SimplicialComplex.from_cells(cells)
    f = random_partial_cochain(x, n, random.Random(seed))
    got = good_function_check(f, max_len=max_len, max_steps=60)
    assert got == old_good_function_check(f, max_len=max_len, max_steps=60)


def test_is_contractible_matches_old():
    for x in named_complexes() + [random_pure_complex(SplitMix64(s), 6, 6) for s in range(4)]:
        loops = [t + (t[0],) for t in x.cells(2)[:4]]
        loops += [w for w in closed_walks(x, 4, limit=40) if len(w) > 3][:6]
        for verts in loops:
            c = Cycle(x, verts)
            for max_len, max_steps in ((4, 100000), (6, 300), (6, 1), (3, 50)):
                got = is_contractible(x, c, max_len, max_steps)
                assert got == old_is_contractible(x, c, max_len, max_steps), (verts, max_len)


def test_is_contractible_validates_its_start_once():
    x = hollow_polygon(4)
    y = full_triangle()
    foreign = Cycle(y, (0, 1, 2, 0))  # (0, 2) is not an edge of the square
    with pytest.raises(PermstabError) as old:
        old_is_contractible(x, foreign, max_len=4)
    with pytest.raises(PermstabError) as new:
        is_contractible(x, foreign, max_len=4)
    assert str(new.value) == str(old.value) == "(2,0) is not an edge"
    # the old search validated only on its first dequeue, so no steps meant no check
    assert old_is_contractible(x, foreign, 4, max_steps=0) == ContractionVerdict(False, None, 0, True)
    with pytest.raises(PermstabError, match=r"\(2,0\) is not an edge"):
        is_contractible(x, foreign, 4, max_steps=0)
    trivial = Cycle(y, (0,))
    assert is_contractible(x, trivial, 2, max_steps=0) == old_is_contractible(x, trivial, 2, max_steps=0)


# -- the cover triangles ---------------------------------------------------------


def cover_inputs():
    for seed, eps, fiber, extra, mode in (
        (1, "0", 6, 0, "coboundary"),
        (2, "1/20", 12, 0, "coboundary"),
        (3, "1/10", 12, 2, "coboundary"),
        (4, "1/8", 12, 0, "zero"),
        (5, "1/4", 6, 3, "coboundary"),
        (6, "1/10", 24, 0, "coboundary"),
        (2, "1/2", 12, 2, "coboundary"),  # tracked triangles with a second-type edge
    ):
        config = ExperimentConfig(
            seed=seed, epsilon=Fraction(eps), fiber=fiber, extra=extra, cocycle_mode=mode
        )
        x, phi, raw, f = build_instance(config)
        psi, _ = normalize_sofic_approx(raw)
        yield x, phi, psi, f


def test_first_type_triangle_check_matches_old():
    for x, phi, psi, f in cover_inputs():
        cov = build_cover(x, f)
        zeta, types = zeta_cochain(psi, f, cov)
        assert first_type_triangle_check(psi, phi, cov, zeta, types) == old_first_type_triangle_check(
            psi, phi, cov, zeta, types
        )
        flipped = F2Cochain(zeta.complex, 1, zeta.bits ^ 0b1011011)
        got = first_type_triangle_check(psi, phi, cov, flipped, types)
        assert got == old_first_type_triangle_check(psi, phi, cov, flipped, types)
        assert got[1]  # a wrong zeta gives violations


def test_contradiction_experiment_matches_old(monkeypatch):
    for x, phi, psi, f in cover_inputs():
        assert contradiction_experiment(x, phi, psi, f) == old_contradiction_experiment(x, phi, psi, f)
    real_zeta = covers.zeta_cochain

    def wrong_zeta(*args):
        zeta, types = real_zeta(*args)
        return F2Cochain(zeta.complex, 1, zeta.bits ^ 0b110101), types

    monkeypatch.setattr(covers, "zeta_cochain", wrong_zeta)
    for x, phi, psi, f in cover_inputs():
        with pytest.raises(BoundViolation) as old:
            old_contradiction_experiment(x, phi, psi, f)
        with pytest.raises(BoundViolation) as new:
            contradiction_experiment(x, phi, psi, f)
        assert str(new.value) == str(old.value)
        assert str(new.value).endswith("qualifying triangles disagree")
