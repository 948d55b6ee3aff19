"""Presentations, gauge searches, corrections, facets and the CSV writers, against ``oracles``.

The exhaustive branches of the searches and the corrections are read off
their docstrings.  The greedy and random branches and the CSV bytes have no
definition to read, so sha256 digests computed before the oracles replaced
the frozen copies pin them.
"""

import csv
import hashlib
import io
import random
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from permstab.cohomology import F2Cochain, coboundary
from permstab.complexes import (
    Presentation,
    SimplicialComplex,
    annulus,
    boundary_of_simplex,
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
from permstab.fileio import csv_text, format_decimal
from permstab.rng import SplitMix64
from permstab.symcochains import (
    PartialInj,
    SymCochain,
    _triangles_at,
    eta_minimality_check,
    single_edge_correction,
    vertex_coboundary,
    vertex_link_correction,
)

# -- inputs ------------------------------------------------------------------------


def seeded_complexes():
    """Named complexes plus seeded random families, some with isolated edges or two components."""
    out = [annulus(), projective_plane_six(), boundary_of_simplex(3), full_triangle()]
    for seed in range(6):
        for p in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            out.append(random_lm_complex(5 + seed % 2, p, seed))
    out.append(SimplicialComplex.from_cells([(0, 1, 2), (1, 2, 3), (3, 4), (5, 6, 7), (6, 8)]))
    return out


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


def assert_presentations(x, phis):
    for root in x.vertices:
        tree = spanning_tree(x, root)
        assert fundamental_group_presentation(x, tree) == Presentation(*oracles.edge_presentation(x, tree))
        for phi in phis:
            assert extension_from_cocycle(tree, phi) == Presentation(*oracles.edge_presentation(x, tree, phi))


def test_presentations_match_the_oracle_seeded():
    rng = SplitMix64(7)
    for x in seeded_complexes():
        phis = []
        if x.dim >= 2:
            ones = F2Cochain(x, 2, (1 << x.n_cells(2)) - 1)
            phis = [F2Cochain(x, 2, 0), ones, F2Cochain(x, 2, rng.below(1 << x.n_cells(2)))]
        assert_presentations(x, phis)


def test_extension_checks():
    x = boundary_of_simplex(4)  # dim 3: a non-cocycle 2-cochain is rejected
    tree = spanning_tree(x, 0)
    with pytest.raises(PermstabError, match="not a cocycle"):
        extension_from_cocycle(tree, F2Cochain(x, 2, 1))
    with pytest.raises(PermstabError, match="expected a 2-cochain"):
        extension_from_cocycle(tree, F2Cochain(x, 1, 0))
    good = coboundary(F2Cochain(x, 1, 0b1011))
    assert extension_from_cocycle(tree, good) == Presentation(*oracles.edge_presentation(x, tree, good))


cells_on_seven = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True), min_size=1, max_size=10
)


@settings(max_examples=150, deadline=None)
@given(cells=cells_on_seven, bits=st.integers(min_value=0))
def test_presentations_match_the_oracle_hypothesis(cells, bits):
    x = SimplicialComplex.from_cells(cells)
    phis = []
    if x.dim == 2:
        phis = [F2Cochain(x, 2, 0), F2Cochain(x, 2, bits % (1 << x.n_cells(2)))]
    assert_presentations(x, phis)


# -- gauge searches and corrections ------------------------------------------------


# sha256 of the random-branch verdicts below, computed before the oracles replaced the frozen copies
ETA_RANDOM_SHA256 = "7db2577d53a389e221015060b22a1d4c87ed229b0b229fd9575e09f998605a96"


def test_eta_minimality_matches_the_first_violation():
    rng = SplitMix64(11)
    hollow = SimplicialComplex.from_cells([(0, 1), (1, 2), (0, 2)])
    cases = []
    for x in (full_triangle(), hollow, SimplicialComplex.from_cells([(0, 1)])):
        for n in (1, 2, 3):
            for _ in range(2):
                cases.append(noisy_cochain(x, n, rng))
    digest = hashlib.sha256()
    violated = 0
    for f in cases:
        for eta in (0, 1, 10, 100):
            got = eta_minimality_check(f, eta)
            witness, tried = oracles.gauge_violation(f, eta)
            got_witness = got.witness and {v: p.images for v, p in got.witness.items()}
            assert (got.violated, got_witness, got.exhaustive, got.tried) == (witness is not None, witness, True, tried)
            violated += got.violated
            small = eta_minimality_check(f, eta, budget=0, seed=3, random_trials=2)
            digest.update(repr(small).encode())
            assert not small.exhaustive
    assert 0 < violated < 4 * len(cases)
    assert digest.hexdigest() == ETA_RANDOM_SHA256


# sha256 of the greedy-branch outputs below, computed before the oracles replaced the frozen copies
VERTEX_LINK_GREEDY_SHA256 = "32697e5b5684cd34a317cbe014dc12a7b17f8f29ea9c8ff091b1ebc7d9c3b3b0"


def test_vertex_link_correction_matches_the_first_minimum_fit():
    rng = SplitMix64(13)
    specs = [
        (full_triangle(), (2, 3, 4)),  # link of 2 vertices: exhaustive up to n = 4
        (boundary_of_simplex(3), (2, 3)),  # link of 3 vertices: exhaustive
        (boundary_of_simplex(3), (5,)),  # n > 4: greedy
        (random_lm_complex(6, Fraction(3, 4), 2), (3,)),  # links above 3 vertices: greedy
    ]
    digest = hashlib.sha256()
    branches = []
    for x, ns in specs:
        for n in ns:
            f = noisy_cochain(x, n, rng)
            for v in x.vertices[:3]:
                if not _triangles_at(x, v):
                    continue
                exhaustive = link(x, (v,)).n_cells(0) <= 3 and n <= 4
                branches.append(exhaustive)
                fit = oracles.vertex_link_fit(f, v) if exhaustive else None
                etas = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 5), Fraction(9, 10)), (Fraction(9, 10), Fraction(1, 10))]
                if exhaustive:  # shares of 1 and of 1/3 are reached on one and on three triangles
                    etas += [(Fraction(1), Fraction(0)), (Fraction(1, 3), Fraction(2, 3))]
                for eta1, eta2 in etas:
                    got = vertex_link_correction(f, v, eta1, eta2, seed=v)
                    if exhaustive:
                        assert oracles.edge_maps(got) == oracles.vertex_link_adopt(f, v, fit, eta1, eta2)
                    else:
                        digest.update(repr(sorted(got.values.items())).encode())
    assert branches.count(False) == 6 and True in branches
    assert digest.hexdigest() == VERTEX_LINK_GREEDY_SHA256


def test_single_edge_correction_matches_the_majority_vote():
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
                            assert oracles.edge_maps(got) == oracles.single_edge_vote(f, u, v, eta1)
                            changed += got != f
    assert changed > 0


# -- CSV and decimals ---------------------------------------------------------------


TWELVE_DIGITS = Context(prec=12, rounding=ROUND_HALF_EVEN)

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
def test_csv_text_reads_back_and_decimals_round_to_twelve_digits(header, rows, q):
    text = csv_text(header, rows)
    assert list(csv.reader(io.StringIO(text, newline=""))) == [header] + [[str(c) for c in row] for row in rows]
    if not any(end in str(c) for row in rows for c in row for end in "\r\n"):
        assert "\r" not in text and text.count("\n") == 1 + len(rows)  # one "\n" ends each line
    # the float of q, rounded half to even to 12 significant digits
    assert Decimal(format_decimal(q)) == TWELVE_DIGITS.plus(Decimal(float(q)))


def csv_family():
    """Seeded headers, rows and fractions over the alphabets of the strategy above."""
    rng = random.Random(20261021)

    def text(alphabet, size):
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(size + 1)))

    for _ in range(300):
        header = [text('xy,"_ ', 4) for _ in range(rng.randint(1, 4))]
        rows = [
            [rng.randint(-10**6, 10**6) if rng.random() < 0.5 else text('ab,"\n\r /-1^.', 6) for _ in range(rng.randrange(6))]
            for _ in range(rng.randrange(6))
        ]
        yield header, rows, Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10 ** rng.randint(0, 12)))


# sha256 of the writers' bytes below, computed before the oracles replaced the frozen copies;
# the family's 76 lines with a cell holding a bare "\r" were re-pinned once that cell became quoted
CSV_FAMILY_SHA256 = "961cdc510f0849dc9a521235e6b16b1ae4a2072697c6b808093005aee574d14c"
ROWS_CSV_SHA256 = "395abd09240f98c34fbf401d624e64c4c12feb5f7f5375a0abca0fa6f93e122b"


def test_csv_writers_are_pinned():
    digest = hashlib.sha256()
    for header, rows, q in csv_family():
        digest.update(csv_text(header, rows).encode())
        digest.update(format_decimal(q).encode() + b"\n")
    assert digest.hexdigest() == CSV_FAMILY_SHA256


def test_rows_to_csv_is_pinned():
    rows = [
        run_pipeline(ExperimentConfig(seed=s, epsilon=e, fiber=6))[0]
        for e in (Fraction(0), Fraction(1, 10))
        for s in (0, 1)
    ]
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == ROWS_CSV_SHA256
    assert rows_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"


# -- facets ------------------------------------------------------------------------


def test_facets_are_the_maximal_cells_seeded():
    rng = SplitMix64(19)
    pure = non_pure = 0
    for x in seeded_complexes():
        assert x.facets() == oracles.facets(x)
    for _ in range(200):
        cells = [
            tuple(rng.sample(range(8), 1 + rng.below(4)))
            for _ in range(1 + rng.below(8))
        ]
        x = SimplicialComplex.from_cells(cells)
        assert x.facets() == oracles.facets(x)
        pure += x.is_pure
        non_pure += not x.is_pure
    assert pure and non_pure


@settings(max_examples=200, deadline=None)
@given(cells=cells_on_seven)
def test_facets_are_the_maximal_cells_hypothesis(cells):
    x = SimplicialComplex.from_cells(cells)
    assert x.facets() == oracles.facets(x)
