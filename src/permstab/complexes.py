"""Finite pure simplicial complexes with weights, links, trees and presentations.

Cells are strictly increasing tuples of vertex indices.  The canonical order
of ``X(k)`` is lexicographic; cochain bit vectors elsewhere in the package
index cells in this order.  Complexes are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import PermstabError
from .rng import SplitMix64

Cell = tuple[int, ...]
Letter = tuple[str, int]
Word = tuple[Letter, ...]


class SimplicialComplex:
    """A finite simplicial complex, downward closed by construction.

    ``faces_by_dim[k]`` is the sorted tuple of k-cells.  ``is_pure`` records
    whether every cell lies in a top-dimensional cell; the weighted-norm
    machinery requires purity and rejects non-pure complexes.
    """

    __slots__ = ("dim", "faces_by_dim", "is_pure", "_index", "_top_counts", "_adj", "_cache")

    def __init__(self, faces_by_dim: tuple[tuple[Cell, ...], ...]):
        self.faces_by_dim = faces_by_dim
        self.dim = len(faces_by_dim) - 1
        self._index = tuple({c: i for i, c in enumerate(cells)} for cells in faces_by_dim)
        self._top_counts: dict[int, tuple[int, ...]] = {}
        self._adj: dict[int, tuple[int, ...]] | None = None
        self._cache: dict = {}
        self.is_pure = self._check_pure()

    # -- construction -------------------------------------------------

    @classmethod
    def from_cells(cls, cells) -> "SimplicialComplex":
        """Build the downward closure of an arbitrary family of cells."""
        closed: set[Cell] = set()
        for raw in cells:
            cell = tuple(sorted(set(raw)))
            if not cell:
                raise PermstabError("empty cell")
            if any(v < 0 for v in cell):
                raise PermstabError("negative vertex index")
            for k in range(1, len(cell) + 1):
                closed.update(combinations(cell, k))
        if not closed:
            raise PermstabError("a complex needs at least one cell")
        dim = max(len(c) for c in closed) - 1
        by_dim = tuple(
            tuple(sorted(c for c in closed if len(c) == k + 1)) for k in range(dim + 1)
        )
        return cls(by_dim)

    @classmethod
    def build_from_top_faces(cls, top_faces) -> "SimplicialComplex":
        """Downward closure of equal-size top faces; pure by construction."""
        faces = [tuple(sorted(set(f))) for f in top_faces]
        if not faces:
            raise PermstabError("no top faces given")
        sizes = {len(f) for f in faces}
        if len(sizes) != 1:
            raise PermstabError(f"mixed top-face sizes {sorted(sizes)} break purity")
        if 0 in sizes:
            raise PermstabError("empty top face")
        return cls.from_cells(faces)

    def _check_pure(self) -> bool:
        """Every cell is a face of a top cell: walk the covered faces down."""
        covered = set(self.cells(self.dim))
        for k in range(self.dim - 1, -1, -1):
            covered = {face for c in covered for face in combinations(c, k + 1)}
            if not covered.issuperset(self.faces_by_dim[k]):
                return False
        return True

    # -- basic queries -------------------------------------------------

    def cells(self, k: int) -> tuple[Cell, ...]:
        if 0 <= k <= self.dim:
            return self.faces_by_dim[k]
        return ()

    def n_cells(self, k: int) -> int:
        return len(self.cells(k))

    def has_cell(self, cell) -> bool:
        cell = tuple(sorted(cell))
        k = len(cell) - 1
        return 0 <= k <= self.dim and cell in self._index[k]

    def cell_position(self, cell) -> int:
        cell = tuple(sorted(cell))
        k = len(cell) - 1
        try:
            return self._index[k][cell]
        except (IndexError, KeyError):
            raise PermstabError(f"{cell} is not a cell of the complex") from None

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.cells(0))

    @property
    def vertex_count(self) -> int:
        return self.cells(0)[-1][0] + 1 if self.cells(0) else 0

    def neighbors(self, v: int) -> tuple[int, ...]:
        if self._adj is None:
            adj: dict[int, list[int]] = {u: [] for u in self.vertices}
            for (a, b) in self.cells(1):
                adj[a].append(b)
                adj[b].append(a)
            self._adj = {u: tuple(sorted(ns)) for u, ns in adj.items()}
        return self._adj.get(v, ())

    def facets(self) -> list[Cell]:
        """Maximal cells, used by the text file format.

        The complex is downward closed, so a cell is maximal exactly when it
        is not a face of any cell one dimension up.
        """
        out: list[Cell] = []
        for k, cells in enumerate(self.faces_by_dim):
            above = self.faces_by_dim[k + 1] if k < self.dim else ()
            covered = {face for c in above for face in combinations(c, k + 1)}
            out.extend(c for c in cells if c not in covered)
        return sorted(out, key=lambda c: (len(c), c))

    # -- weights -------------------------------------------------------

    def top_containment_counts(self, k: int) -> tuple[int, ...]:
        """Per k-cell, the number of top cells containing it."""
        if k not in self._top_counts:
            counts = [0] * self.n_cells(k)
            for top in self.faces_by_dim[-1]:
                for sub in combinations(top, k + 1):
                    counts[self._index[k][sub]] += 1
            self._top_counts[k] = tuple(counts)
        return self._top_counts[k]

    def weight_numerators(self, k: int) -> tuple[tuple[int, ...], int]:
        """Integer weight numerators over a common denominator for X(k)."""
        if not self.is_pure:
            raise PermstabError("weights are defined only on pure complexes")
        if not 0 <= k <= self.dim:
            raise PermstabError(f"no cells in dimension {k}")
        den = comb(self.dim + 1, k + 1) * self.n_cells(self.dim)
        return self.top_containment_counts(k), den


def face_weight(x: SimplicialComplex, cell) -> Fraction:
    """Probability of a cell under top-cell-then-subcell sampling."""
    cell = tuple(sorted(cell))
    pos = x.cell_position(cell)
    nums, den = x.weight_numerators(len(cell) - 1)
    return Fraction(nums[pos], den)


def link(x: SimplicialComplex, s) -> SimplicialComplex:
    """The subcomplex of cells disjoint from ``s`` whose union with it is a cell."""
    s = tuple(sorted(s))
    if not x.has_cell(s):
        raise PermstabError(f"{s} is not a cell of the complex")
    sset = set(s)
    out = []
    for k in range(x.dim + 1):
        for cell in x.cells(k):
            if sset.isdisjoint(cell) and x.has_cell(tuple(sorted(set(cell) | sset))):
                out.append(cell)
    if not out:
        return EMPTY_COMPLEX
    return SimplicialComplex.from_cells(out)


EMPTY_COMPLEX = SimplicialComplex(())


# -- spanning trees and presentations ----------------------------------


@dataclass
class RootedTree:
    """BFS spanning tree of one component; ``parent[root] == root``."""

    root: int
    parent: dict[int, int]
    tree_edges: frozenset[Cell]

    def path_to_root(self, v: int) -> list[int]:
        path = [v]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    @property
    def component(self) -> frozenset[int]:
        return frozenset(self.parent)


def spanning_tree(x: SimplicialComplex, root: int) -> RootedTree:
    """Breadth-first tree from ``root``, visiting smallest neighbor index first."""
    if not x.has_cell((root,)):
        raise PermstabError(f"root {root} is not a vertex")
    parent = {root: root}
    edges = set()
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in x.neighbors(v):
            if u not in parent:
                parent[u] = v
                edges.add(tuple(sorted((u, v))))
                queue.append(u)
    return RootedTree(root=root, parent=parent, tree_edges=frozenset(edges))


def edge_gen(x: int, y: int) -> str:
    """Generator symbol for the oriented edge from x to y."""
    return f"e{x}_{y}"


@dataclass(frozen=True)
class Presentation:
    """A finite group presentation; relation words are tuples of (symbol, ±1)."""

    generators: tuple[str, ...]
    relations: tuple[Word, ...]
    inverse_pairs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        gens = set(self.generators)
        if len(gens) != len(self.generators):
            raise PermstabError("duplicate generator symbols")
        for word in self.relations:
            for sym, exp in word:
                if sym not in gens:
                    raise PermstabError(f"relation uses unknown generator {sym!r}")
                if exp not in (1, -1):
                    raise PermstabError("letter exponents must be +1 or -1")
        for a, b in self.inverse_pairs:
            if a not in gens or b not in gens:
                raise PermstabError("inverse pair uses unknown generator")

    @property
    def max_relation_length(self) -> int:
        return max((len(w) for w in self.relations), default=0)

    def with_extra_relations(self, extra) -> "Presentation":
        known = set(self.relations)
        added = tuple(w for w in extra if w not in known)
        return Presentation(self.generators, self.relations + added, self.inverse_pairs)


def free_reduce(word: Word) -> Word:
    out: list[Letter] = []
    for sym, exp in word:
        if out and out[-1][0] == sym and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((sym, exp))
    return tuple(out)


def _edge_presentation(x: SimplicialComplex, tree: RootedTree, twist):
    """Generators, inverse pairs and relations of the edge presentation.

    ``twist(cell)`` is a word appended to both oriented words of a triangle.
    """
    comp = tree.component
    gens: list[str] = []
    pairs: list[tuple[str, str]] = []
    edges = [e for e in x.cells(1) if e[0] in comp and e[1] in comp]
    for (a, b) in edges:
        gens.append(edge_gen(a, b))
        gens.append(edge_gen(b, a))
        pairs.append((edge_gen(a, b), edge_gen(b, a)))
    relations: list[Word] = []
    for (a, b) in sorted(tree.tree_edges):
        relations.append(((edge_gen(a, b), 1),))
        relations.append(((edge_gen(b, a), 1),))
    for (a, b) in edges:
        relations.append(((edge_gen(a, b), 1), (edge_gen(b, a), 1)))
    for cell in x.cells(2):
        a, b, c = cell
        if a in comp and b in comp and c in comp:
            tail = twist(cell)
            relations.append(((edge_gen(a, b), 1), (edge_gen(b, c), 1), (edge_gen(c, a), 1)) + tail)
            relations.append(((edge_gen(a, c), 1), (edge_gen(c, b), 1), (edge_gen(b, a), 1)) + tail)
    return gens, pairs, relations


def fundamental_group_presentation(x: SimplicialComplex, tree: RootedTree) -> Presentation:
    """Edge-generator presentation of the fundamental group of the tree's component.

    Oriented edges are the generators.  Relations: both orientations of each
    tree edge as length-1 words, one backtracking word per unoriented edge,
    and two oriented words per triangle (one for each cyclic orientation,
    using the increasing vertex order as the base orientation).
    """
    gens, pairs, relations = _edge_presentation(x, tree, lambda cell: ())
    return Presentation(tuple(gens), tuple(relations), tuple(pairs))


# -- generators of standard complexes -----------------------------------


def random_lm_complex(n: int, p, seed: int) -> SimplicialComplex:
    """Complete 1-skeleton on ``n`` vertices with each triangle kept with probability ``p``.

    Deterministic for a fixed seed: triangles are scanned in lexicographic
    order and kept when the next stream rational falls below ``p``.  The
    result may be non-pure (isolated edges are retained); weight-based
    operations reject such complexes.
    """
    if n < 3:
        raise PermstabError("need at least 3 vertices")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise PermstabError("probability out of range")
    rng = SplitMix64(seed)
    cells: list[Cell] = [tuple(e) for e in combinations(range(n), 2)]
    for tri in combinations(range(n), 3):
        if rng.unit_fraction() < p:
            cells.append(tri)
    return SimplicialComplex.from_cells(cells)


def boundary_of_simplex(n: int) -> SimplicialComplex:
    """The boundary of the n-simplex, an (n-1)-sphere on n+1 vertices."""
    return SimplicialComplex.build_from_top_faces(combinations(range(n + 1), n))


def full_triangle() -> SimplicialComplex:
    return SimplicialComplex.build_from_top_faces([(0, 1, 2)])


def hollow_polygon(k: int) -> SimplicialComplex:
    """Cycle graph on k vertices (no 2-cells)."""
    if k < 3:
        raise PermstabError("need at least 3 vertices")
    return SimplicialComplex.build_from_top_faces(
        [(i, (i + 1) % k) for i in range(k)]
    )


def annulus() -> SimplicialComplex:
    """Triangulated annulus on 6 vertices: inner triangle 0,1,2, outer 3,4,5."""
    return SimplicialComplex.build_from_top_faces(
        [(0, 1, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5), (0, 2, 3), (2, 3, 5)]
    )


def annulus_winding_cocycle() -> dict[Cell, int]:
    """Integer 1-cocycle on the annulus measuring the winding of a loop.

    Returned per increasing-order oriented edge; the reversed orientation
    negates the value.  Sums to zero around every triangle and to one around
    the core loop 0-1-2.
    """
    values = {
        (0, 1): 0, (1, 2): 0, (0, 2): -1,
        (3, 4): 0, (4, 5): 0, (3, 5): -1,
        (0, 3): 0, (1, 4): 0, (2, 5): 0,
        (0, 4): 0, (1, 5): 0, (2, 3): 1,
    }
    return values


def projective_plane_six() -> SimplicialComplex:
    """The 6-vertex minimal triangulation of the real projective plane."""
    return SimplicialComplex.build_from_top_faces(
        [
            (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
            (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
        ]
    )
