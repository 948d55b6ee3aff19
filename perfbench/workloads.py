"""The benchmark's three workloads: ``sweep``, ``audit`` and ``exact``.

Item ``i`` of a workload is generated from ``(workload, seed, i)`` alone with
the standard library's ``random.Random``, so the same seed gives the same
inputs however many items a run gets through.  Inputs reach the program only
through its public entry points (``ExperimentConfig``,
``fileio.load_sym_cochain``, ``SimplicialComplex.build_from_top_faces`` and
``fileio.load_cochain``), and that parsing is part of set-up, not of an item.

Program functions are always called through their module (``cohomology.x``,
never a name imported into this file), so the traced run sees every call.

Each workload has:

* ``generate(seed, i)`` -> raw input (plain Python data or text);
* ``parse(raw)`` -> program objects, timed as set-up;
* ``run(inp)`` -> output, the timed item;
* ``check(inp, out)`` -> None, or why the output is wrong (untimed);
* ``finish(outs)`` -> work that closes a run, timed but not part of any item;
* ``digest(inputs, outputs)`` -> a digest of the first ``digest_items``
  outputs, compared with ``golden.json`` for the default seed;
* ``lead`` and ``period``: after the first ``lead`` items the kinds of item
  repeat every ``period`` items, so the timed figures can cover whole
  rotations and weigh the kinds alike in every run.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import permstab.cohomology as cohomology
import permstab.complexes as complexes
import permstab.errors as errors
import permstab.experiments as experiments
import permstab.fileio as fileio
import permstab.symcochains as symcochains


def item_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _frac(q) -> str:
    return "None" if q is None else f"{q.numerator}/{q.denominator}"


class Workload:
    """Defaults: nothing closes a run, and the digest covers ``record`` values."""

    keeps_outputs = False  # True when ``finish`` needs every item's output
    lead, period = 0, 1

    def finish(self, outs):
        return None

    def digest(self, inputs, outputs):
        return sha256_json([self.record(i, o) for i, o in zip(inputs, outputs)])


# -- sweep ---------------------------------------------------------------


class Sweep(Workload):
    """One ``run_pipeline`` per item; the run ends with ``rows_to_csv``.

    Fibers 12, 24 and 48 take equal shares in a fixed rotation, so the
    median lands among fiber-24 runs and p90 among fiber-48 runs; half of
    the fiber-12 and fiber-48 runs have two extra fiber points.
    """

    name = "sweep"
    keeps_outputs = True
    modules = ("permstab.experiments",)
    digest_items = 6
    period = 30  # fiber (3) by epsilon (5) and extra (2) of each fiber triple
    FIBERS = (12, 24, 48)
    EPSILONS = ("0", "1/100", "1/50", "1/20", "1/10")

    def generate(self, seed, i):
        rng = item_rng(self.name, seed, i)
        fiber = self.FIBERS[i % 3]
        return {
            "seed": rng.getrandbits(31),
            "epsilon": self.EPSILONS[(i // 3) % len(self.EPSILONS)],
            "fiber": fiber,
            # two extra points make a fiber-24 run about 30% slower, which
            # would split the class the median falls in; other fibers
            # alternate
            "extra": 2 if fiber != 24 and (i // 3) % 2 else 0,
        }

    def parse(self, raw):
        return experiments.ExperimentConfig(
            seed=raw["seed"],
            epsilon=Fraction(raw["epsilon"]),
            fiber=raw["fiber"],
            extra=raw["extra"],
            cocycle_mode="coboundary",
        )

    def run(self, config):
        row, _report = experiments.run_pipeline(config)
        return row

    def check(self, config, row):
        if not row.holds:
            return "row does not hold"
        if not Fraction(row.dw) <= Fraction(row.eps) + 4 * Fraction(row.rho):
            return f"dw {row.dw} exceeds eps + 4 rho"
        return None

    def finish(self, rows):
        return experiments.rows_to_csv(rows)

    def digest(self, inputs, outputs):
        csv_text = experiments.rows_to_csv(outputs)
        return hashlib.sha256(csv_text.encode()).hexdigest()


# -- audit ---------------------------------------------------------------


class Audit(Workload):
    """Deletion, good-function audit and one contractibility search per item.

    The instance has the criterion-10 shape: a random pure complex on six
    vertices with 4 to 8 triangles and a vertex coboundary on 4 to 16
    indices with 1 to 3 transposition flips.
    """

    name = "audit"
    modules = ("permstab.fileio", "permstab.symcochains")
    digest_items = 4
    TRIANGLES = tuple(combinations(range(6), 3))

    def generate(self, seed, i):
        rng = item_rng(self.name, seed, i)
        tris = sorted(rng.sample(self.TRIANGLES, rng.randint(4, 8)))
        verts = sorted({v for t in tris for v in t})
        edges = sorted({e for t in tris for e in combinations(t, 2)})
        n = rng.randint(4, 16)
        g = {}
        for v in verts:
            perm = list(range(n))
            rng.shuffle(perm)
            g[v] = perm
        inv = {v: sorted(range(n), key=g[v].__getitem__) for v in verts}
        # value on u->v (u < v) is g(v)^-1 after g(u)
        values = {(u, v): [inv[v][g[u][i]] for i in range(n)] for (u, v) in edges}
        for _ in range(rng.randint(1, 3)):
            e = rng.choice(edges)
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                t = list(range(n))
                t[a], t[b] = b, a
                values[e] = [values[e][t[i]] for i in range(n)]
        lines = [f"sym degree=1 n={n}", "complex", "dim 2"]
        lines += [" ".join(map(str, t)) for t in tris]
        lines.append("endcomplex")
        for e in edges:
            lines.append(f"cell {e[0]} {e[1]}")
            lines += [f"{i} -> {values[e][i]}" for i in range(n)]
        a, b, c = rng.choice(tris)
        return {"text": "\n".join(lines) + "\n", "loop": (a, b, c, a)}

    def parse(self, raw):
        return fileio.load_sym_cochain(raw["text"]), raw["loop"]

    def run(self, inp):
        f, loop = inp
        cleaned, report = symcochains.global_deletion(f)
        audit = symcochains.good_function_check(cleaned, max_len=8, max_steps=250)
        x = f.complex
        verdict = symcochains.is_contractible(x, symcochains.Cycle(x, loop), max_len=6)
        return cleaned, report, audit, verdict

    def check(self, inp, out):
        cleaned, report, audit, verdict = out
        if symcochains.count_joint_violations(cleaned) != 0:
            return "violations survive the deletion"
        if len(report.deleted) > report.count_bound:
            return "more indices deleted than the count bound"
        if audit.step_violations != () or not audit.ok:
            return "good-function audit failed"
        if not verdict.found:
            return "a triangle boundary was not contracted"
        return None

    def record(self, inp, out):
        _cleaned, report, audit, verdict = out
        return {
            "deleted": sorted(report.deleted),
            "cycles_enumerated": audit.cycles_enumerated,
            "ee_gaps": audit.ee_gaps,
            "budget_exhausted": audit.budget_exhausted,
            "contractible": [verdict.found, verdict.explored, verdict.budget_exhausted],
        }


# -- exact ---------------------------------------------------------------


RP2_FACES = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)  # fmt: skip

# (name, top faces, search, degree, exact value); the last one is the slow
# 2**15-point ratio scan, the others take well under a millisecond
ANCHORS = (
    ("sphere_cosystole_2", tuple(combinations(range(4), 3)), "cosystole", 2, Fraction(1, 4)),
    ("triangle_expansion_0", ((0, 1, 2),), "expansion", 0, Fraction(2)),
    ("rp2_cosystole_1", RP2_FACES, "cosystole", 1, Fraction(1, 3)),
    ("rp2_cosystole_2", RP2_FACES, "cosystole", 2, Fraction(1, 10)),
    ("rp2_expansion_0", RP2_FACES, "expansion", 0, Fraction(6, 5)),
    ("rp2_expansion_1", RP2_FACES, "expansion", 1, Fraction(3, 2)),
)
FAST_ANCHORS = len(ANCHORS) - 1


def _reduce_into(basis: dict, row: int) -> bool:
    """Add ``row`` to a GF(2) basis keyed by lowest set bit; False if dependent."""
    while row:
        low = row & -row
        if low not in basis:
            basis[low] = row
            return True
        row ^= basis[low]
    return False


def _h1(tris) -> int:
    """Dimension of the first GF(2) cohomology of the closure of ``tris``."""
    edges = sorted({e for t in tris for e in combinations(t, 2)})
    edge_ix = {e: j for j, e in enumerate(edges)}
    rank_d1, rank_d0 = {}, {}
    for t in tris:
        _reduce_into(rank_d1, sum(1 << edge_ix[e] for e in combinations(t, 2)))
    for a, b in edges:
        _reduce_into(rank_d0, (1 << a) | (1 << b))
    return len(edges) - len(rank_d1) - len(rank_d0)


def _rank_complex(rng, n_vertices, rank):
    """Random triangles until the triangle-by-edge incidence has ``rank``.

    That rank is the dimension of the degree-2 coboundary space, so an
    exact distance to it scans exactly ``2**rank`` points.
    """
    edge_ix = {e: j for j, e in enumerate(combinations(range(n_vertices), 2))}
    pool = list(combinations(range(n_vertices), 3))
    rng.shuffle(pool)
    basis: dict[int, int] = {}
    tris = []
    for tri in pool:
        _reduce_into(basis, sum(1 << edge_ix[e] for e in combinations(tri, 2)))
        tris.append(tri)
        if len(basis) == rank:
            return sorted(tris)
    raise ValueError(f"rank {rank} is out of reach on {n_vertices} vertices")


def _edge_count_complex(rng, n_vertices, n_edges):
    """Random triangles whose union has exactly ``n_edges`` edges."""
    while True:
        pool = list(combinations(range(n_vertices), 3))
        rng.shuffle(pool)
        tris, edges = [], set()
        for tri in pool:
            grown = edges | set(combinations(tri, 2))
            if len(grown) <= n_edges:
                tris.append(tri)
                edges = grown
                if len(edges) == n_edges:
                    return sorted(tris)


def _cochain_text(rng, tris):
    cells = [t for t in tris if rng.random() < 0.5]
    return "\n".join(["dim 2"] + [" ".join(map(str, t)) for t in cells]) + "\n"


class Exact(Workload):
    """Exact cohomology searches: three small ones for each large scan.

    Item 0 is an exact search above the 2**24 limit that must be refused,
    followed by its heuristic fallback.  After it, every fourth item is a
    large scan.  The larges rotate so that p90 falls in the middle of the
    2**21-point affine scans, with the 2**20-point ratio scans above them and
    the 2**19-point affine scans below; the rotation starts with a ratio scan
    and a 2**21-point affine scan, so the digest prefix holds every kind.  Of the smalls, the fast anchors and
    the degree-0 expansion constants make the fastest half; next come the
    cosystoles of random complexes with one cohomology class, where the
    median falls and set-up work outweighs the 2**8-point scan; the slow
    RP^2 anchor comes last.
    """

    name = "exact"
    modules = ("permstab.cohomology", "permstab.fileio")
    digest_items = 9
    lead = 1
    period = 40  # ten groups: the larges repeat every five, the anchors every ten
    LARGES = (("ratio", 20), ("affine", 21), ("affine", 19), ("affine", 21), ("affine", 19))

    def kind(self, i):
        """(kind, size or anchor index) of item ``i``."""
        if i == 0:
            return ("refused", 26)
        group, slot = divmod(i - 1, 4)
        if slot == 3:
            return self.LARGES[group % len(self.LARGES)]
        rnd, pos = divmod(group * 3 + slot, 6)
        if pos in (0, 3):
            return ("anchor", (2 * rnd + (pos == 3)) % FAST_ANCHORS)
        if pos == 5:
            return ("anchor", FAST_ANCHORS)
        return ("cosystole", None) if pos in (1, 4) else ("expansion0", None)

    def generate(self, seed, i):
        rng = item_rng(self.name, seed, i)
        kind, size = self.kind(i)
        if kind == "anchor":
            return {"kind": kind, "anchor": size, "faces": ANCHORS[size][1]}
        if kind in ("affine", "refused"):
            tris = _rank_complex(rng, 9 if kind == "affine" else 10, size)
            return {"kind": kind, "faces": tris, "cochain": _cochain_text(rng, tris)}
        if kind == "ratio":
            tris = _edge_count_complex(rng, 7 if size <= 21 else 8, size)
            return {"kind": kind, "faces": tris}
        if kind == "cosystole":
            while True:
                tris = sorted(rng.sample(list(combinations(range(9), 3)), 26))
                if _h1(tris) == 1:
                    return {"kind": kind, "faces": tris}
        tris = sorted(rng.sample(list(combinations(range(7), 3)), 8))
        return {"kind": kind, "faces": tris}

    def parse(self, raw):
        x = complexes.SimplicialComplex.build_from_top_faces(raw["faces"])
        alpha = fileio.load_cochain(raw["cochain"], x) if "cochain" in raw else None
        return raw["kind"], raw.get("anchor"), x, alpha

    def run(self, inp):
        kind, anchor, x, alpha = inp
        if kind == "refused":
            space = cohomology.coboundary_space(x, 2)
            try:
                cohomology.distance_to_subspace(alpha, space)
            except errors.ExactSearchRefused:
                return True, space, cohomology.distance_to_subspace(alpha, space, mode="heuristic")
            return False, space, None
        if kind == "affine":
            space = cohomology.coboundary_space(x, 2)
            return space, cohomology.distance_to_subspace(alpha, space)
        if kind == "ratio":
            return cohomology.cocycle_expansion_constant(x, 1)
        if kind == "cosystole":
            return cohomology.cosystole(x, 1)
        if kind == "expansion0":
            return cohomology.cocycle_expansion_constant(x, 0)
        _name, _faces, search, k, _value = ANCHORS[anchor]
        if search == "cosystole":
            return cohomology.cosystole(x, k)
        return cohomology.cocycle_expansion_constant(x, k)

    def check(self, inp, out):
        kind, anchor, _x, alpha = inp
        if kind == "refused":
            refused, space, result = out
            if not refused:
                return "an exact search above the limit was not refused"
            if result.exact or not space.contains(result.witness):
                return "heuristic fallback result is inconsistent"
            return None
        if kind == "affine":
            space, result = out
            if not result.exact or not space.contains(result.witness):
                return "exact distance has a bad witness"
            if cohomology.weighted_norm(alpha ^ result.witness) != result.value:
                return "exact distance disagrees with its witness"
            return None
        if kind == "anchor":
            name, _faces, _search, _k, value = ANCHORS[anchor]
            return None if out == value else f"anchor {name} gave {out}, expected {value}"
        if out is not None and out <= 0:
            return f"{kind} gave the non-positive value {out}"
        return None

    def record(self, inp, out):
        kind = inp[0]
        if kind == "refused":
            refused, _space, result = out
            return [kind, refused, _frac(result.value), hex(result.witness.bits)]
        if kind == "affine":
            _space, result = out
            return [kind, _frac(result.value), hex(result.witness.bits)]
        return [kind, _frac(out)]


WORKLOADS = {w.name: w for w in (Sweep(), Audit(), Exact())}
