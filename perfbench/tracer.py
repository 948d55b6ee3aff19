"""Outside-in tracer for the benchmark's traced run.

The program has no tracing of its own, so this module wraps the public
functions of permstab's modules from outside.  A function is wrapped at every
``permstab`` module binding that holds it (``compose`` is imported by name
into ``actions`` and ``experiments``, for example); a method is wrapped once
on its class.  A listed name the program no longer has is reported as
absent, never as a crash or a zero.

Spans (name, start, end, parent, item id) are kept in memory in flat arrays
and written out when the run ends.  Functions listed with mode ``COUNT`` are
called so often that only their calls are counted; their time stays in the
enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

SPAN = "span"
COUNT = "count"

# (module, attribute path, mode, reported stats); the layer is the module.
LAYERS = (
    ("experiments", "build_instance", SPAN, ("s",)),
    ("experiments", "rows_to_csv", SPAN, ("s",)),
    ("actions", "normalize_sofic_approx", SPAN, ("s",)),
    ("actions", "defect", SPAN, ("calls", "s")),
    ("actions", "induced_quotient_action", SPAN, ("s",)),
    ("actions", "evaluate_word", SPAN, ("calls", "s")),
    ("perms", "compose", SPAN, ("calls", "s", "points")),
    ("perms", "hamming", SPAN, ("calls", "s")),
    ("perms", "ErrPerm.__post_init__", COUNT, ("calls",)),
    ("covers", "contradiction_experiment", SPAN, ("s", "self_s")),
    ("covers", "build_cover", SPAN, ("s",)),
    ("covers", "first_type_triangle_check", SPAN, ("s",)),
    ("covers", "zeta_cochain", SPAN, ("s",)),
    ("covers", "pull_back_cocycle", SPAN, ("s",)),
    ("complexes", "SimplicialComplex.from_cells", SPAN, ("s",)),
    ("complexes", "SimplicialComplex.has_cell", COUNT, ("calls",)),
    ("complexes", "SimplicialComplex.build_from_top_faces", SPAN, ("s",)),
    ("cohomology", "coboundary", SPAN, ("calls", "s")),
    ("cohomology", "weighted_norm", SPAN, ("s",)),
    ("cohomology", "cocycle_space", SPAN, ("s",)),
    ("cohomology", "coboundary_space", SPAN, ("s",)),
    ("cohomology", "distance_to_subspace", SPAN, ("s", "self_s")),
    ("cohomology", "cosystole", SPAN, ("s", "self_s")),
    ("cohomology", "cocycle_expansion_constant", SPAN, ("s", "self_s")),
    ("gf2", "row_reduce", SPAN, ("calls", "s")),
    ("gf2", "kernel_and_complement", SPAN, ("s",)),
    ("kernels", "min_affine_weight", SPAN, ("calls", "s", "points", "flips", "points_per_s")),
    ("kernels", "min_ratio_scan", SPAN, ("calls", "s", "points", "flips", "points_per_s")),
    ("symcochains", "good_function_check", SPAN, ("s", "self_s", "cycles", "budget_exhausted_frac")),
    ("symcochains", "evaluate_cycle", SPAN, ("calls", "s", "per_cycle")),
    ("symcochains", "enumerate_steps", SPAN, ("calls", "s")),
    ("symcochains", "relation_step", COUNT, ("calls",)),
    ("symcochains", "cycle_domain", SPAN, ("s",)),
    ("symcochains", "PartialInj.compose", SPAN, ("calls", "s")),
    ("symcochains", "PartialInj.__post_init__", COUNT, ("calls",)),
    ("symcochains", "Cycle.__post_init__", COUNT, ("calls",)),
    ("symcochains", "global_deletion", SPAN, ("s",)),
    ("symcochains", "is_contractible", SPAN, ("s", "explored")),
    ("fileio", "load_sym_cochain", SPAN, ("s",)),
)

KERNELS = ("min_affine_weight", "min_ratio_scan")

UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "points": "count",
    "flips": "count",
    "points_per_s": "points/s",
    "cycles": "count",
    "explored": "count",
    "per_cycle": "ratio",
    "budget_exhausted_frac": "fraction",
}


def layer_key(module: str, path: str) -> str:
    return f"{module}.{path.replace('__post_init__', 'post_init')}"


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {}
    for module, path, _mode, stats in LAYERS:
        for stat in stats:
            out[f"{layer_key(module, path)}.{stat}"] = UNITS[stat]
    for kernel in KERNELS:
        out[f"kernels.reference.{kernel}.points_per_s"] = UNITS["points_per_s"]
    out["trace.overhead_frac"] = "fraction"
    return out


# -- work counters computed from arguments and results ---------------------


def _compose_points(f, g):
    return {"points": len(f.images) + len(g.images)}


def affine_work(start, rows, weights, tie_mask=0):
    """Gray-code points and cell flips of one ``min_affine_weight`` scan."""
    r = len(rows)
    flips = sum(row.bit_count() << (r - 1 - j) for j, row in enumerate(rows))
    return 1 << r, flips


def ratio_work(u_rows, u_img_rows, z_rows, weights_lo, weights_hi):
    """Gray-code points and cell flips of one ``min_ratio_scan`` scan."""
    nu, nz = len(u_rows), len(z_rows)
    outer = (1 << nu) - 1
    outer_flips = sum(
        (u.bit_count() + ui.bit_count()) << (nu - 1 - j)
        for j, (u, ui) in enumerate(zip(u_rows, u_img_rows))
    )
    inner_flips = 0
    if nz:
        inner_flips = sum(z.bit_count() << (nz - 1 - j) for j, z in enumerate(z_rows))
        inner_flips += z_rows[-1].bit_count()
    return outer << nz, outer_flips + outer * inner_flips


WORK = {"min_affine_weight": affine_work, "min_ratio_scan": ratio_work}


def _kernel_work(kernel):
    work = WORK[kernel]

    def on_call(*args, **kwargs):
        points, flips = work(*args, **kwargs)
        return {"points": points, "flips": flips}

    return on_call


# counters computed from a call's arguments; a call they cannot read marks
# them absent
ON_CALL = {
    "perms.compose": (_compose_points, ("points",)),
    "kernels.min_affine_weight": (_kernel_work("min_affine_weight"), ("points", "flips")),
    "kernels.min_ratio_scan": (_kernel_work("min_ratio_scan"), ("points", "flips")),
}
# counter -> result field it sums
ON_RESULT = {
    "symcochains.good_function_check": {
        "cycles": "cycles_enumerated",
        "budget_exhausted": "budget_exhausted",
    },
    "symcochains.is_contractible": {"explored": "explored"},
}


class Tracer:
    """Span recorder plus the patches that feed it.

    ``install`` wraps the listed functions; ``uninstall`` restores every
    binding it replaced.  Recording happens only while ``active`` is true, so
    output checks can run between items without being traced.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_item = -1
        self.active = False
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()  # layer keys and counters the program lacks
        self.kernel_calls: list[tuple] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, item: int):
        """Context manager for a root span the runner opens (one item, set-up)."""
        return _RootSpan(self, self._intern(name), item)

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _span_wrapper(self, fn, key):
        tr = self
        nid = self._intern(key)
        on_call, call_stats = ON_CALL.get(key, (None, ()))
        on_result = ON_RESULT.get(key)
        kernel = key[len("kernels."):] if key.startswith("kernels.") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            points = None
            if on_call is not None:
                try:
                    counts = on_call(*args, **kwargs)
                except (AttributeError, TypeError, ValueError):
                    tr.absent.update(f"{key}.{stat}" for stat in call_stats)
                else:
                    points = counts["points"]
                    for stat, n in counts.items():
                        tr._count(f"{key}.{stat}", n)
            idx = tr._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if on_result is not None:
                for stat, field in on_result.items():
                    value = getattr(result, field, None)
                    if value is None:
                        tr.absent.add(f"{key}.{stat}")
                    else:
                        tr._count(f"{key}.{stat}", int(value))
            if kernel is not None:
                tr.kernel_calls.append((kernel, args, kwargs, result, points))
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        tr = self
        calls_key = f"{key}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.active:
                tr.counts[calls_key] = tr.counts.get(calls_key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that the program still has."""
        for module, path, mode, _stats in self.layers:
            key = layer_key(module, path)
            try:
                mod = importlib.import_module(f"permstab.{module}")
            except ImportError:
                self.absent.add(key)
                continue
            make = self._span_wrapper if mode == SPAN else self._count_wrapper
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                cls = getattr(mod, owner_name, None)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if raw is None:
                    self.absent.add(key)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(make(raw.__func__, key))
                else:
                    wrapped = make(raw, key)
                setattr(cls, attr, wrapped)
                self._patches.append((cls, attr, raw))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.absent.add(key)
                continue
            wrapped = make(original, key)
            for holder in _program_modules():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapped)
                        self._patches.append((holder, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis --------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self, durations=None):
        """Each span's duration minus the time its child spans cover."""
        dur = durations if durations is not None else self.durations()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, total time (outermost spans of a name only) and self time."""
        dur = self.durations()
        self_t = self.self_times(dur)
        out: dict[str, dict[str, float]] = {}
        name, parent = self.name, self.parent
        for i, nid in enumerate(name):
            rec = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += self_t[i]
            p = parent[i]
            while p >= 0 and name[p] != nid:
                p = parent[p]
            if p < 0:
                rec["s"] += dur[i]
        return out

    def layer_metrics(self) -> dict[str, float | None]:
        """Value of every per-layer metric in ``LAYERS``; None marks absent."""
        spans = self.per_name()
        values: dict[str, float | None] = {}
        for module, path, _mode, stats in self.layers:
            key = layer_key(module, path)
            rec = spans.get(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for stat in stats:
                metric = f"{key}.{stat}"
                sources = {key, metric}
                if stat == "budget_exhausted_frac":
                    sources.add(f"{key}.budget_exhausted")
                elif stat == "per_cycle":
                    sources.add("symcochains.good_function_check.cycles")
                elif stat == "points_per_s":
                    sources.add(f"{key}.points")
                if sources & self.absent:
                    values[metric] = None
                elif stat in ("s", "self_s"):
                    values[metric] = rec[stat]
                elif stat == "calls":
                    values[metric] = rec["calls"] or self.counts.get(metric, 0)
                elif stat == "points_per_s":
                    points = self.counts.get(f"{key}.points", 0)
                    values[metric] = points / rec["s"] if rec["s"] > 0 else 0.0
                elif stat == "per_cycle":
                    cycles = self.counts.get("symcochains.good_function_check.cycles", 0)
                    values[metric] = rec["calls"] / cycles if cycles else 0.0
                elif stat == "budget_exhausted_frac":
                    exhausted = self.counts.get(f"{key}.budget_exhausted", 0)
                    values[metric] = exhausted / rec["calls"] if rec["calls"] else 0.0
                else:
                    values[metric] = self.counts.get(metric, 0)
        return values

    def check_nesting(self) -> list[str]:
        return check_nesting(self.parent, self.item, self.start, self.end)

    def write(self, path, extra: dict) -> None:
        """Write the spans, column-wise, with ``extra`` run information."""
        t0 = min(self.start, default=0.0)
        doc = dict(extra)
        doc["spans"] = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "item": list(self.item),
            "start_us": [round((s - t0) * 1e6, 3) for s in self.start],
            "end_us": [round((e - t0) * 1e6, 3) for e in self.end],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


class _RootSpan:
    def __init__(self, tracer: Tracer, nid: int, item: int):
        self.tracer, self.nid, self.item = tracer, nid, item

    def __enter__(self):
        tr = self.tracer
        tr.current_item = self.item
        self.idx = tr._open(self.nid)
        self.t0 = perf_counter()
        tr.active = True
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.active = False
        t1 = perf_counter()
        tr._stack.pop()
        tr.start[self.idx] = self.t0
        tr.end[self.idx] = t1
        return False


def check_nesting(parent, item, start, end, tol: float = 1e-9) -> list[str]:
    """Problems with span nesting; an empty list means the spans are sound.

    Every span lies inside its parent and has its parent's item id, its
    children's durations sum to no more than its own, so that self times
    are non-negative.
    """
    problems = []
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if dur[i] < 0:
            problems.append(f"span {i} ends before it starts")
        if p >= 0:
            child[p] += dur[i]
            if start[i] < start[p] - tol or end[i] > end[p] + tol:
                problems.append(f"span {i} lies outside its parent {p}")
            if item[i] != item[p]:
                problems.append(f"span {i} has another item than its parent {p}")
    for i, (d, c) in enumerate(zip(dur, child)):
        if c > d + tol:
            problems.append(f"children of span {i} sum to more than the span")
    return problems


def _program_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "permstab" or name.startswith("permstab."))
    ]


def replay_kernels(calls, implementations) -> dict:
    """Re-run captured kernel calls through each implementation.

    ``implementations`` maps a label to a module with the kernel functions.
    Returns per label and kernel the points scanned (as counted when the
    call was captured), the seconds taken and the number of results that
    differ from the captured ones.
    """
    out: dict = {}
    for label, impl in implementations.items():
        for kernel, args, kwargs, expected, points in calls:
            fn = getattr(impl, kernel)
            t0 = perf_counter()
            got = fn(*args, **kwargs)
            dt = perf_counter() - t0
            rec = out.setdefault(label, {}).setdefault(
                kernel, {"calls": 0, "points": 0, "s": 0.0, "mismatches": 0}
            )
            rec["calls"] += 1
            rec["points"] += points or 0
            rec["s"] += dt
            rec["mismatches"] += int(tuple(got) != tuple(expected))
    return out
