"""Closed-loop benchmark of permstab: one process, one caller, items back to back.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  The timed
figures are given at a fixed reference speed of the host: a probe (a fixed
pure-Python loop, ``probe``) runs just before and just after every item and
every set-up, and the wall time in between is scaled by ``PROBE_REFERENCE_S``
over the mean of the two probe times.  A shared host speeds up and slows down
by a third from one second to the next, for the program and the probe alike;
the scaling takes that drift out, while a change in the program's own cost
shows in full.  The wall-clock figures are printed as well.  The timed
figures cover whole rotations of the workload's item kinds; every item is
checked.  ``--trace 1``
alternates each item untraced with a fresh copy of it under the outside-in
tracer (``tracer.py``) until the untraced items have taken half of
``--seconds``, replays every captured kernel call through the pure-Python
kernels (and the compiled ones when they import), and reports the per-layer
metrics.  Spans go to ``perfbench-out/``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench-out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 9
CHUNK = 32  # inputs generated and parsed per pool chunk; the first chunk is set-up
TRACED_SHARE = 0.5  # untraced item time of a traced run, as a share of --seconds
PROBE_ROUNDS = 27_000
PROBE_REFERENCE_S = 0.010  # probe time at the reference speed (about the median on a 2-vCPU x86-64 VM)


def probe() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs Python now.

    The loop mixes what the program does most (list indexing, integer bit
    operations, dict reads and writes) and imports nothing from it.
    """
    t0 = time.perf_counter()
    row = list(range(64))
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ROUNDS):
        k = row[i & 63] ^ (i >> 2)
        table[k & 1023] = table.get(k & 1023, 0) + 1
        acc += k & 7
    return time.perf_counter() - t0


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` of wall time converted to the reference speed."""
    return seconds * 2 * PROBE_REFERENCE_S / (probe_before + probe_after)


class Pool:
    """Parsed inputs by item index, generated one chunk at a time.

    The first chunk is made in set-up.  Later chunks are made when a run gets
    that far; the runner keeps that time out of every timed figure.
    """

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.inputs: list = []

    def fill(self) -> None:
        start = len(self.inputs)
        raws = [self.workload.generate(self.seed, i) for i in range(start, start + CHUNK)]
        self.inputs.extend(self.workload.parse(raw) for raw in raws)

    def get(self, i: int):
        while i >= len(self.inputs):
            self.fill()
        return self.inputs[i]


def import_seconds(modules) -> tuple[float, float, float]:
    """Import time of the program's modules in a fresh interpreter.

    Returns it with the probe times just before and just after it, taken in
    that interpreter after one probe to warm it up.
    """
    code = (
        "import time; from run import probe; probe(); p0 = probe(); t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in modules)
        + "; dt = time.perf_counter() - t; print(dt, p0, probe())"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    seconds, before, after = map(float, proc.stdout.strip().splitlines()[-1].split())
    return seconds, before, after


def setup_seconds(workload, seed: int, repeats: int):
    """Set-up times (fresh import + generate and parse the first chunk), and the last pool.

    Each time is given twice: as measured, and scaled to the reference speed.
    """
    walls, scaled = [], []
    pool = None
    for _ in range(repeats):
        pool = None  # let the previous pool go before building the next
        t_import, *import_probes = import_seconds(workload.modules)
        before = probe()
        t0 = time.perf_counter()
        pool = Pool(workload, seed)
        pool.fill()
        t_fill = time.perf_counter() - t0
        walls.append(t_import + t_fill)
        scaled.append(scale(t_import, *import_probes) + scale(t_fill, before, probe()))
    return walls, scaled, pool


class Run:
    """One sequence of items, run back to back: latencies, outputs, problems.

    Output checks run after an item's clock stops.  Outputs past the digest
    prefix are dropped unless the closing step needs them, so the heap (and
    the collector's work) stays flat over a run.  With ``probed``, each
    item's latency is also scaled to the reference speed (``scaled``) by the
    probes that bracket it; the probe after one item is the probe before
    the next.
    """

    def __init__(self, workload, pool: Pool, probed: bool = False):
        self.workload, self.pool = workload, pool
        self.probed = probed
        self.last_probe = None
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.outputs: list = []
        self.problems: list[str | None] = []
        self.busy = 0.0
        self.final = None

    def step(self, tracer=None) -> None:
        w, i = self.workload, len(self.latencies)
        if i >= len(self.pool.inputs):
            self.last_probe = None  # a chunk is made first: probe after it
        inp = self.pool.get(i)
        if self.probed and self.last_probe is None:
            self.last_probe = probe()
        t0 = time.perf_counter()
        try:
            with tracer.span("item", i) if tracer else contextlib.nullcontext():
                out = w.run(inp)
            err = None
        except Exception as exc:  # a failed item counts in `failed`; the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.busy += dt
        self.latencies.append(dt)
        if self.probed:
            before, self.last_probe = self.last_probe, probe()
            self.scaled.append(scale(dt, before, self.last_probe))
        self.problems.append(err or w.check(inp, out))
        self.outputs.append(out if w.keeps_outputs or i < w.digest_items else None)

    def finish(self, tracer=None) -> None:
        t0 = time.perf_counter()
        with tracer.span("finish", -1) if tracer else contextlib.nullcontext():
            self.final = self.workload.finish([o for o in self.outputs if o is not None])
        self.busy += time.perf_counter() - t0

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)

    def found(self, seed: int) -> list[str]:
        """Every problem: failed items and a mismatch with the pinned digest."""
        w = self.workload
        found = [p for p in self.problems if p]
        k = w.digest_items
        if seed == DEFAULT_SEED and len(self.outputs) >= k and not any(self.problems[:k]):
            pinned = json.loads(GOLDEN.read_text())[w.name]
            got = w.digest([self.pool.get(i) for i in range(k)], self.outputs[:k])
            if got != pinned:
                found.append(f"digest of the first {k} items is {got}, pinned {pinned}")
        return found


def nearest_rank(n: int, q: int) -> int:
    """1-based rank of the nearest-rank ``q``-th percentile of ``n`` samples."""
    return max(1, -(-n * q // 100))


def percentile(values, q: int) -> float:
    return sorted(values)[nearest_rank(len(values), q) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def whole_rotations(workload, n: int) -> int:
    """How many leading items of ``n`` end on a whole rotation of item kinds.

    All ``n`` when not even one rotation is complete.
    """
    k = workload.lead + (n - workload.lead) // workload.period * workload.period
    return k if k > workload.lead else n


def timed_figures(setups, latencies) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_p90_ms": percentile(latencies, 90) * 1e3,
    }


def timed_run(workload, seed: int, seconds: float) -> dict:
    walls, scaled, pool = setup_seconds(workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    run = Run(workload, pool, probed=True)
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        run.step()
    run.finish()
    found = run.found(seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the other half of the set-ups comes after the items, so that the median
    # spans the run rather than one stretch of the machine's speed
    more_walls, more_scaled, _ = setup_seconds(workload, seed, SETUP_REPEATS // 2)
    walls += more_walls
    scaled += more_scaled
    n = len(run.latencies)
    # every item is checked, but the timed figures cover whole rotations only
    k = whole_rotations(workload, n)
    units = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms"}
    wall = timed_figures(walls, run.latencies[:k])
    metrics = {name: metric(v, units[name]) for name, v in timed_figures(scaled, run.scaled[:k]).items()}
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MiB")
    print(
        f"{workload.name}: {n} items, {run.failed} failed (failed_frac {run.failed / n:.4f}); "
        f"the first {k} timed, {k - nearest_rank(k, 90)} beyond p90; "
        f"host at {run.busy / sum(run.scaled):.3f}x the reference time"
    )
    for name, m in metrics.items():
        measured = f" (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{measured}")
    for p in found[:10]:
        print(f"  problem: {p}")
    return {"correct": not found, "attempted": n, "failed": run.failed, "metrics": metrics}


def environment(kernels_mod, fast: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout is usually not a git repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "permstab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_implementation": kernels_mod.IMPLEMENTATION,
        "fast_imports": fast,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def traced_run(workload, seed: int, seconds: float) -> dict:
    import permstab.kernels as kernels_mod
    import tracer as tracing

    loadavg = os.getloadavg()
    implementations = {"reference": kernels_mod.reference}
    try:
        from permstab.kernels import _fast

        implementations["compiled"] = _fast
    except ImportError:
        pass
    env = dict(environment(kernels_mod, "compiled" in implementations), loadavg_at_start=loadavg)

    # Untraced and traced items alternate, each traced item a fresh copy of
    # the untraced one before it, so drift in the machine's speed cancels
    # out of the overhead.  The wrappers are installed only around traced
    # work, so untraced items run the bare program.
    plain = Run(workload, Pool(workload, seed))
    traced = Run(workload, Pool(workload, seed))
    tr = tracing.Tracer()
    with tr.installed(), tr.span("setup", -1):
        traced.pool.fill()
    while plain.busy < seconds * TRACED_SHARE:
        plain.step()
        with tr.installed():
            traced.step(tr)
    plain.finish()
    with tr.installed():
        traced.finish(tr)
    n = len(traced.latencies)

    found = traced.found(seed) + [f"untraced: {p}" for p in plain.found(seed)]
    if workload.keeps_outputs and traced.final != plain.final:
        found.append("tracing changed the output of the closing step")
    nesting = tr.check_nesting()
    if nesting:
        found.append(f"{len(nesting)} span nesting problems, first: {nesting[0]}")

    replay = tracing.replay_kernels(tr.kernel_calls, implementations)
    for label, per_kernel in replay.items():
        for kernel, rec in per_kernel.items():
            if rec["mismatches"]:
                found.append(f"{label} {kernel} disagrees on {rec['mismatches']} replayed calls")

    values = tr.layer_metrics()
    for kernel in tracing.KERNELS:
        for label in ("reference", "compiled"):
            rec = replay.get(label, {}).get(kernel)
            name = f"kernels.{label}.{kernel}.points_per_s"
            if label not in implementations:
                values[name] = None
            else:
                values[name] = rec["points"] / rec["s"] if rec and rec["s"] > 0 else 0.0
    values["trace.overhead_frac"] = traced.busy / plain.busy - 1

    units = tracing.layer_metric_units()
    absent = sorted(name for name, v in values.items() if v is None)
    report = {
        "workload": workload.name,
        "seed": seed,
        "items": n,
        "environment": env,
        "replay": replay,
        "absent": absent,
        "metrics": values,
    }
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json.gz"
    tr.write(trace_path, report)
    print(json.dumps({"report": {k: v for k, v in report.items() if k != "metrics"}}))
    print(f"{workload.name}: {n} items traced, spans in {trace_path.relative_to(ROOT)}")

    metrics = {}
    for name, unit in units.items():
        value = values[name]
        metrics[name] = metric(value, unit) if value is not None else dict(metric(None, unit), absent=True)
    for p in found[:10]:
        print(f"  problem: {p}")
    return {"correct": not found, "attempted": n, "failed": traced.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permstab" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'permstab'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = traced_run if args.trace else timed_run
    result = run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
