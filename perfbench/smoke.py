"""Smoke test of the benchmark itself, at minimal size.

Run from the root of a checkout (takes about half a minute):

    python3 perfbench/smoke.py

It runs every workload briefly with tracing off and on, and checks:

* the result line has exactly the keys ``correct``, ``attempted``, ``failed``
  and ``metrics``, is correct, and names every metric of ``BENCHMARK.json``
  with its unit (end-to-end untraced, per-layer traced); every layer the
  tracer wraps exists in the program, so no metric may be absent;
* the first items of the default seed were compared with the pinned digests;
* the written spans nest, children sum to no more than their parent and
  self times are non-negative; the traced run itself checks that tracing
  leaves the ``sweep`` CSV byte-identical and that the kernel replay agrees;
* a name the program lacks is reported as absent, and uninstalling the
  tracer restores every binding;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "3"
sys.path[:0] = [str(HERE), str(ROOT / "src")]
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(bench.DEFAULT_SEED)]
    cmd += ["--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics(result: dict, spec_metrics) -> None:
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = result["metrics"]
    assert set(got) == set(expected), set(got) ^ set(expected)
    for name, unit in expected.items():
        assert got[name]["unit"] == unit, (name, got[name])
        value = got[name]["value"]
        assert "absent" not in got[name], f"{name} is absent"
        assert isinstance(value, (int, float)), (name, value)


def check_spans(workload: str) -> None:
    with gzip.open(bench.OUT_DIR / f"trace-{workload}-seed{bench.DEFAULT_SEED}.json.gz", "rt") as fh:
        spans = json.load(fh)["spans"]
    assert spans["name"], f"{workload}: no spans written"
    problems = tracer.check_nesting(spans["parent"], spans["item"], spans["start_us"], spans["end_us"], tol=1e-3)
    assert not problems, problems[:5]


def check_absent_and_restore() -> None:
    import permstab.actions as actions
    import permstab.perms as perms

    original = perms.compose
    extra = (("perms", "no_such_function", tracer.SPAN, ("calls", "s")),)
    tr = tracer.Tracer(tracer.LAYERS + extra)
    tr.install()
    assert actions.compose is not original and perms.compose is not original
    ident = perms.ErrPerm.identity(3)
    with tr.span("item", 0):
        actions.compose(ident, ident)
    tr.uninstall()
    assert actions.compose is original and perms.compose is original
    values = tr.layer_metrics()
    assert values["perms.compose.calls"] == 1 and values["perms.compose.points"] == 6
    assert values["perms.ErrPerm.post_init.calls"] == 1
    assert values["perms.no_such_function.calls"] is None
    assert values["perms.no_such_function.s"] is None


def check_bare_directory() -> None:
    bare = bench.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = run_bench("sweep", 0, cwd=bare)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        result = result_of(run_bench(workload, 0))
        check_metrics(result, SPEC["end_to_end"])
        digest_items = workloads.WORKLOADS[workload].digest_items
        assert result["attempted"] >= digest_items, f"{workload}: too few items to check the digest"
        print(f"{workload}: untraced ok, {result['attempted']} items")

        result = result_of(run_bench(workload, 1))
        check_metrics(result, SPEC["per_layer"])
        check_spans(workload)
        print(f"{workload}: traced ok, {result['attempted']} items")
    check_absent_and_restore()
    check_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
