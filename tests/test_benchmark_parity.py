"""The benchmark's own outputs: each workload's pinned digest, and its check on items of other seeds.

``perfbench/workloads.py`` and ``perfbench/golden.json`` are read as they are,
so a change that moves what the benchmark measures fails here first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_prefix_matches_golden(name):
    w = WORKLOADS[name]
    inputs = [w.parse(w.generate(0, i)) for i in range(w.digest_items)]
    outputs = [w.run(inp) for inp in inputs]
    assert [w.check(inp, out) for inp, out in zip(inputs, outputs)] == [None] * w.digest_items
    assert w.digest(inputs, outputs) == GOLDEN[name]


@pytest.mark.parametrize("name", ["audit", "sweep"])
@pytest.mark.parametrize("seed", range(1, 9))
def test_first_item_passes_the_workload_check(name, seed):
    w = WORKLOADS[name]
    inp = w.parse(w.generate(seed, 0))
    assert w.check(inp, w.run(inp)) is None
