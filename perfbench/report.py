"""Print every end-to-end metric of every workload, by name and with its unit.

Run from the root of a checkout:

    python3 perfbench/report.py [--seed 0]

Each workload runs in a fresh process through ``run.py`` with tracing off,
for the ``run_seconds`` of ``BENCHMARK.json``; its timed figures are at the
reference speed of the host that ``run.py`` describes.
Besides the metrics of ``BENCHMARK.json`` the table shows ``failed_frac``,
the share of attempted items that raised or failed their output check; the
result line carries it as ``failed`` out of ``attempted``.  Exits non-zero
when any workload reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct = all_correct and result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"  {name:12s} {m['value']:12.6g} {m['unit']}")
        print(f"  {'failed_frac':12s} {result['failed'] / result['attempted']:12.6g} fraction")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
