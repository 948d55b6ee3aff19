"""Hot enumeration kernels.

The Gray-code scans behind the exact cohomology searches, in pure Python.
``IMPLEMENTATION`` names the active implementation.  ``reference`` is the
oracle: ``python3 perfbench/run.py --workload exact --trace 1`` replays every
kernel call of the exact workload through it, asserts equal results and
reports the points scanned per second.
"""

from . import reference

IMPLEMENTATION = "python"
min_affine_weight = reference.min_affine_weight
min_ratio_scan = reference.min_ratio_scan

__all__ = ["IMPLEMENTATION", "min_affine_weight", "min_ratio_scan", "reference"]
