"""Hot enumeration kernels.

The compiled extension is used when it was built; otherwise the pure-Python
reference implementation is selected at import.  ``IMPLEMENTATION`` records
which one is active.  ``python3 perfbench/run.py --workload exact --trace 1``
replays every kernel call of the exact workload through ``reference`` (and
through ``_fast`` when it imports), asserts equal results and reports the
points scanned per second for each.
"""

from . import reference

try:
    from . import _fast

    IMPLEMENTATION = "compiled"
    min_affine_weight = _fast.min_affine_weight
    min_ratio_scan = _fast.min_ratio_scan
except ImportError:
    IMPLEMENTATION = "python"
    min_affine_weight = reference.min_affine_weight
    min_ratio_scan = reference.min_ratio_scan

__all__ = ["IMPLEMENTATION", "min_affine_weight", "min_ratio_scan", "reference"]
