"""Pure-Python Gray-code scan kernels.

Each scan visits every point once, in Gray-code order, with incremental
weight updates.  They are the package's only kernels and its oracle: the
tests and ``perfbench/run.py --workload exact --trace 1`` check kernel calls
against them.
"""

from __future__ import annotations


def _lex_less(a: int, b: int) -> bool:
    """Bit-string order, bit 0 read first: smaller has 0 at the lowest differing bit."""
    d = a ^ b
    if d == 0:
        return False
    return a & (d & -d) == 0


def min_affine_weight(start, rows, weights, tie_mask=0):
    """Minimum total cell weight over the affine space ``start + span(rows)``.

    Patterns are int bitsets over cells; ``weights[i]`` is the integer weight
    of bit ``i``.  Enumerates all ``2**len(rows)`` points by Gray code with
    incremental weight updates.  Ties are broken by the lexicographically
    smallest ``pattern ^ tie_mask``.  Returns ``(weight, pattern)``.
    """
    cells_per_row = [[i for i in range(len(weights)) if (r >> i) & 1] for r in rows]
    cur = start
    w = sum(weights[i] for i in range(len(weights)) if (start >> i) & 1)
    best_w, best = w, cur
    for t in range(1, 1 << len(rows)):
        idx = (t & -t).bit_length() - 1
        for c in cells_per_row[idx]:
            bit = 1 << c
            cur ^= bit
            w += weights[c] if cur & bit else -weights[c]
        if w < best_w or (w == best_w and _lex_less(cur ^ tie_mask, best ^ tie_mask)):
            best_w, best = w, cur
    return best_w, best


def min_ratio_scan(u_rows, u_img_rows, z_rows, weights_lo, weights_hi):
    """Minimum of (image weight / coset minimum weight) over nonzero cosets.

    The domain splits as span(u_rows) + span(z_rows) with z spanning the
    kernel of the image map; ``u_img_rows[j]`` is the image of ``u_rows[j]``.
    For every nonzero combination of the u rows the inner scan finds the
    minimum ``weights_lo`` weight over its coset, and the outer scan tracks
    the image pattern and ``weights_hi`` weight.  Returns the integer pair
    ``(image_weight, coset_min_weight)`` of the minimizing ratio; among equal
    ratios the first coset in Gray-code order wins.
    """
    nu, nz = len(u_rows), len(z_rows)
    if nu == 0:
        raise ValueError("no nonzero cosets to scan")
    u_cells = [[i for i in range(len(weights_lo)) if (r >> i) & 1] for r in u_rows]
    ui_cells = [[i for i in range(len(weights_hi)) if (r >> i) & 1] for r in u_img_rows]
    z_cells = [[i for i in range(len(weights_lo)) if (r >> i) & 1] for r in z_rows]

    cur_lo = 0
    w_lo = 0
    cur_hi = 0
    w_hi = 0
    best_num = best_den = None

    def flip_lo(cells):
        nonlocal cur_lo, w_lo
        for c in cells:
            bit = 1 << c
            cur_lo ^= bit
            w_lo += weights_lo[c] if cur_lo & bit else -weights_lo[c]

    for t in range(1, 1 << nu):
        j = (t & -t).bit_length() - 1
        flip_lo(u_cells[j])
        for c in ui_cells[j]:
            bit = 1 << c
            cur_hi ^= bit
            w_hi += weights_hi[c] if cur_hi & bit else -weights_hi[c]
        min_w = w_lo
        if nz:
            for s in range(1, 1 << nz):
                flip_lo(z_cells[(s & -s).bit_length() - 1])
                if w_lo < min_w:
                    min_w = w_lo
            flip_lo(z_cells[nz - 1])  # a full Gray walk ends one top-row flip away
        if best_num is None or w_hi * best_den < best_num * min_w:
            best_num, best_den = w_hi, min_w
    return best_num, best_den
