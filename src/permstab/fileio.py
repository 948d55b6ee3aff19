"""Line-based text formats for complexes, cochains, permutations and actions.

Formats (leading/trailing blanks and ``#`` comment lines are ignored):

* complex: ``dim d`` header, then one maximal face per line as
  space-separated vertex indices.
* cochain: ``dim k`` header, then one supported cell per line.
* permutation: one ``i -> j`` line per point; an optional ``size m`` header
  fixes the underlying-set cardinality.
* action: optional ``space m`` header, then ``generator NAME`` headers each
  followed by that generator's permutation block.
* presentation: ``gen NAME`` lines, ``pair A B`` lines for formal inverse
  pairs, and ``rel w1 w2 ...`` lines where a letter is ``NAME`` or ``NAME^-1``.
* sym cochain: ``sym degree=i n=N`` header, an inline ``complex`` section,
  then ``cell v0 v1 ...`` headers each followed by exactly one ``idx -> img``
  or ``idx -> undef`` line for every index in ``range(N)``.

A malformed line or header raises ``FormatError`` with its line number.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

from .actions import AlmostAction
from .cohomology import F2Cochain, cochain_from_support
from .complexes import Presentation, SimplicialComplex, Word
from .covers import Covering
from .errors import FormatError
from .perms import ErrPerm
from .symcochains import PartialInj, SymCochain


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _header_int(line: str, lineno: int) -> int:
    """The integer after a header keyword, as in ``dim d`` or ``size m``."""
    try:
        return int(line.split()[1])
    except ValueError:
        raise FormatError(f"bad header {line!r}", lineno) from None


def _map_line(line: str, lineno: int) -> tuple[int, int]:
    try:
        lhs, rhs = line.split("->")
        return int(lhs), int(rhs)
    except ValueError:
        raise FormatError("expected 'i -> j'", lineno) from None


def dump_complex(x: SimplicialComplex) -> str:
    out = [f"dim {x.dim}"]
    for face in x.facets():
        out.append(" ".join(str(v) for v in face))
    return "\n".join(out) + "\n"


def load_complex(text: str) -> SimplicialComplex:
    lines = list(_lines(text))
    if not lines or not lines[0][1].startswith("dim "):
        raise FormatError("expected a 'dim d' header", lines[0][0] if lines else 1)
    dim = _header_int(lines[0][1], lines[0][0])
    faces = []
    for lineno, line in lines[1:]:
        try:
            faces.append(tuple(int(t) for t in line.split()))
        except ValueError:
            raise FormatError("bad face line", lineno) from None
    if not faces:
        raise FormatError("no faces", lines[0][0])
    x = SimplicialComplex.from_cells(faces)
    if x.dim != dim:
        raise FormatError(f"header says dim {dim} but the faces give dim {x.dim}")
    return x


def dump_cochain(alpha: F2Cochain) -> str:
    out = [f"dim {alpha.degree}"]
    for cell in alpha.support():
        out.append(" ".join(str(v) for v in cell))
    return "\n".join(out) + "\n"


def load_cochain(text: str, x: SimplicialComplex) -> F2Cochain:
    lines = list(_lines(text))
    if not lines or not lines[0][1].startswith("dim "):
        raise FormatError("expected a 'dim k' header", lines[0][0] if lines else 1)
    k = _header_int(lines[0][1], lines[0][0])
    cells = []
    for lineno, line in lines[1:]:
        try:
            cells.append(tuple(int(t) for t in line.split()))
        except ValueError:
            raise FormatError("bad cell line", lineno) from None
    return cochain_from_support(x, k, cells)


def dump_perm(perm: ErrPerm) -> str:
    out = [f"size {perm.size}"]
    for x, y in zip(perm.domain, perm.images):
        out.append(f"{x} -> {y}")
    return "\n".join(out) + "\n"


def _parse_perm_lines(pairs, size, lineno):
    mapping = {}
    for x, y in pairs:
        if x in mapping:
            raise FormatError(f"point {x} mapped twice", lineno)
        mapping[x] = y
    return ErrPerm.from_mapping(mapping, size)


def load_perm(text: str) -> ErrPerm:
    size = None
    pairs = []
    last = 1
    for lineno, line in _lines(text):
        last = lineno
        if line.startswith("size "):
            size = _header_int(line, lineno)
        else:
            pairs.append(_map_line(line, lineno))
    return _parse_perm_lines(pairs, size, last)


def dump_action(action: AlmostAction) -> str:
    out = [f"space {action.space}"]
    for g in action.generators:
        out.append(f"generator {g}")
        perm = action.image(g)
        for x, y in zip(perm.domain, perm.images):
            out.append(f"{x} -> {y}")
    return "\n".join(out) + "\n"


def load_action(text: str, presentation: Presentation) -> AlmostAction:
    space = None
    images: dict[str, ErrPerm] = {}
    current: str | None = None
    pairs: list[tuple[int, int]] = []

    def flush(lineno):
        if current is not None:
            images[current] = _parse_perm_lines(pairs, space, lineno)

    for lineno, line in _lines(text):
        if line.startswith("space "):
            space = _header_int(line, lineno)
        elif line.startswith("generator "):
            flush(lineno)
            current = line.split(None, 1)[1]
            pairs = []
        else:
            pairs.append(_map_line(line, lineno))
    flush(0)
    if space is None:
        space = max((p.size for p in images.values()), default=0)
    images = {
        g: ErrPerm(space, p.domain, p.images) if p.size != space else p
        for g, p in images.items()
    }
    return AlmostAction(presentation, space, images)


def dump_presentation(p: Presentation) -> str:
    out = [f"gen {g}" for g in p.generators]
    for a, b in p.inverse_pairs:
        out.append(f"pair {a} {b}")
    for rel in p.relations:
        letters = [g if e > 0 else f"{g}^-1" for g, e in rel]
        out.append("rel " + " ".join(letters))
    return "\n".join(out) + "\n"


def load_presentation(text: str) -> Presentation:
    gens: list[str] = []
    pairs: list[tuple[str, str]] = []
    rels: list[Word] = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "gen" and len(parts) == 2:
            gens.append(parts[1])
        elif parts[0] == "pair" and len(parts) == 3:
            pairs.append((parts[1], parts[2]))
        elif parts[0] == "rel":
            word = []
            for tok in parts[1:]:
                if tok.endswith("^-1"):
                    word.append((tok[:-3], -1))
                else:
                    word.append((tok, 1))
            rels.append(tuple(word))
        else:
            raise FormatError(f"unrecognized line {line!r}", lineno)
    return Presentation(tuple(gens), tuple(rels), tuple(pairs))


def dump_sym_cochain(f: SymCochain) -> str:
    out = [f"sym degree={f.degree} n={f.n}", "complex"]
    out.append(dump_complex(f.complex).rstrip("\n"))
    out.append("endcomplex")
    for cell in f.complex.cells(f.degree):
        out.append("cell " + " ".join(str(v) for v in cell))
        val = f.values[cell]
        for i in range(f.n):
            img = val.images[i]
            out.append(f"{i} -> {'undef' if img is None else img}")
    return "\n".join(out) + "\n"


def load_sym_cochain(text: str) -> SymCochain:
    lines = list(_lines(text))
    if not lines or not lines[0][1].startswith("sym "):
        raise FormatError("expected a 'sym degree=i n=N' header", 1)
    try:
        head = dict(tok.split("=") for tok in lines[0][1].split()[1:])
        degree, n = int(head["degree"]), int(head["n"])
    except (KeyError, ValueError):
        raise FormatError("expected a 'sym degree=i n=N' header", lines[0][0]) from None
    idx = 1
    if idx >= len(lines) or lines[idx][1] != "complex":
        raise FormatError("expected an inline complex section", lines[min(idx, len(lines) - 1)][0])
    idx += 1
    complex_lines = []
    while idx < len(lines) and lines[idx][1] != "endcomplex":
        complex_lines.append(lines[idx][1])
        idx += 1
    x = load_complex("\n".join(complex_lines))
    idx += 1
    values = {}
    current = None
    table: dict[int, int | None] = {}

    def flush(lineno):
        if current is not None:
            if len(table) != n:
                raise FormatError(f"cell block needs {n} index lines", lineno)
            values[current] = PartialInj(n, tuple(table[i] for i in range(n)))

    for lineno, line in lines[idx:]:
        if line.startswith("cell "):
            flush(lineno)
            try:
                current = tuple(int(t) for t in line.split()[1:])
            except ValueError:
                raise FormatError("bad cell line", lineno) from None
            if current in values:
                raise FormatError(f"cell {current} given twice", lineno)
            table = {}
            continue
        try:
            lhs, rhs = line.split("->")
            i = int(lhs)
            img = None if rhs.strip() == "undef" else int(rhs)
        except ValueError:
            raise FormatError("expected 'idx -> img|undef'", lineno) from None
        if current is None:
            raise FormatError("index line before any 'cell' header", lineno)
        if not 0 <= i < n:
            raise FormatError(f"index {i} outside range({n})", lineno)
        if i in table:
            raise FormatError(f"index {i} given twice", lineno)
        table[i] = img
    flush(0)
    return SymCochain(x, degree, n, values)


def dump_cover(cov: Covering) -> str:
    out = [f"dim {cov.total.dim}", f"fiber {cov.fiber_size}"]
    for vid, (x, star) in sorted(cov.vertex_pair.items()):
        out.append(f"vertex {vid} {x} {star}")
    for face in cov.total.facets():
        out.append("face " + " ".join(str(v) for v in face))
    return "\n".join(out) + "\n"


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def format_decimal(q: Fraction) -> str:
    """Decimal twin of an exact column; never used in a bound check."""
    return format(float(q), ".12g")


def csv_text(header, rows) -> str:
    """One header line, then one line per row, each ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
