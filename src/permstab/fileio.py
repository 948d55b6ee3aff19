"""Line-based text formats for complexes, cochains, actions and sym cochains.

Formats (leading/trailing blanks and ``#`` comment lines are ignored):

* complex: ``dim d`` header, then one maximal face per line as
  space-separated vertex indices.
* cochain: ``dim k`` header, then one supported cell per line.
* action: an optional ``space m`` line, then ``generator NAME`` headers, one
  per generator of the presentation, each followed by that generator's
  ``i -> j`` lines, one per point of its domain.  Every point is a
  non-negative integer, below ``m`` when ``space`` is given; without it the
  underlying set is the smallest ``range(m)`` that holds every point.
* presentation: ``gen NAME`` lines, ``pair A B`` lines for formal inverse
  pairs, and ``rel w1 w2 ...`` lines where a letter is ``NAME`` or ``NAME^-1``.
  Each name has one ``gen`` line, before or after the lines that use it.
* sym cochain: ``sym degree=i n=N`` header, an inline ``complex`` section,
  then ``cell v0 v1 ...`` headers each followed by exactly one ``idx -> img``
  or ``idx -> undef`` line for every index in ``range(N)``.

In actions and sym cochains every content line after the preamble belongs to
a block: a line before the first block header and a header repeating an
earlier key are refused.  A malformed line or header raises ``FormatError``
with its line number.  An action block that is not a bijection of its
domain, or a declared inverse pair whose blocks are not mutually inverse, is
refused once every line is read, at the ``generator`` header of the block
(of the later block, for a pair).
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


def _int_tokens(tokens, lineno: int, message: str) -> tuple[int, ...]:
    """The integers in ``tokens``, as in a face line or a cell line."""
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise FormatError(message, lineno) from None


def _map_line(line: str, lineno: int) -> tuple[int, int]:
    try:
        lhs, rhs = line.split("->")
        return int(lhs), int(rhs)
    except ValueError:
        raise FormatError("expected 'i -> j'", lineno) from None


def _blocks(lines, keyword: str, parse_key):
    """Cut numbered lines into ``keyword KEY`` blocks.

    Yields ``(key, header line number, body lines)``, each block before the
    next header is read; ``parse_key(rest of the header, line number)`` gives
    the key.  A content line before the first header and a repeated key are
    refused at their line.
    """
    head = keyword + " "
    seen = set()
    key = None
    for lineno, line in lines:
        if not line.startswith(head):
            if key is None:
                raise FormatError(f"index line before any '{keyword}' header", lineno)
            body.append((lineno, line))
            continue
        if key is not None:
            yield key, key_lineno, body
        key = parse_key(line.split(None, 1)[1], lineno)
        if key in seen:
            raise FormatError(f"{keyword} {key} given twice", lineno)
        seen.add(key)
        key_lineno, body = lineno, []
    if key is not None:
        yield key, key_lineno, body


def dump_complex(x: SimplicialComplex) -> str:
    out = [f"dim {x.dim}"]
    for face in x.facets():
        out.append(" ".join(str(v) for v in face))
    return "\n".join(out) + "\n"


def load_complex(text: str) -> SimplicialComplex:
    return _complex_from_lines(list(_lines(text)), 1)


def _complex_from_lines(lines, empty_lineno: int) -> SimplicialComplex:
    """The complex in numbered ``lines``; ``empty_lineno`` is reported when there are none."""
    if not lines or not lines[0][1].startswith("dim "):
        raise FormatError("expected a 'dim d' header", lines[0][0] if lines else empty_lineno)
    dim = _header_int(lines[0][1], lines[0][0])
    faces = [_int_tokens(line.split(), lineno, "bad face line") for lineno, line in lines[1:]]
    if not faces:
        raise FormatError("no faces", lines[0][0])
    x = SimplicialComplex.from_cells(faces)
    if x.dim != dim:
        raise FormatError(f"header says dim {dim} but the faces give dim {x.dim}", lines[0][0])
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
    cells = [_int_tokens(line.split(), lineno, "bad cell line") for lineno, line in lines[1:]]
    return cochain_from_support(x, k, cells)


def dump_action(action: AlmostAction) -> str:
    out = [f"space {action.space}"]
    for g in action.generators:
        out.append(f"generator {g}")
        perm = action.image(g)
        for x, y in zip(perm.domain, perm.images):
            out.append(f"{x} -> {y}")
    return "\n".join(out) + "\n"


def load_action(text: str, presentation: Presentation) -> AlmostAction:
    lines = list(_lines(text))
    space = None
    if lines and lines[0][1].startswith("space "):
        space = _header_int(lines[0][1], lines[0][0])
        lines = lines[1:]

    def generator(name: str, lineno: int) -> str:
        if name not in presentation.generators:
            raise FormatError(f"unknown generator {name!r}", lineno)
        return name

    mappings = {}
    header = {}  # generator -> line number of its block's header
    for name, head, body in _blocks(lines, "generator", generator):
        mapping = mappings[name] = {}
        header[name] = head
        for lineno, line in body:
            x, y = _map_line(line, lineno)
            if min(x, y) < 0:
                raise FormatError(f"point {min(x, y)} is negative", lineno)
            if space is not None and max(x, y) >= space:
                raise FormatError(f"point {max(x, y)} is not below space {space}", lineno)
            if x in mapping:
                raise FormatError(f"point {x} mapped twice", lineno)
            mapping[x] = y
    # whole-block faults are named after every line fault, at the block's header
    for name, mapping in mappings.items():
        if set(mapping) != set(mapping.values()):
            raise FormatError(f"image of {name!r} is not a bijection of its domain", header[name])
    for a, b in presentation.inverse_pairs:
        if a in mappings and b in mappings and mappings[b] != {y: x for x, y in mappings[a].items()}:
            raise FormatError(f"images of {a!r} and {b!r} are not mutually inverse", max(header[a], header[b]))
    if space is None:
        points = [p for mapping in mappings.values() for p in (*mapping, *mapping.values())]
        space = 1 + max(points, default=-1)
    images = {g: ErrPerm.from_mapping(mapping, space) for g, mapping in mappings.items()}
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
    uses = []  # (line number, kind, names), checked once every 'gen' line is read
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "gen" and len(parts) == 2:
            if parts[1] in gens:
                raise FormatError(f"generator {parts[1]!r} given twice", lineno)
            gens.append(parts[1])
        elif parts[0] == "pair" and len(parts) == 3:
            pairs.append((parts[1], parts[2]))
            uses.append((lineno, "pair", parts[1:]))
        elif parts[0] == "rel":
            word = []
            for tok in parts[1:]:
                if tok.endswith("^-1"):
                    word.append((tok[:-3], -1))
                else:
                    word.append((tok, 1))
            rels.append(tuple(word))
            uses.append((lineno, "relation", [sym for sym, _ in word]))
        else:
            raise FormatError(f"unrecognized line {line!r}", lineno)
    for lineno, kind, names in uses:
        for name in names:
            if name not in gens:
                raise FormatError(f"{kind} uses unknown generator {name!r}", lineno)
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
    if n < 1:
        raise FormatError(f"n={n} must be at least 1", lines[0][0])
    if len(lines) < 2 or lines[1][1] != "complex":
        raise FormatError("expected an inline complex section", lines[min(1, len(lines) - 1)][0])
    complex_lineno = lines[1][0]
    end = next((i for i in range(2, len(lines)) if lines[i][1] == "endcomplex"), None)
    if end is None:
        raise FormatError("inline complex section has no 'endcomplex'", complex_lineno)
    x = _complex_from_lines(lines[2:end], complex_lineno)

    def cell(rest: str, lineno: int) -> tuple[int, ...]:
        return _int_tokens(rest.split(), lineno, "bad cell line")

    values = {}
    for key, cell_lineno, body in _blocks(lines[end + 1:], "cell", cell):
        table: dict[int, int | None] = {}
        for lineno, line in body:
            try:
                lhs, rhs = line.split("->")
                i = int(lhs)
                img = None if rhs.strip() == "undef" else int(rhs)
            except ValueError:
                raise FormatError("expected 'idx -> img|undef'", lineno) from None
            if not 0 <= i < n:
                raise FormatError(f"index {i} outside range({n})", lineno)
            if i in table:
                raise FormatError(f"index {i} given twice", lineno)
            table[i] = img
        if len(table) != n:
            raise FormatError(f"cell block needs {n} index lines", cell_lineno)
        values[key] = PartialInj(n, tuple(table[i] for i in range(n)))
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
