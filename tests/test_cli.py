import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from permstab import fileio
from permstab.actions import AlmostAction
from permstab.cli import build_parser, main
from permstab.cohomology import cochain_from_support
from permstab.complexes import (
    Presentation,
    SimplicialComplex,
    annulus,
    boundary_of_simplex,
    full_triangle,
    fundamental_group_presentation,
    hollow_polygon,
    spanning_tree,
)
from permstab.errors import FormatError
from permstab.perms import ErrPerm
from permstab.rng import SplitMix64
from permstab.symcochains import PartialInj, SymCochain


# -- formats -----------------------------------------------------------------


def test_complex_round_trip():
    x = boundary_of_simplex(3)
    text = fileio.dump_complex(x)
    y = fileio.load_complex(text)
    assert y.faces_by_dim == x.faces_by_dim


def test_complex_header_mismatch():
    with pytest.raises(FormatError):
        fileio.load_complex("dim 2\n0 1\n")


def test_cochain_round_trip():
    x = boundary_of_simplex(3)
    alpha = cochain_from_support(x, 2, [(0, 1, 2), (1, 2, 3)])
    back = fileio.load_cochain(fileio.dump_cochain(alpha), x)
    assert back == alpha


def test_action_round_trip():
    x = full_triangle()
    pres = fundamental_group_presentation(x, spanning_tree(x, 0))
    ident = ErrPerm.identity(3)
    act = AlmostAction(pres, 3, {g: ident for g in pres.generators})
    back = fileio.load_action(fileio.dump_action(act), pres)
    assert back.space == 3 and back.images == act.images


def test_presentation_round_trip():
    pres = Presentation(
        ("a", "b"),
        ((("a", 1), ("b", -1)), (("b", 1),)),
        (("a", "b"),),
    )
    back = fileio.load_presentation(fileio.dump_presentation(pres))
    assert back == pres
    # the names are checked once every line is read, so a use may come first
    late = fileio.load_presentation("rel a b^-1\nrel b\npair a b\ngen a\ngen b\n")
    assert late == pres


def test_sym_cochain_round_trip():
    x = full_triangle()
    values = {
        (0, 1): PartialInj(3, (1, 0, None)),
        (0, 2): PartialInj.identity(3),
        (1, 2): PartialInj(3, (None, None, 2)),
    }
    f = SymCochain(x, 1, 3, values)
    back = fileio.load_sym_cochain(fileio.dump_sym_cochain(f))
    assert back.values == f.values and back.n == 3


def _with_noise_lines(draw, text: str) -> str:
    """``text`` with blank and comment lines, and trailing comments, drawn in between."""
    out = []
    for line in text.splitlines():
        out += draw(st.lists(st.sampled_from(["", "   ", "# note", "  # 0 -> 1"]), max_size=2))
        out.append(line + draw(st.sampled_from(["", "  ", " # trailing"])))
    return "\n".join(out) + "\n"


@st.composite
def partial_actions(draw):
    gens = tuple(f"g{i}" for i in range(draw(st.integers(1, 3))))
    space = draw(st.integers(0, 6))
    images = {}
    for g in gens:
        domain = sorted(draw(st.sets(st.integers(0, space - 1), max_size=space))) if space else []
        images[g] = ErrPerm(space, tuple(domain), tuple(draw(st.permutations(domain))))
    return AlmostAction(Presentation(gens, ()), space, images)


@settings(max_examples=100, deadline=None)
@given(action=partial_actions(), data=st.data())
def test_action_round_trip_hypothesis(action, data):
    text = _with_noise_lines(data.draw, fileio.dump_action(action))
    assert fileio.load_action(text, action.presentation) == action


SYM_COMPLEXES = (full_triangle(), boundary_of_simplex(3), hollow_polygon(4))


@st.composite
def sym_cochains(draw):
    x = draw(st.sampled_from(SYM_COMPLEXES))
    degree = draw(st.integers(0, x.dim))
    n = draw(st.integers(1, 4))
    values = {}
    for cell in x.cells(degree):
        perm = draw(st.permutations(range(n)))
        undef = draw(st.sets(st.integers(0, n - 1)))
        values[cell] = PartialInj(n, tuple(None if i in undef else perm[i] for i in range(n)))
    return SymCochain(x, degree, n, values)


@settings(max_examples=100, deadline=None)
@given(f=sym_cochains(), data=st.data())
def test_sym_cochain_round_trip_hypothesis(f, data):
    back = fileio.load_sym_cochain(_with_noise_lines(data.draw, fileio.dump_sym_cochain(f)))
    # SymCochain equality asks for the same complex object; a loaded file builds a new one
    assert back.complex.faces_by_dim == f.complex.faces_by_dim
    assert (back.degree, back.n, back.values) == (f.degree, f.n, f.values)


SYM_HEAD = "sym degree=1 n=2\ncomplex\ndim 1\n0 1\nendcomplex\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("cell 0 1\n-1 -> 1\n0 -> 0\n1 -> 1\n", "index -1 outside range"),
        ("cell 0 1\n0 -> 0\n1 -> 1\n2 -> 1\n", "index 2 outside range"),
        ("cell 0 1\n0 -> 0\n0 -> 1\n1 -> 1\n", "index 0 given twice"),
        ("cell 0 1\n0 -> 0\n1 -> 1\ncell 0 1\n0 -> 1\n1 -> 0\n", r"cell \(0, 1\) given twice"),
        ("0 -> 0\ncell 0 1\n0 -> 0\n1 -> 1\n", "before any 'cell'"),
        ("0 => 0\ncell 0 1\n0 -> 0\n1 -> 1\n", "^line 6: index line before any 'cell' header$"),
        ("cell 0 1\n1 -> undef\n", "needs 2 index lines"),
        ("cell 0 x\n0 -> 0\n1 -> 1\n", "bad cell line"),
        ("cell 0 1\n0 -> 0\n1 -> 1\n\n# next\ncell 0 1.0\n0 -> 0\n", "^line 11: bad cell line$"),
    ],
)
def test_sym_cochain_index_lines_are_strict(body, message):
    with pytest.raises(FormatError, match=message):
        fileio.load_sym_cochain(SYM_HEAD + body)
    complete = fileio.load_sym_cochain(SYM_HEAD + "cell 0 1\n1 -> undef\n0 -> 1\n")
    assert complete.values == {(0, 1): PartialInj(2, (1, None))}  # any line order


LOADER_ERRORS = [
    (fileio.load_sym_cochain, "sym degree=1 n=3\n", "^line 1: expected an inline complex section$"),
    (fileio.load_sym_cochain, "sym degree1 n=3\ncomplex\ndim 1\n0 1\nendcomplex\n", "^line 1: expected a 'sym"),
    (fileio.load_sym_cochain, "sym degree=1\ncomplex\ndim 1\n0 1\nendcomplex\n", "^line 1: expected a 'sym"),
    (fileio.load_sym_cochain, "sym degree=1 n=0\ncomplex\ndim 1\n0 1\nendcomplex\n", "^line 1: n=0 must be at least 1$"),
    (fileio.load_sym_cochain, "sym degree=1 n=-2\ncomplex\ndim 1\n0 1\nendcomplex\n", "^line 1: n=-2 must be at least 1$"),
    (lambda text: fileio.load_cochain(text, full_triangle()), "dim x\n0 1\n", "^line 1: bad header 'dim x'$"),
    (fileio.load_complex, "dim x\n0 1\n", "^line 1: bad header 'dim x'$"),
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "space x\ngenerator a\n0 -> 0\n",
        "^line 1: bad header 'space x'$",
    ),
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "generator a\n0 - 0\n",
        "^line 2: expected 'i -> j'$",
    ),
    # every content line after the 'space' preamble belongs to one 'generator' block of the presentation
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "space 2\n0 -> 0\ngenerator a\n0 -> 0\n",
        "^line 2: index line before any 'generator' header$",
    ),
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "space 1\ngenerator a\n0 -> 0\n# again\ngenerator a\n0 -> 0\n",
        "^line 5: generator a given twice$",
    ),
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "space 1\ngenerator a\n0 -> 0\ngenerator zz\n0 -> 0\n",
        "^line 4: unknown generator 'zz'$",
    ),
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "generator a\n0 -> 0\nspace 1\n",
        "^line 3: expected 'i -> j'$",
    ),
    # with a 'space m' line every point of an 'i -> j' line is below m
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "space 2\ngenerator a\n7 -> 7\n9 -> 9\n",
        "^line 3: point 7 is not below space 2$",
    ),
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "space 2\ngenerator a\n0 -> 1\n# then\n1 -> 2\n",
        "^line 5: point 2 is not below space 2$",
    ),
    # every point is non-negative, with or without 'space'
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "space 2\ngenerator a\n-1 -> 0\n0 -> -1\n",
        "^line 3: point -1 is negative$",
    ),
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "generator a\n0 -> 1\n1 -> -3\n",
        "^line 3: point -3 is negative$",
    ),
    # a block that is not a bijection of its domain, or a declared pair that is
    # not mutually inverse, is refused at the 'generator' header of the block
    (
        lambda text: fileio.load_action(text, Presentation(("a", "b"), (), (("a", "b"),))),
        "space 3\ngenerator a\n0 -> 1\ngenerator b\n1 -> 0\n",
        "^line 2: image of 'a' is not a bijection of its domain$",
    ),
    (
        lambda text: fileio.load_action(text, Presentation(("a",), ())),
        "generator a\n0 -> 1\n1 -> 1\n",
        "^line 1: image of 'a' is not a bijection of its domain$",
    ),
    (
        lambda text: fileio.load_action(text, Presentation(("a", "b"), (), (("a", "b"),))),
        "space 3\ngenerator a\n0 -> 1\n1 -> 2\n2 -> 0\n# partner\ngenerator b\n0 -> 1\n1 -> 2\n2 -> 0\n",
        "^line 7: images of 'a' and 'b' are not mutually inverse$",
    ),
    # a presentation names the line of a repeated or unknown generator
    (fileio.load_presentation, "gen a\nrel a x\n", "^line 2: relation uses unknown generator 'x'$"),
    (fileio.load_presentation, "gen a\n# again\ngen a\n", "^line 3: generator 'a' given twice$"),
    (fileio.load_presentation, "gen a\npair a b\nrel a\n", "^line 2: pair uses unknown generator 'b'$"),
    (fileio.load_presentation, "rel b\ngen a\npair a b\n", "^line 1: relation uses unknown generator 'b'$"),
    # integer lines name their own line, past blanks and comments
    (fileio.load_complex, "dim 1\n0 1\n\n1 -2x\n", "^line 4: bad face line$"),
    (
        lambda text: fileio.load_cochain(text, full_triangle()),
        "dim 1\n# edges\n0 1\n1 two\n",
        "^line 4: bad cell line$",
    ),
]


# ids name the loader and the text only, as they did before the message column
@pytest.mark.parametrize(
    "load, text, message",
    LOADER_ERRORS,
    ids=[f"{load.__name__}-{text}" for load, text, _ in LOADER_ERRORS],
)
def test_malformed_headers_raise_format_error(load, text, message):
    with pytest.raises(FormatError, match=message):
        load(text)


def test_action_without_space_keeps_the_inferred_size():
    # the smallest range(m) that holds every point, whatever the blocks' lengths
    act = fileio.load_action("generator a\n7 -> 9\n9 -> 7\n", Presentation(("a",), ()))
    assert act.space == 10 and act.image("a") == ErrPerm(10, (7, 9), (9, 7))
    act = fileio.load_action("generator a\n0 -> 4\n4 -> 0\ngenerator b\n", Presentation(("a", "b"), ()))
    assert act.space == 5 and act.image("b") == ErrPerm(5, (), ())
    assert fileio.load_action("generator a\n", Presentation(("a",), ())).space == 0
    act = fileio.load_action("space 3\ngenerator a\n2 -> 0\n0 -> 2\n", Presentation(("a",), ()))
    assert act.image("a") == ErrPerm(3, (0, 2), (2, 0))


def test_cli_malformed_headers_exit_1(tmp_path, capsys):
    cases = {
        "short.sym": "sym degree=1 n=3\n",
        "nokey.sym": "sym degree1 n=3\ncomplex\ndim 1\n0 1\nendcomplex\n",
        "dup.sym": SYM_HEAD + "cell 0 1\n0 -> 0\n0 -> 1\n1 -> 1\n",
    }
    for name, text in cases.items():
        (tmp_path / name).write_text(text)
        assert main(["sym", "delete", str(tmp_path / name)]) == 1
        assert capsys.readouterr().err.startswith("error: line 1" if name != "dup.sym" else "error: line 8")
    pres = tmp_path / "g.pres"
    pres.write_text("gen a\n")
    act = tmp_path / "a.act"
    act.write_text("space x\ngenerator a\n0 -> 0\n")
    assert main(["action", "defect", str(pres), str(act)]) == 1
    assert capsys.readouterr().err.startswith("error: line 1: bad header")
    pres.write_text("gen a\ngen b\n")
    repeats = {  # a repeated point is reported at its own line, in any block
        "space 3\ngenerator a\n0 -> 1\n1 -> 0\n0 -> 2\ngenerator b\n0 -> 0\n": "line 5: point 0",
        "space 3\ngenerator a\n0 -> 1\ngenerator b\n# comment\n1 -> 2\n1 -> 0\n\n": "line 7: point 1",
    }
    for text, where in repeats.items():
        act.write_text(text)
        assert main(["action", "defect", str(pres), str(act)]) == 1
        assert capsys.readouterr().err == f"error: {where} mapped twice\n"


@pytest.mark.parametrize(
    "text, error",
    [
        ("sym degree=1 n=2\ncomplex\ndim 1\n0 x\nendcomplex\n", "error: line 4: bad face line"),
        (
            "sym degree=1 n=2\ncomplex\ndim 2\n0 1\nendcomplex\n",
            "error: line 3: header says dim 2 but the faces give dim 1",
        ),
        (
            "sym degree=1 n=2\ncomplex\ndim 1\n0 1\n# no end marker\ncell 0 1\n0 -> 1\n1 -> 0\n",
            "error: line 2: inline complex section has no 'endcomplex'",
        ),
        (SYM_HEAD + "cell 0 1\n1 -> undef\n", "error: line 6: cell block needs 2 index lines"),
        ("sym degree=1 n=2\n\ncomplex\ndim 1\n# faces\n0 1\n1 2 z\nendcomplex\n", "error: line 7: bad face line"),
        (SYM_HEAD + "cell 0 1\n0 -> 1\n1 -> 0\ncell 1 a\n", "error: line 9: bad cell line"),
    ],
)
def test_cli_sym_errors_name_the_file_line(tmp_path, capsys, text, error):
    path = tmp_path / "f.sym"
    path.write_text(text)
    assert main(["sym", "delete", str(path)]) == 1
    assert capsys.readouterr().err == error + "\n"


def test_readme_command_lines_parse():
    """Every command and global flag the README shows is accepted by the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines() if line.startswith("permstab ")]
    flags_line = next(line for line in readme.splitlines() if line.startswith("Global flags"))
    flags = re.findall(r"`(--[\w-]+)`", flags_line)
    assert len(commands) >= 10 and flags
    argvs = [argv[1:] for argv in commands] + [[flag, "1", "complex", "info", "x.cx"] for flag in flags]
    for argv in argvs:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the README shows an invalid command: permstab {' '.join(argv)}")


# -- commands -----------------------------------------------------------------


@pytest.fixture
def workdir(tmp_path):
    x = boundary_of_simplex(3)
    (tmp_path / "sphere.cx").write_text(fileio.dump_complex(x))
    return tmp_path


def test_cli_complex_info(workdir, capsys):
    assert main(["complex", "info", str(workdir / "sphere.cx")]) == 0
    out = capsys.readouterr().out
    assert "dim 2" in out and "cells[2] 4" in out


def test_cli_complex_weights(workdir, tmp_path):
    out = tmp_path / "w.csv"
    code = main(["--csv", str(out), "complex", "weights", str(workdir / "sphere.cx"), "-k", "1"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "face,weight_num,weight_den"
    assert lines[1] == "0-1,1,6"
    assert len(lines) == 7


def test_cli_cohomology(workdir, tmp_path):
    out = tmp_path / "d.csv"
    assert main(["--csv", str(out), "cohomology", "dims", str(workdir / "sphere.cx")]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[-1].startswith("2,4,4,3,1")
    assert main(["--csv", str(out), "cohomology", "cosystole", str(workdir / "sphere.cx"), "-k", "2"]) == 0
    assert out.read_text().strip().splitlines()[1].startswith("2,1/4,")
    assert main(["--csv", str(out), "cohomology", "expansion", str(workdir / "sphere.cx")]) == 0
    content = out.read_text()
    assert "min," in content


def test_cli_action_defect_and_repair(tmp_path, capsys):
    pres = Presentation(
        ("g0", "tau"),
        ((("g0", 1), ("g0", 1)),),
    )
    (tmp_path / "p.pres").write_text(fileio.dump_presentation(pres))
    from permstab.perms import sign_flip

    act = AlmostAction(
        pres,
        4,
        {"g0": ErrPerm.from_cycle((0, 1), 4), "tau": sign_flip(2)},
    )
    (tmp_path / "a.act").write_text(fileio.dump_action(act))
    assert main(["action", "defect", str(tmp_path / "p.pres"), str(tmp_path / "a.act")]) == 0
    assert "defect 0/1" in capsys.readouterr().out
    report = tmp_path / "stages.csv"
    code = main([
        "action", "repair", str(tmp_path / "p.pres"), str(tmp_path / "a.act"),
        "--out", str(tmp_path / "fixed.act"), "--report", str(report),
    ])
    assert code == 0
    assert "holds,true" in report.read_text()


def test_cli_cover_build(tmp_path):
    from test_covers import hexagon_cover_action

    x, action = hexagon_cover_action()
    (tmp_path / "tri.cx").write_text(fileio.dump_complex(x))
    (tmp_path / "act.act").write_text(fileio.dump_action(action))
    out = tmp_path / "cover.txt"
    code = main(["cover", "build", str(tmp_path / "tri.cx"), str(tmp_path / "act.act"), "-o", str(out)])
    assert code == 0
    text = out.read_text()
    assert "fiber 2" in text and text.count("vertex ") == 6


def test_cli_sym_delta_and_delete(tmp_path):
    x = full_triangle()
    values = {c: PartialInj.identity(4) for c in x.cells(1)}
    values[(0, 1)] = PartialInj(4, (1, 0, 2, 3))
    f = SymCochain(x, 1, 4, values)
    (tmp_path / "f.sym").write_text(fileio.dump_sym_cochain(f))
    (tmp_path / "tri.cx").write_text(fileio.dump_complex(x))
    out = tmp_path / "delta.csv"
    assert main(["--csv", str(out), "sym", "delta", str(tmp_path / "tri.cx"), str(tmp_path / "f.sym")]) == 0
    assert "robust,1/2," in out.read_text()
    rep = tmp_path / "del.csv"
    code = main([
        "sym", "delete", str(tmp_path / "f.sym"),
        "--out", str(tmp_path / "g.sym"), "--report", str(rep),
    ])
    assert code == 0
    assert "deleted,2," in rep.read_text()
    g = fileio.load_sym_cochain((tmp_path / "g.sym").read_text())
    assert g.values[(0, 1)].apply(0) is None


def test_cli_experiment_run_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["experiment", "run", "--epsilon", "1/20", "--fiber", "10"]
    assert main(["--seed", "5", "--csv", str(a)] + args) == 0
    assert main(["--seed", "5", "--csv", str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()
    header, row = a.read_text().strip().splitlines()
    assert header.startswith("epsilon_nominal,seed,epsilon")
    assert row.split(",")[-1] == "true"


def test_cli_experiment_sweep_bound_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "--csv", str(out), "experiment", "sweep",
        "--epsilons", "0,1/10", "--runs", "2", "--fiber", "8",
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    cols = lines[0].split(",")
    dw_i, bound_i = cols.index("dw"), cols.index("bound")
    for line in lines[1:]:
        parts = line.split(",")
        assert Fraction(parts[dw_i]) <= Fraction(parts[bound_i])


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["complex", "info", str(tmp_path / "missing.cx")]) == 1
    bad = tmp_path / "bad.cx"
    bad.write_text("dim 2\n0 1\n")
    assert main(["complex", "info", str(bad)]) == 1
    assert main(["bogus"]) == 1
    capsys.readouterr()
    x = full_triangle()
    f = tmp_path / "f.sym"
    f.write_text(fileio.dump_sym_cochain(SymCochain(x, 1, 2, {c: PartialInj.identity(2) for c in x.cells(1)})))
    bad_fractions = [  # a fraction argument that does not parse is an input error, not a traceback
        ["sym", "correct-edge", str(f), "0", "1", "--eta1", "abc"],
        ["sym", "correct-edge", str(f), "0", "1", "--eta1", "1/0"],
        ["experiment", "run", "--epsilon", "x"],
        ["experiment", "sweep", "--epsilons", "0,x"],
    ]
    for args in bad_fractions:
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_cli_cover_experiment(tmp_path):
    from permstab.experiments import ExperimentConfig, build_instance

    x, phi, raw, f = build_instance(ExperimentConfig(seed=4, epsilon=Fraction(0)))
    (tmp_path / "x.cx").write_text(fileio.dump_complex(x))
    (tmp_path / "phi.coch").write_text(fileio.dump_cochain(phi))
    (tmp_path / "psi.act").write_text(fileio.dump_action(raw))
    (tmp_path / "f.act").write_text(fileio.dump_action(f))
    out = tmp_path / "report.csv"
    code = main([
        "--csv", str(out), "cover", "experiment",
        str(tmp_path / "x.cx"), str(tmp_path / "phi.coch"),
        str(tmp_path / "psi.act"), str(tmp_path / "f.act"),
    ])
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "epsilon,rho,event1,event2,dw,bound,component,holds"
    assert row.endswith("true")


def test_cli_sym_correct_edge(tmp_path):
    x = SimplicialComplex.build_from_top_faces([(0, 1, 2), (0, 1, 3)])
    values = {c: PartialInj.identity(3) for c in x.cells(1)}
    values[(0, 1)] = PartialInj(3, (1, 0, 2))
    f = SymCochain(x, 1, 3, values)
    (tmp_path / "f.sym").write_text(fileio.dump_sym_cochain(f))
    out = tmp_path / "g.sym"
    code = main([
        "sym", "correct-edge", str(tmp_path / "f.sym"), "0", "1",
        "--eta1", "3/4", "--out", str(out),
    ])
    assert code == 0
    g = fileio.load_sym_cochain(out.read_text())
    assert g.values[(0, 1)] == PartialInj.identity(3)


def test_cli_sym_good_check(tmp_path, capsys):
    x = full_triangle()
    f = SymCochain(x, 1, 2, {c: PartialInj.identity(2) for c in x.cells(1)})
    (tmp_path / "f.sym").write_text(fileio.dump_sym_cochain(f))
    assert main(["sym", "good-check", str(tmp_path / "f.sym"), "-L", "4"]) == 0
    assert "ok True" in capsys.readouterr().out


def test_cli_action_separation(tmp_path):
    pres = Presentation(("s",), ((("s", 1), ("s", 1)),))
    (tmp_path / "p.pres").write_text(fileio.dump_presentation(pres))
    act = AlmostAction(pres, 4, {"s": ErrPerm.from_cycle((0, 1), 4)})
    (tmp_path / "a.act").write_text(fileio.dump_action(act))
    out = tmp_path / "sep.csv"
    code = main(["--csv", str(out), "action", "separation",
                 str(tmp_path / "p.pres"), str(tmp_path / "a.act"), "-L", "2"])
    assert code == 0
    assert "s,1/2," in out.read_text()


def test_non_pure_complex_round_trip_and_info(tmp_path, capsys):
    from permstab.complexes import random_lm_complex

    x = random_lm_complex(6, Fraction(1, 5), seed=11)
    text = fileio.dump_complex(x)
    back = fileio.load_complex(text)
    assert back.faces_by_dim == x.faces_by_dim
    path = tmp_path / "lm.cx"
    path.write_text(text)
    assert main(["complex", "info", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"pure {'yes' if x.is_pure else 'no'}" in out
    if not x.is_pure:
        assert main(["complex", "weights", str(path), "-k", "1"]) == 1
