import re
from fractions import Fraction
from pathlib import Path

import pytest

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


def test_perm_round_trip():
    p = ErrPerm.from_mapping({0: 2, 2: 0, 5: 5}, size=7)
    q = fileio.load_perm(fileio.dump_perm(p))
    assert q == p


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


SYM_HEAD = "sym degree=1 n=2\ncomplex\ndim 1\n0 1\nendcomplex\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("cell 0 1\n-1 -> 1\n0 -> 0\n1 -> 1\n", "index -1 outside range"),
        ("cell 0 1\n0 -> 0\n1 -> 1\n2 -> 1\n", "index 2 outside range"),
        ("cell 0 1\n0 -> 0\n0 -> 1\n1 -> 1\n", "index 0 given twice"),
        ("cell 0 1\n0 -> 0\n1 -> 1\ncell 0 1\n0 -> 1\n1 -> 0\n", r"cell \(0, 1\) given twice"),
        ("0 -> 0\ncell 0 1\n0 -> 0\n1 -> 1\n", "before any 'cell'"),
        ("cell 0 1\n1 -> undef\n", "needs 2 index lines"),
        ("cell 0 x\n0 -> 0\n1 -> 1\n", "bad cell line"),
    ],
)
def test_sym_cochain_index_lines_are_strict(body, message):
    with pytest.raises(FormatError, match=message):
        fileio.load_sym_cochain(SYM_HEAD + body)
    complete = fileio.load_sym_cochain(SYM_HEAD + "cell 0 1\n1 -> undef\n0 -> 1\n")
    assert complete.values == {(0, 1): PartialInj(2, (1, None))}  # any line order


@pytest.mark.parametrize(
    "load, text",
    [
        (fileio.load_sym_cochain, "sym degree=1 n=3\n"),
        (fileio.load_sym_cochain, "sym degree1 n=3\ncomplex\ndim 1\n0 1\nendcomplex\n"),
        (fileio.load_sym_cochain, "sym degree=1\ncomplex\ndim 1\n0 1\nendcomplex\n"),
        (lambda text: fileio.load_cochain(text, full_triangle()), "dim x\n0 1\n"),
        (fileio.load_complex, "dim x\n0 1\n"),
        (fileio.load_perm, "size x\n0 -> 1\n"),
        (lambda text: fileio.load_action(text, Presentation(("a",), ())), "space x\ngenerator a\n0 -> 0\n"),
        (lambda text: fileio.load_action(text, Presentation(("a",), ())), "generator a\n0 - 0\n"),
    ],
)
def test_malformed_headers_raise_format_error(load, text):
    with pytest.raises(FormatError):
        load(text)


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
    from permstab.perms import SignedPerm

    act = AlmostAction(
        pres,
        4,
        {"g0": ErrPerm.from_cycle((0, 1), 4), "tau": SignedPerm.sign_flip(2).to_err_perm()},
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
