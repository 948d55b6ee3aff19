"""Command-line front end.

Exit codes: 0 on success, 1 on input/format errors, 2 when a proved bound is
violated (which signals an implementation bug, not bad input).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import cohomology, fileio
from .actions import defect, normalize_sofic_approx, separation_report
from .complexes import spanning_tree, fundamental_group_presentation
from .covers import build_cover, contradiction_experiment, extension_from_cocycle
from .errors import BoundViolation, PermstabError
from .experiments import ExperimentConfig, run_pipeline, rows_to_csv, sweep
from .fileio import csv_text, format_decimal, format_fraction
from .symcochains import global_deletion, good_function_check, single_edge_correction, sym_delta_weight


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PermstabError(f"not a fraction: {text!r}") from None


# -- complex ---------------------------------------------------------------


def cmd_complex_info(args) -> int:
    x = fileio.load_complex(_read(args.file))
    print(f"dim {x.dim}")
    print(f"pure {'yes' if x.is_pure else 'no'}")
    for k in range(x.dim + 1):
        print(f"cells[{k}] {x.n_cells(k)}")
    return 0


def cmd_complex_weights(args) -> int:
    x = fileio.load_complex(_read(args.file))
    nums, den = x.weight_numerators(args.k)
    rows = []
    for cell, num in zip(x.cells(args.k), nums):
        q = Fraction(num, den)
        rows.append(["-".join(map(str, cell)), q.numerator, q.denominator])
    _write(args.csv, csv_text(["face", "weight_num", "weight_den"], rows))
    return 0


# -- cohomology -------------------------------------------------------------


def cmd_cohomology_dims(args) -> int:
    x = fileio.load_complex(_read(args.file))
    rows = []
    for k in range(x.dim + 1):
        zk = cohomology.cocycle_space(x, k)
        bk = cohomology.coboundary_space(x, k)
        rows.append([k, x.n_cells(k), zk.dim, bk.dim, zk.dim - bk.dim])
    _write(args.csv, csv_text(["k", "cells", "dim_Z", "dim_B", "dim_H"], rows))
    return 0


def cmd_cohomology_expansion(args) -> int:
    x = fileio.load_complex(_read(args.file))
    ks = [args.k] if args.k is not None else list(range(x.dim))
    rows = []
    values = []
    for k in ks:
        val = cohomology.cocycle_expansion_constant(x, k)
        if val is None:
            rows.append([k, "inf", "inf"])
        else:
            values.append(val)
            rows.append([k, format_fraction(val), format_decimal(val)])
    if args.k is None:
        overall = min(values) if values else None
        rows.append(["min", "inf" if overall is None else format_fraction(overall),
                     "inf" if overall is None else format_decimal(overall)])
    _write(args.csv, csv_text(["k", "value", "value_dec"], rows))
    return 0


def cmd_cohomology_cosystole(args) -> int:
    x = fileio.load_complex(_read(args.file))
    val = cohomology.cosystole(x, args.k)
    if val is None:
        rows = [[args.k, "coboundary-only", ""]]
    else:
        rows = [[args.k, format_fraction(val), format_decimal(val)]]
    _write(args.csv, csv_text(["k", "value", "value_dec"], rows))
    return 0


# -- actions ----------------------------------------------------------------


def cmd_action_defect(args) -> int:
    pres = fileio.load_presentation(_read(args.presentation))
    action = fileio.load_action(_read(args.action), pres)
    d = defect(action)
    print(f"defect {format_fraction(d)} ({format_decimal(d)})")
    return 0


def cmd_action_repair(args) -> int:
    pres = fileio.load_presentation(_read(args.presentation))
    action = fileio.load_action(_read(args.action), pres)
    repaired, report = normalize_sofic_approx(action, tau=args.tau)
    if args.out:
        _write(args.out, fileio.dump_action(repaired))
    rows = [
        ["ell", report.ell, ""],
        ["eps", format_fraction(report.eps), format_decimal(report.eps)],
        ["eps_prime", format_fraction(report.eps_prime), format_decimal(report.eps_prime)],
        ["stage1_distance", format_fraction(report.stage1_distance), format_decimal(report.stage1_distance)],
        ["stage2_distance", format_fraction(report.stage2_distance), format_decimal(report.stage2_distance)],
        ["stage3_distance", format_fraction(report.stage3_distance), format_decimal(report.stage3_distance)],
        ["defect_out", format_fraction(report.defect_out), format_decimal(report.defect_out)],
        ["bound", format_fraction(report.bound), format_decimal(report.bound)],
        ["holds", "true" if report.holds else "false", ""],
    ]
    _write(args.report, csv_text(["quantity", "value", "value_dec"], rows))
    if not report.holds:
        raise BoundViolation("stage report bound failed")
    return 0


def cmd_action_separation(args) -> int:
    pres = fileio.load_presentation(_read(args.presentation))
    action = fileio.load_action(_read(args.action), pres)
    rows = []
    for word, dist in separation_report(action, args.length):
        text = ".".join(g if e > 0 else f"{g}^-1" for g, e in word)
        rows.append([text, format_fraction(dist), format_decimal(dist)])
    _write(args.csv, csv_text(["word", "distance", "distance_dec"], rows))
    return 0


# -- covers -----------------------------------------------------------------


def cmd_cover_build(args) -> int:
    x = fileio.load_complex(_read(args.complex))
    tree = spanning_tree(x, min(x.vertices))
    pres = fundamental_group_presentation(x, tree)
    action = fileio.load_action(_read(args.action), pres)
    cov = build_cover(x, action)
    _write(args.out, fileio.dump_cover(cov))
    return 0


def cmd_cover_experiment(args) -> int:
    x = fileio.load_complex(_read(args.complex))
    phi = fileio.load_cochain(_read(args.phi), x)
    tree = spanning_tree(x, min(x.vertices))
    ext = extension_from_cocycle(x, tree, phi)
    psi = fileio.load_action(_read(args.psi), ext)
    base = fundamental_group_presentation(x, tree)
    f = fileio.load_action(_read(args.f), base)
    report = contradiction_experiment(x, phi, psi, f)
    rows = [[
        format_fraction(report.eps),
        format_fraction(report.rho),
        format_fraction(report.event1),
        format_fraction(report.event2),
        format_fraction(report.dw_best),
        format_fraction(report.bound),
        report.best_component,
        "true" if report.holds else "false",
    ]]
    _write(args.csv, csv_text(["epsilon", "rho", "event1", "event2", "dw", "bound", "component", "holds"], rows))
    return 0


# -- sym cochains ------------------------------------------------------------


def cmd_sym_delta(args) -> int:
    f = fileio.load_sym_cochain(_read(args.f))
    x = fileio.load_complex(_read(args.complex))
    if x.faces_by_dim != f.complex.faces_by_dim:
        raise PermstabError("the cochain was saved over a different complex")
    plain, robust = sym_delta_weight(f, strict=args.strict)
    rows = [
        ["plain", format_fraction(plain), format_decimal(plain)],
        ["robust", format_fraction(robust), format_decimal(robust)],
    ]
    _write(args.csv, csv_text(["statistic", "value", "value_dec"], rows))
    return 0


def cmd_sym_correct_edge(args) -> int:
    f = fileio.load_sym_cochain(_read(args.f))
    out = single_edge_correction(f, args.u, args.v, _fraction(args.eta1))
    _write(args.out, fileio.dump_sym_cochain(out))
    return 0


def cmd_sym_delete(args) -> int:
    f = fileio.load_sym_cochain(_read(args.f))
    out, report = global_deletion(f)
    _write(args.out, fileio.dump_sym_cochain(out))
    rows = [
        ["deleted", len(report.deleted), ""],
        ["violating_pairs", report.violating_pairs, ""],
        ["eps_hat", format_fraction(report.eps_hat), format_decimal(report.eps_hat)],
        ["count_bound", report.count_bound, ""],
        ["holds", "true" if report.holds else "false", ""],
    ]
    _write(args.report, csv_text(["quantity", "value", "value_dec"], rows))
    return 0


def cmd_sym_good_check(args) -> int:
    f = fileio.load_sym_cochain(_read(args.f))
    report = good_function_check(f, args.length, max_steps=args.budget)
    print(f"ok {report.ok}")
    print(f"cycles {report.cycles_enumerated}")
    print(f"step_violations {len(report.step_violations)}")
    print(f"ee_gaps {report.ee_gaps}")
    print(f"budget_exhausted {report.budget_exhausted}")
    if report.counterexample is not None:
        cyc, j = report.counterexample
        print(f"counterexample {cyc.verts} index {j}")
    return 0 if report.ok else 1


# -- experiments --------------------------------------------------------------


def _parse_fractions(text: str) -> list[Fraction]:
    return [_fraction(tok) for tok in text.split(",") if tok.strip()]


def cmd_experiment_run(args) -> int:
    config = ExperimentConfig(
        seed=args.seed,
        epsilon=_fraction(args.epsilon),
        fiber=args.fiber,
        extra=args.extra,
        cocycle_mode=args.mode,
    )
    row, _report = run_pipeline(config)
    _write(args.csv, rows_to_csv([row]))
    return 0


def cmd_experiment_sweep(args) -> int:
    rows = sweep(
        _parse_fractions(args.epsilons),
        [args.seed + i for i in range(args.runs)],
        fiber=args.fiber,
        extra=args.extra,
        cocycle_mode=args.mode,
    )
    _write(args.csv, rows_to_csv(rows))
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permstab")
    parser.add_argument("--seed", type=int, default=0, help="global random seed")
    parser.add_argument("--csv", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complex", help="complex file utilities")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("info")
    q.add_argument("file")
    q.set_defaults(func=cmd_complex_info)
    q = ps.add_parser("weights")
    q.add_argument("file")
    q.add_argument("-k", type=int, required=True)
    q.set_defaults(func=cmd_complex_weights)

    p = sub.add_parser("cohomology", help="cocycles, coboundaries and constants")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("dims")
    q.add_argument("file")
    q.set_defaults(func=cmd_cohomology_dims)
    q = ps.add_parser("expansion")
    q.add_argument("file")
    q.add_argument("-k", type=int, default=None)
    q.set_defaults(func=cmd_cohomology_expansion)
    q = ps.add_parser("cosystole")
    q.add_argument("file")
    q.add_argument("-k", type=int, required=True)
    q.set_defaults(func=cmd_cohomology_cosystole)

    p = sub.add_parser("action", help="almost actions")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("defect")
    q.add_argument("presentation")
    q.add_argument("action")
    q.set_defaults(func=cmd_action_defect)
    q = ps.add_parser("repair")
    q.add_argument("presentation")
    q.add_argument("action")
    q.add_argument("--tau", default="tau")
    q.add_argument("--out", default=None)
    q.add_argument("--report", default=None)
    q.set_defaults(func=cmd_action_repair)
    q = ps.add_parser("separation")
    q.add_argument("presentation")
    q.add_argument("action")
    q.add_argument("-L", "--length", type=int, default=3)
    q.set_defaults(func=cmd_action_separation)

    p = sub.add_parser("cover", help="covering spaces")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("build")
    q.add_argument("complex")
    q.add_argument("action")
    q.add_argument("-o", "--out", default=None)
    q.set_defaults(func=cmd_cover_build)
    q = ps.add_parser("experiment")
    q.add_argument("complex")
    q.add_argument("phi")
    q.add_argument("psi")
    q.add_argument("f")
    q.set_defaults(func=cmd_cover_experiment)

    p = sub.add_parser("sym", help="partial-permutation cochains")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("delta")
    q.add_argument("complex")
    q.add_argument("f")
    g = q.add_mutually_exclusive_group()
    g.add_argument("--strict", action="store_true")
    g.add_argument("--lenient", dest="strict", action="store_false")
    q.set_defaults(func=cmd_sym_delta, strict=False)
    q = ps.add_parser("correct-edge")
    q.add_argument("f")
    q.add_argument("u", type=int)
    q.add_argument("v", type=int)
    q.add_argument("--eta1", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_sym_correct_edge)
    q = ps.add_parser("delete")
    q.add_argument("f")
    q.add_argument("--out", default=None)
    q.add_argument("--report", default=None)
    q.set_defaults(func=cmd_sym_delete)
    q = ps.add_parser("good-check")
    q.add_argument("f")
    q.add_argument("-L", "--length", type=int, default=8)
    q.add_argument("--budget", type=int, default=50000)
    q.set_defaults(func=cmd_sym_good_check)

    p = sub.add_parser("experiment", help="seeded end-to-end pipelines")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("run")
    q.add_argument("--epsilon", default="0")
    q.add_argument("--fiber", type=int, default=6)
    q.add_argument("--extra", type=int, default=0)
    q.add_argument("--mode", default="coboundary", choices=["coboundary", "zero"])
    q.set_defaults(func=cmd_experiment_run)
    q = ps.add_parser("sweep")
    q.add_argument("--epsilons", default="0,1/100,1/50,1/20,1/10")
    q.add_argument("--runs", type=int, default=4, help="seeds per epsilon")
    q.add_argument("--fiber", type=int, default=6)
    q.add_argument("--extra", type=int, default=0)
    q.add_argument("--mode", default="coboundary", choices=["coboundary", "zero"])
    q.set_defaults(func=cmd_experiment_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 2
    except (PermstabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
