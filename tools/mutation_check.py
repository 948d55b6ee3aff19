"""Mutation check: every listed mutant of the source must fail the tests named for it.

Usage, from the root of the checkout:

    python3 tools/mutation_check.py

The checkout (without ``.git``) is copied to a temporary directory once.  The
named tests are first run on the unmutated copy and must pass there; then each
mutation replaces its old text, which must occur exactly once in its file, runs
its tests with ``pytest -x`` and restores the file.  The script exits 1 when a
mutant survives, when an old text does not occur exactly once, or when the
unmutated tests fail.  It uses the standard library only (plus the ``pytest``
the tests need) and is not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/permstab/"

# (name, file, old text, new text, tests that must fail)
MUTATIONS = (
    # covers: one component search, one cover-triangle classifier
    (
        "components-reordered",
        PKG + "covers.py",
        "    for v in x.vertices:\n        if v not in seen:",
        "    for v in reversed(x.vertices):\n        if v not in seen:",
        ["tests/test_covers.py::test_connected_components_match_union_find"],
    ),
    (
        "cover-tree-without-forest-first",
        PKG + "covers.py",
        "    for (a, b) in forest:\n        dsu.union(a, b)\n        chosen.add((a, b))\n",
        "",
        ["tests/test_covers.py::test_cover_tree_keeps_every_lift_of_the_base_tree"],
    ),
    (
        "cover-tree-rooted-elsewhere",
        PKG + "covers.py",
        "+ list(chosen)), v0)",
        "+ list(chosen)), min(comp))",
        ["tests/test_covers.py::test_cover_tree_keeps_every_lift_of_the_base_tree"],
    ),
    (
        "tracked-ignores-the-phi-sign",
        PKG + "covers.py",
        "z == p + signed for p, z",
        "z == p for p, z",
        [
            "tests/test_cover_lift.py::test_cover_and_walkers_match_naive_oracle_seeded",
            "tests/test_cover_lift.py::test_experiment_reports_are_pinned",
        ],
    ),
    (
        "all-instead-of-any-edge-type",
        PKG + "covers.py",
        "not (first[ab + s] and first[bc + t] and first[ac + s])",
        "not (first[ab + s] or first[bc + t] or first[ac + s])",
        ["tests/test_cover_lift.py::test_cover_and_walkers_match_naive_oracle_seeded"],
    ),
    (
        "first-type-check-ignores-edge-types",
        PKG + "covers.py",
        "if tracked and not second",
        "if tracked",
        ["tests/test_cover_lift.py::test_cover_and_walkers_match_naive_oracle_seeded"],
    ),
    # covers: the cover lifted fiber by fiber, and the walkers reading the lift record
    (
        "lift-closure-unchecked",
        PKG + "covers.py",
        'raise PermstabError(f"fiberwise lift failed in dimension {k - 1}")',
        "pass",
        ["tests/test_cover_lift.py::test_build_cover_refuses_a_lift_that_is_not_closed"],
    ),
    (
        "triangles-left-unsorted",
        PKG + "covers.py",
        "order = sorted(range(len(lifted)), key=lifted.__getitem__)",
        "order = sorted(range(len(lifted)), key=lifted.__getitem__) if k != 2 else list(range(len(lifted)))",
        ["tests/test_cover_lift.py::test_cover_and_walkers_match_naive_oracle_seeded"],
    ),
    (
        "pull-back-fiber-point-as-base-cell",
        PKG + "covers.py",
        'digits = "".join(d * m for d in base_digits)',
        "digits = base_digits * m",
        ["tests/test_cover_lift.py::test_cover_and_walkers_match_naive_oracle_seeded"],
    ),
    (
        "zeta-sign-bit-dropped",
        PKG + "covers.py",
        'signs.append("1" if first and img & 1 else "0")',
        'signs.append("1" if first else "0")',
        ["tests/test_cover_lift.py::test_cover_and_walkers_match_naive_oracle_seeded"],
    ),
    (
        "verify-cover-repeated-pair-unchecked",
        PKG + "covers.py",
        "            or len(pairs) != (k + 1) * len(cells)\n",
        "",
        ["tests/test_cover_lift.py::test_verify_cover_rejects_a_star_that_repeats_a_projection_with_every_count_right"],
    ),
    # experiments: one noise core, its rate and pairing checked before any noise is drawn
    (
        "partner-left-uninverted",
        PKG + "experiments.py",
        "images[partner[g]] = noised.inverse()",
        "images[partner[g]] = noised",
        ["tests/test_experiments.py::test_noise_injectors_match_pinned_digests"],
    ),
    (
        "skip-leaves-partner-noised",
        PKG + "experiments.py",
        "done = set(skip) | {partner[g] for g in skip if g in partner}",
        "done = set(skip)",
        [
            "tests/test_experiments.py::test_signed_noise_leaves_a_paired_tau_alone",
            "tests/test_experiments.py::test_noise_injectors_match_pinned_digests",
        ],
    ),
    (
        "noise-other-stream",
        PKG + "experiments.py",
        "draw(action.space, eps, rng.spawn(g))",
        "draw(action.space, eps, rng.spawn((g,)))",
        ["tests/test_experiments.py::test_noise_injectors_match_pinned_digests"],
    ),
    (
        "noise-rate-unchecked",
        PKG + "experiments.py",
        "    if not 0 <= eps <= 1:\n",
        "    if False:\n",
        ["tests/test_experiments.py::test_noise_injectors_refuse_a_rate_outside_the_unit_interval"],
    ),
    (
        "noise-generator-in-two-pairs-accepted",
        PKG + "experiments.py",
        "            if g in partner:\n                raise",
        "            if False:\n                raise",
        ["tests/test_experiments.py::test_noise_refuses_a_generator_in_two_pairs"],
    ),
    (
        "noise-self-pair-accepted",
        PKG + "experiments.py",
        "if a == b and a not in skip:",
        "if False:",
        ["tests/test_experiments.py::test_noise_refuses_a_noised_generator_paired_with_itself"],
    ),
    (
        "noise-skipped-self-pair-refused",
        PKG + "experiments.py",
        "if a == b and a not in skip:",
        "if a == b:",
        ["tests/test_experiments.py::test_noise_refuses_a_noised_generator_paired_with_itself"],
    ),
    # cohomology: one set-bit walk, one XOR of rows
    (
        "set-bit-skipped",
        PKG + "cohomology.py",
        "    while bits:\n        yield",
        "    while bits & (bits - 1):\n        yield",
        [
            "tests/test_cohomology.py::test_coboundary_matches_face_sums",
            "tests/test_cohomology.py::test_weighted_norm_is_the_weight_of_the_support",
        ],
    ),
    (
        "rows-or-instead-of-xor",
        PKG + "cohomology.py",
        "out ^= rows[i]",
        "out |= rows[i]",
        ["tests/test_cohomology.py::test_coboundary_matches_face_sums"],
    ),
    # fileio: one integer-line parser
    (
        "integer-line-wrong-line-number",
        PKG + "fileio.py",
        "raise FormatError(message, lineno) from None",
        "raise FormatError(message, lineno + 1) from None",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
    # fileio: one block splitter for action and sym cochain files
    (
        "sym-cell-header-keeps-keyword",
        PKG + "fileio.py",
        "key = parse_key(line.split(None, 1)[1], lineno)",
        "key = parse_key(line, lineno)",
        ["tests/test_cli.py::test_sym_cochain_round_trip"],
    ),
    (
        "pre-header-line-accepted",
        PKG + "fileio.py",
        "                raise FormatError(f\"index line before any '{keyword}' header\", lineno)\n",
        "                continue\n",
        [
            "tests/test_cli.py::test_malformed_headers_raise_format_error",
            "tests/test_cli.py::test_sym_cochain_index_lines_are_strict",
        ],
    ),
    (
        "repeated-block-accepted",
        PKG + "fileio.py",
        '        if key in seen:\n            raise FormatError(f"{keyword} {key} given twice", lineno)\n',
        "",
        [
            "tests/test_cli.py::test_malformed_headers_raise_format_error",
            "tests/test_cli.py::test_sym_cochain_index_lines_are_strict",
        ],
    ),
    (
        "unknown-generator-accepted",
        PKG + "fileio.py",
        "        if name not in presentation.generators:\n",
        "        if False:\n",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
    # complexes: the empty complex without a subclass
    (
        "vertices-read-top-level",
        PKG + "complexes.py",
        "return tuple(c[0] for c in self.cells(0))",
        "return tuple(c[0] for c in self.faces_by_dim[0])",
        ["tests/test_complexes.py::test_link_examples"],
    ),
    # symcochains: cycle_domain checks the complex
    (
        "cycle-domain-without-check",
        PKG + "symcochains.py",
        '        raise PermstabError("cycle lives on a different complex")\n    return _walk_domain',
        "        pass\n    return _walk_domain",
        ["tests/test_cycles.py::test_walk_composite_and_domain_match_the_fold"],
    ),
    # symcochains: one reading of moved indices, one descent, one walk composite, one gauge shift
    (
        "violations-count-undefined",
        PKG + "symcochains.py",
        "if val is not None and val != j]",
        "if val != j]",
        ["tests/test_sym.py::test_triangle_statistics_match_their_definitions"],
    ),
    (
        "fixed-points-counted-as-moved",
        PKG + "symcochains.py",
        "if val is not None and val != j]",
        "if val is not None]",
        ["tests/test_sym.py::test_triangle_statistics_match_their_definitions"],
    ),
    (
        "strict-flag-flipped",
        PKG + "symcochains.py",
        "comp.images.count(None) if strict else 0",
        "comp.images.count(None) if not strict else 0",
        ["tests/test_sym.py::test_triangle_statistics_match_their_definitions"],
    ),
    (
        "counterexample-ignores-domain",
        PKG + "symcochains.py",
        "                if j in dom:\n",
        "                if True:\n",
        ["tests/test_sym.py::test_good_function_ignores_moves_outside_the_edgewise_domain"],
    ),
    (
        "descent-self-swap",
        PKG + "symcochains.py",
        "for b in range(a + 1, n):",
        "for b in range(a, n):",
        ["tests/test_builders.py::test_eta_minimality_matches_the_first_violation"],
    ),
    (
        "descent-stop-ignored",
        PKG + "symcochains.py",
        "if stop(best):",
        "if False:",
        ["tests/test_builders.py::test_eta_minimality_matches_the_first_violation"],
    ),
    (
        "triangle-open-walk",
        PKG + "symcochains.py",
        "_walk_composite(f, (u, v, w, u))",
        "_walk_composite(f, (u, v, w))",
        ["tests/test_sym.py::test_triangle_statistics_match_their_definitions"],
    ),
    (
        "gauge-shift-inverted",
        PKG + "symcochains.py",
        "return twist(identity_cochain(x, 1, next(iter(g.values())).n), g)",
        "return twist(identity_cochain(x, 1, next(iter(g.values())).n), {v: p.inverse() for v, p in g.items()})",
        ["tests/test_sym.py::test_vertex_coboundary_is_cocycle"],
    ),
    (
        "twist-vertex-check-dropped",
        PKG + "symcochains.py",
        "        raise PermstabError(\"twisting is defined for edge cochains\")\n    _require_vertex_values(f.complex, h)\n",
        "        raise PermstabError(\"twisting is defined for edge cochains\")\n",
        ["tests/test_sym.py::test_gauge_shift_needs_a_value_at_every_vertex"],
    ),
    # actions: relations measured over point columns, inverse pairs by one-line views
    (
        "inverse-pair-line-against-line",
        PKG + "actions.py",
        "self.images[a]._inverse_line != self.images[b]._line",
        "self.images[a]._line != self.images[b]._line",
        ["tests/test_actions.py::test_inverse_pairs_are_checked_by_point_maps"],
    ),
    (
        "pipeline-passes-input-defect",
        PKG + "experiments.py",
        "eps=stage.defect_out",
        "eps=stage.defect_in",
        ["tests/test_actions.py::test_pipeline_report_is_the_same_with_the_measured_defect_passed_in"],
    ),
    (
        "action-labels-past-space-accepted",
        PKG + "fileio.py",
        "if space is not None and max(x, y) >= space:",
        "if False:",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
    (
        "loader-block-fault-without-header-line",
        PKG + "fileio.py",
        "        if set(mapping) != set(mapping.values()):\n",
        "        if False:\n",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
    (
        "loader-pair-fault-without-header-line",
        PKG + "fileio.py",
        "if a in mappings and b in mappings and mappings[b]",
        "if False and mappings[b]",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
    # actions: one statement of the central-extension relations
    (
        "tau-squared-dropped",
        PKG + "actions.py",
        "return [((tau, 1), (tau, 1))] + [",
        "return [",
        ["tests/test_builders.py::test_presentations_match_the_oracle_seeded"],
    ),
    # boundary checks: fraction arguments, the sym index count, the normalization bound
    (
        "fraction-division-by-zero-escapes",
        PKG + "cli.py",
        "except (ValueError, ZeroDivisionError):",
        "except ValueError:",
        ["tests/test_cli.py::test_cli_exit_codes"],
    ),
    (
        "sym-header-accepts-n-zero",
        PKG + "fileio.py",
        "if n < 1:",
        "if n < 0:",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
    (
        "pipeline-ignores-normalization-bound",
        PKG + "experiments.py",
        "if not stage.holds:",
        "if False:",
        ["tests/test_experiments.py::test_run_pipeline_refuses_a_failed_normalization_bound"],
    ),
    # perms: every label of an ErrPerm lies in range(size), checked where it is built
    (
        "last-point-may-equal-size",
        PKG + "perms.py",
        "domain[-1] < size",
        "domain[-1] <= size",
        ["tests/test_perms.py::test_errperm_label_bounds_at_the_edges"],
    ),
    (
        "negative-image-accepted",
        PKG + "perms.py",
        "0 <= min(images) and ",
        "",
        ["tests/test_perms.py::test_errperm_label_bounds_at_the_edges"],
    ),
    (
        "stage2-old-tau-on-its-own-size",
        PKG + "actions.py",
        "d2 = hamming(inv, fpf)",
        "d2 = hamming(inv, fpf) * twice / inv.size",
        [
            "tests/test_actions.py::test_stage_reports_and_separation_are_pinned",
            "tests/test_trusted_construction.py::test_stage2_distance_matches_the_relabeled_images",
        ],
    ),
    (
        "loader-negative-point-accepted",
        PKG + "fileio.py",
        "            if min(x, y) < 0:\n",
        "            if False:\n",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
    (
        "inferred-space-one-short",
        PKG + "fileio.py",
        "space = 1 + max(",
        "space = max(",
        ["tests/test_cli.py::test_action_without_space_keeps_the_inferred_size"],
    ),
    (
        "presentation-unknown-name-unlined",
        PKG + "fileio.py",
        "            if name not in gens:\n",
        "            if False:\n",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
    # symcochains: a checked cochain is read-only
    (
        "sym-values-left-mutable",
        PKG + "symcochains.py",
        '        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))\n',
        "",
        ["tests/test_sym.py::test_values_are_frozen_after_validation"],
    ),
    # perms: the involution check reads the square of zeta
    (
        "square-is-zeta",
        PKG + "perms.py",
        "if any(line[y] != x for x, y in enumerate(line)):",
        "if any(y != x for x, y in enumerate(line)):",
        ["tests/test_perms.py::test_fix_fixed_point_free_examples"],
    ),
    # perms, actions, covers, experiments: total permutations read as one-line arrays
    (
        "line-without-trailing-error",
        PKG + "perms.py",
        "line = [ERROR] * (self.size + 1)\n        for x, y in zip(self.domain, self.images):\n            line[x] = y",
        "line = [ERROR] * self.size\n        for x, y in zip(self.domain, self.images):\n            line[x] = y",
        [
            "tests/test_actions.py::test_word_evaluation_matches_the_oracle_seeded",
            "tests/test_oracles.py::test_sign_twisted_lift_matches_the_signed_double_seeded",
        ],
    ),
    (
        "inverse-line-filled-forward",
        PKG + "perms.py",
        "            line[y] = x\n",
        "            line[x] = y\n",
        [
            "tests/test_actions.py::test_word_evaluation_matches_the_oracle_seeded",
            "tests/test_oracles.py::test_point_views_match_the_point_map_seeded",
        ],
    ),
    (
        "defect-takes-the-most-fixed-relation",
        PKG + "actions.py",
        "min((_fixed_count(action, rel)",
        "max((_fixed_count(action, rel)",
        ["tests/test_actions.py::test_defect_matches_the_oracle_seeded"],
    ),
    (
        "commute-repair-good-pair-inverted",
        PKG + "perms.py",
        "good = [y ^ 1 == z for",
        "good = [y ^ 1 != z for",
        [
            "tests/test_oracles.py::test_commute_repair_outputs_are_pinned",
            "tests/test_perms.py::test_commute_exhaustive_small",
        ],
    ),
    (
        "lift-negative-point-keeps-the-sign",
        PKG + "experiments.py",
        "line += (2 * y + bit, 2 * y + (1 ^ bit))",
        "line += (2 * y + bit, 2 * y + bit)",
        ["tests/test_oracles.py::test_sign_twisted_lift_matches_the_signed_double_seeded"],
    ),
    (
        "hamming-divides-by-the-smaller-set",
        PKG + "perms.py",
        "denom = max(a.size, b.size)",
        "denom = min(a.size, b.size)",
        [
            "tests/test_oracles.py::test_hamming_matches_the_definition_seeded",
            "tests/test_oracles.py::test_hamming_divides_by_the_larger_set",
        ],
    ),
    (
        "sign-cochain-line-unpadded",
        PKG + "covers.py",
        "pad = [ERROR] * (2 * cov.fiber_size - psi.space)",
        "pad = []",
        ["tests/test_actions.py::test_sweep_csv_bytes_are_pinned"],
    ),
    (
        "compose-line-unpadded",
        PKG + "perms.py",
        "line = f._line + [ERROR] * (g.size - f.size)",
        "line = f._line",
        ["tests/test_oracles.py::test_compose_matches_the_left_fold_seeded"],
    ),
    # perms, actions, experiments, covers: validation where input enters, settled results not recomputed
    (
        "from-mapping-unchecked",
        PKG + "perms.py",
        "        return ErrPerm(\n            size if size is not None else len(pts),",
        "        return ErrPerm._trusted(\n            size if size is not None else len(pts),",
        ["tests/test_trusted_construction.py::test_public_constructors_refuse_bad_tables"],
    ),
    (
        "relabel-injectivity-unchecked",
        PKG + "perms.py",
        "        if len({table[x] for x in points}) != len(points):\n",
        "        if False:\n",
        ["tests/test_trusted_construction.py::test_relabel_refuses_a_table_that_merges_points"],
    ),
    (
        "stage2-distance-without-the-padding-point",
        PKG + "actions.py",
        "d2 = hamming(inv, fpf)",
        "d2 = hamming(inv, fpf) - Fraction(twice - inv.size, twice)",
        [
            "tests/test_actions.py::test_stage_reports_and_separation_are_pinned",
            "tests/test_trusted_construction.py::test_stage2_distance_matches_the_relabeled_images",
        ],
    ),
    (
        "action-images-left-mutable",
        PKG + "actions.py",
        "        self.images = MappingProxyType(dict(self.images))\n",
        "",
        ["tests/test_trusted_construction.py::test_action_images_are_read_only"],
    ),
    (
        "trusted-action-images-left-mutable",
        PKG + "actions.py",
        "images=MappingProxyType(images))",
        "images=images)",
        ["tests/test_trusted_construction.py::test_action_images_are_read_only"],
    ),
    (
        "lift-inverse-pairs-unchecked",
        PKG + "experiments.py",
        "        if [shadow[g][y] for y in shadow[h]] != fixed:\n",
        "        if False:\n",
        ["tests/test_trusted_construction.py::test_sign_twisted_lift_refuses_edge_images_that_are_not_inverse"],
    ),
    (
        "cover-pure-regardless-of-base",
        PKG + "covers.py",
        "SimplicialComplex._of_known_purity(tuple(faces), x.is_pure)",
        "SimplicialComplex._of_known_purity(tuple(faces), True)",
        ["tests/test_trusted_construction.py::test_cover_purity_is_what_the_check_computes"],
    ),
    # earlier refactors: the rewriting relation, facets, the CSV writer, the reference kernels
    (
        "te-length-guard",
        PKG + "symcochains.py",
        "if length + 1 <= max_len:",
        "if length + 2 <= max_len:",
        ["tests/test_cycles.py::test_steps_match_the_oracle_relation"],
    ),
    (
        "ee-neighbour-order",
        PKG + "symcochains.py",
        "for nb in x.neighbors(v):",
        "for nb in reversed(x.neighbors(v)):",
        [
            "tests/test_cycles.py::test_steps_match_the_oracle_relation",
            "tests/test_cycles.py::test_steps_come_in_the_documented_order",
        ],
    ),
    (
        "contractible-start-unchecked",
        PKG + "symcochains.py",
        "    Cycle(x, cycle.verts)  # the one validation",
        "    # the one validation",
        ["tests/test_cycles.py::test_is_contractible_validates_its_start_once"],
    ),
    (
        "facets-wrong-level",
        PKG + "complexes.py",
        "covered = {face for c in above for face in combinations(c, k + 1)}",
        "covered = {face for c in above for face in combinations(c, k)}",
        ["tests/test_builders.py::test_facets_are_the_maximal_cells_seeded"],
    ),
    (
        "csv-crlf",
        PKG + "fileio.py",
        'lineterminator="\\n"',
        'lineterminator="\\r\\n"',
        ["tests/test_builders.py::test_rows_to_csv_is_pinned", "tests/test_builders.py::test_csv_writers_are_pinned"],
    ),
    # the naive oracles: the rewriting relation, walk values, the audit, the searches and the distance
    (
        "te-inserts-before-the-edge",
        PKG + "symcochains.py",
        'yield "TE", p, tri, verts[: p + 1] + (mid,) + verts[p + 1 :]',
        'yield "TE", p, tri, verts[:p] + (mid,) + verts[p:]',
        ["tests/test_cycles.py::test_steps_match_the_oracle_relation"],
    ),
    (
        "walk-composed-last-edge-first",
        PKG + "symcochains.py",
        "out = f.value_on((a, b)).compose(out)",
        "out = out.compose(f.value_on((a, b)))",
        ["tests/test_cycles.py::test_walk_composite_and_domain_match_the_fold"],
    ),
    (
        "ee-gap-counts-undefined-start",
        PKG + "symcochains.py",
        "if comp.apply(j) is not None and b.apply(j) is None",
        "if b.apply(j) is None",
        ["tests/test_cycles.py::test_good_function_check_matches_the_oracle_on_criterion_10_inputs"],
    ),
    (
        "step-violation-counts-undefined-end",
        PKG + "symcochains.py",
        "if va is not None and vb is not None and va != vb:",
        "if va is not None and va != vb:",
        ["tests/test_cycles.py::test_good_function_check_matches_the_oracle_on_criterion_10_inputs"],
    ),
    (
        "audit-bases-reversed",
        PKG + "symcochains.py",
        "for base in sorted(x.vertices):",
        "for base in sorted(x.vertices, reverse=True):",
        ["tests/test_cycles.py::test_good_function_check_matches_the_oracle_on_criterion_10_inputs"],
    ),
    (
        "contraction-route-unreversed",
        PKG + "symcochains.py",
        "return ContractionVerdict(True, list(reversed(seq)), explored, False)",
        "return ContractionVerdict(True, seq, explored, False)",
        ["tests/test_cycles.py::test_is_contractible_routes_are_shortest_and_explored_counts_pinned"],
    ),
    (
        "contraction-budget-one-over",
        PKG + "symcochains.py",
        "while queue and explored < max_steps:",
        "while queue and explored <= max_steps:",
        ["tests/test_cycles.py::test_is_contractible_routes_are_shortest_and_explored_counts_pinned"],
    ),
    (
        "assignments-last-vertex-fastest",
        PKG + "symcochains.py",
        "yield dict(zip(verts, reversed(combo)))",
        "yield dict(zip(verts, combo))",
        ["tests/test_builders.py::test_eta_minimality_matches_the_first_violation"],
    ),
    (
        "gauge-score-adds-the-distance",
        PKG + "symcochains.py",
        "return eta * (wf - weight(g)) - sym_distance(f, g)",
        "return eta * (wf - weight(g)) + sym_distance(f, g)",
        ["tests/test_builders.py::test_eta_minimality_matches_the_first_violation"],
    ),
    (
        "vertex-link-fit-last-minimum",
        PKG + "symcochains.py",
        "g = min(_assignments(link_verts, f.n), key=objective)",
        "g = min(reversed(list(_assignments(link_verts, f.n))), key=objective)",
        ["tests/test_builders.py::test_vertex_link_correction_matches_the_first_minimum_fit"],
    ),
    (
        "vertex-link-adoption-strict",
        PKG + "symcochains.py",
        "if Fraction(before - after, total) >= eta1:",
        "if Fraction(before - after, total) > eta1:",
        ["tests/test_builders.py::test_vertex_link_correction_matches_the_first_minimum_fit"],
    ),
    (
        "vote-share-strict",
        PKG + "symcochains.py",
        "if Fraction(top_c, defined) >= eta1:",
        "if Fraction(top_c, defined) > eta1:",
        ["tests/test_builders.py::test_single_edge_correction_matches_the_majority_vote"],
    ),
    (
        "vote-drop-at-the-threshold",
        PKG + "symcochains.py",
        "elif all(Fraction(c, defined) < 1 - eta1",
        "elif all(Fraction(c, defined) <= 1 - eta1",
        ["tests/test_builders.py::test_single_edge_correction_matches_the_majority_vote"],
    ),
    (
        "backtrack-word-reversed",
        PKG + "complexes.py",
        "relations.append(((edge_gen(a, b), 1), (edge_gen(b, a), 1)))",
        "relations.append(((edge_gen(b, a), 1), (edge_gen(a, b), 1)))",
        ["tests/test_builders.py::test_presentations_match_the_oracle_seeded"],
    ),
    (
        "inverse-letter-read-forward",
        PKG + "actions.py",
        "lines.append(perm._inverse_line if exp < 0 else perm._line)",
        "lines.append(perm._line)",
        ["tests/test_actions.py::test_word_evaluation_matches_the_oracle_seeded"],
    ),
    (
        "sym-distance-missing-index-agrees",
        PKG + "symcochains.py",
        "mism = m - shared\n",
        "mism = 0\n",
        ["tests/test_sym.py::test_sym_distance_matches_the_definition"],
    ),
    # negative sizes and the loader lines
    (
        "errperm-negative-size-accepted",
        PKG + "perms.py",
        "        if size < 0:\n",
        "        if False:\n",
        ["tests/test_trusted_construction.py::test_public_constructors_refuse_bad_tables"],
    ),
    (
        "action-negative-space-accepted",
        PKG + "actions.py",
        "        if self.space < 0:\n",
        "        if False:\n",
        ["tests/test_trusted_construction.py::test_public_constructors_refuse_bad_tables"],
    ),
    (
        "complex-negative-vertex-unlined",
        PKG + "fileio.py",
        "        if min(face) < 0:\n",
        "        if False:\n",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
    (
        "cochain-cell-size-unlined",
        PKG + "fileio.py",
        "        if len(cell) != k + 1:\n",
        "        if False:\n",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
    (
        "cochain-cell-outside-unlined",
        PKG + "fileio.py",
        "        if not x.has_cell(cell):\n",
        "        if False:\n",
        ["tests/test_cli.py::test_malformed_headers_raise_format_error"],
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "perfbench-out")
    shutil.copytree(ROOT, dest, ignore=ignore, dirs_exist_ok=True)


def _pytest(tree: Path, tests) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode == 0


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        tests = sorted({t for m in MUTATIONS for t in m[4]})
        if not _pytest(tree, tests):
            print("the named tests fail on the unmutated checkout")
            return 1
        for name, rel, old, new, must_fail in MUTATIONS:
            path = tree / rel
            source = path.read_text()
            if source.count(old) != 1:
                problems.append(f"{name}: old text occurs {source.count(old)} times in {rel}")
                print(f"stale   {name}")
                continue
            path.write_text(source.replace(old, new))
            try:
                survived = _pytest(tree, must_fail)
            finally:
                path.write_text(source)
            print(f"{'SURVIVED' if survived else 'killed'}  {name}")
            if survived:
                problems.append(f"{name}: {rel} mutant passes {' '.join(must_fail)}")
    for p in problems:
        print(p)
    print(f"{len(MUTATIONS) - len(problems)} of {len(MUTATIONS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
