#!/usr/bin/env python3
"""Mutation check of the checkers, the rows and objective verify places, the
input decoders, the rational formatter, build_lp's integer tables and row
dedup, the simplex tableau's row scans and rhs column, the tensor power, the
stage-1 search, the stage-2 refit, the size guards, the inputs measures
refuses, the CLI's generator flags, its empty flag values, its argparse
refusals and its exit codes: every mutant below must fail a test.

A mutant is one exact string replacement in one file, plus the test that
killed it in the last full sweep: (name, file, old, new, killer).  The runner
copies src/, tests/, scripts/, pyproject.toml and the stored certificates the
tests read (perfbench/stored/) to a temporary directory and runs
`python -m pytest -x -q tests` there (less the two tests that check this list
against the tree and against the last sweep), unmutated, which must pass.
Then, once per mutant on a fresh copy with that one replacement applied, it
runs the recorded killer first, and the whole suite only if the killer passes
(DeMillo, Lipton and Sayward, IEEE Computer 11(4), 1978, order tests by how
likely they are to kill).  It prints the test that failed, and the recorded
killer too when that was another test.  A mutant whose runs pass has
survived: the tests do not pin the check it breaks.  A pytest run still going
after RUN_TIMEOUT_S is stopped, and its mutant is TIMED OUT, neither killed
nor survived: a mutant that removes a guard can make a test run without end.
At the end of a full sweep it writes one line per mutant to SWEEP_FILE,
tab-separated: name, outcome (killed, SURVIVED or TIMED OUT), the test that
failed (empty unless killed) and seconds.  The exit code is 1 if any mutant
survived or timed out.  A sweep takes about three minutes on a 2-vCPU host,
one of them the unmutated run; it is not part of the test suite.

Usage:
    python scripts/mutants.py
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml", "perfbench/stored")
# The first checks the mutant list against the tree it runs in, so every mutated
# copy fails it, and every mutant would count as killed; the second checks the
# list against the last sweep, which a new mutant is not in until a sweep runs.
DESELECTED = ("tests/test_scripts.py::test_every_mutant_applies_exactly_once",
              "tests/test_scripts.py::test_the_last_sweep_killed_every_mutant")
SWEEP_FILE = ROOT / "scripts" / "mutants_last_sweep.tsv"
# seconds one pytest run may take; the whole suite takes under a minute on a 2-vCPU host
RUN_TIMEOUT_S = 300
TIMED_OUT = "TIMED OUT"

RATLP = "src/nodistill/ratlp.py"
CERTIFIER = "src/nodistill/certifier.py"
RAT = "src/nodistill/rat.py"
CLI = "src/nodistill/cli.py"
MEASURES = "src/nodistill/measures.py"
PROBVEC = "src/nodistill/probvec.py"

MUTANTS = (
    # verify_certificate
    ("unknown-verdict", CERTIFIER,
     'return fail(f"unknown verdict {cert.verdict!r}")', "pass",
     "tests/test_certifier.py::test_verify_refuses_an_unknown_verdict"),
    ("undistillable-optimum-boundary", CERTIFIER,
     "if cert.optimum > 0:", "if cert.optimum > 1:",
     "tests/test_certifier.py::test_verify_refuses_undistillable_with_optimum_one"),
    ("inconclusive-optimum-boundary", CERTIFIER,
     "if cert.optimum <= 0:", "if cert.optimum < 0:",
     "tests/test_certifier.py::test_verify_refuses_inconclusive_with_optimum_zero"),
    ("witness-axes-unchecked", CERTIFIER,
     "if cert.primal.axes != setup.q_axes():", "if False:",
     "tests/test_certifier.py::test_verify_refuses_a_witness_on_other_axes"),
    ("certificate-lambda0-unbound", CERTIFIER,
     "if cert.lambda0 != lambda0:", "if False:",
     "tests/test_cli.py::test_verify_binds_the_certificate_lambda0"),
    ("fingerprint-unchecked", CERTIFIER,
     "if cert.fingerprint != problem_fingerprint(g, family, lambda0):", "if False:",
     "tests/test_certifier.py::test_verify_wrong_g_fingerprint"),
    ("digest-unchecked", CERTIFIER,
     "if cert.digest != _certificate_digest(cert):", "if False:",
     "tests/test_acceptance.py::test_criterion_8_certificate_integrity"),
    ("size-guard-boundary", CERTIFIER,
     "if dm > MAX_DM:", "if dm > MAX_DM + 1:",
     "tests/test_certifier.py::test_size_guard_boundary"),
    ("guard-skips-variable-count", CERTIFIER,
     "if (factor - 1).bit_length() + dm > MAX_DM + 4:", "if False:",
     "tests/test_certifier.py::test_size_guard_boundary"),
    ("problem-skips-guard", CERTIFIER,
     "check_size_guard(*alphabet_sizes(self.g), self.m)", "pass",
     "tests/test_certifier.py::test_size_guard_boundary"),
    ("verify-guard-refusal-as-invalid", CERTIFIER,
     "    setup = CertificationProblem(g=g, family=family, lambda0=lambda0)\n",
     "    try:\n"
     "        setup = CertificationProblem(g=g, family=family, lambda0=lambda0)\n"
     "    except SizeGuardError as exc:\n"
     '        return fail(f"cannot rebuild program: {exc}")\n',
     "tests/test_cli.py::test_verify_refuses_a_program_over_the_bound_as_certify_does"),
    ("certify-self-check-skipped", CERTIFIER,
     "if not ratlp.check_solution(build.problem, sol):", "if False:",
     "tests/test_cli.py::test_certify_exits_4_when_the_solver_output_fails_its_check"),
    # the rows and objective verify_certificate places
    ("family-row-in-one-witness-block", CERTIFIER,
     "blocks = support if block is None else", "blocks = list(support)[:1] if block is None else",
     "tests/test_certifier.py::test_verify_makes_only_the_rows_a_certificate_reads[aka-M5]"),
    ("selector-row-in-every-witness-block", CERTIFIER,
     "blocks = support if block is None else (block,) if block in support else ()", "blocks = support",
     "tests/test_certifier.py::test_verify_makes_only_the_rows_a_certificate_reads[aka-M5]"),
    ("norm-row-empty-for-a-witness", CERTIFIER,
     "return ratlp.LpRow(dict.fromkeys(keys, 1), ratlp.SENSE_EQ, 1) if keys else _UNREAD_NORM",
     "return ratlp.LpRow(dict.fromkeys(keys, 1), ratlp.SENSE_EQ, 1) if support is None else _UNREAD_NORM",
     "tests/test_certifier.py::test_verify_makes_only_the_rows_a_certificate_reads[aka-M5]"),
    ("witness-objective-on-no-entries", CERTIFIER,
     "_placed(obj_tables, 0, None, nk, support)", "_placed(obj_tables, 0, None, nk, support and {})",
     "tests/test_certifier.py::test_verify_makes_only_the_rows_a_certificate_reads[aka-M5]"),
    ("zero-multiplier-test-inverted", CERTIFIER,
     "read = {r for r, v in enumerate(y) if v != 0}", "read = {r for r, v in enumerate(y) if v == 0}",
     "tests/test_certifier.py::test_verify_reads_a_dual_on_the_norm_row_alone"),
    ("unread-norm-row-rhs-0", CERTIFIER,
     "_UNREAD_NORM = ratlp.LpRow({}, ratlp.SENSE_EQ, 1)", "_UNREAD_NORM = ratlp.LpRow({}, ratlp.SENSE_EQ, 0)",
     "tests/test_certifier.py::test_verify_names_the_row_a_witness_fails[empty]"),
    # certificate I/O
    ("multiplier-memo-hit-is-the-first-parsed", CERTIFIER,
     "return tuple(parsed[t] if", "return tuple(next(iter(parsed.values())) if",
     "tests/test_certifier.py::test_verify_makes_only_the_rows_a_certificate_reads[unif-M5]"),
    ("format-fast-path-for-any-value", RAT,
     "f = x if type(x) is Fraction else ensure_fraction(x)", "f = x",
     "tests/test_rat.py::test_format_refuses_floats_and_bools[0.5]"),
    # build_lp
    ("row-key-without-block", CERTIFIER,
     "key = ((k, keys[s]),)", "key = (keys[s],)",
     "tests/test_acceptance.py::test_criterion_5_soundness_anchors"),
    ("table-gcd-without-den", CERTIFIER,
     "g = gcd(den, *(c for t in tables for _, c in t))", "g = gcd(*(c for t in tables for _, c in t))",
     "tests/test_certifier.py::test_integer_tables_match_the_fraction_oracle[0-2/3]"),
    ("family-tables-drop-lambda0-denominator", CERTIFIER,
     "[4 * ld * p for p in a]", "[4 * p for p in a]",
     "tests/test_certifier.py::test_integer_tables_match_the_fraction_oracle[0-2/3]"),
    # ratlp.violation and the problem it checks against
    ("negative-entry-allowed", RATLP,
     "            if v < 0:\n", "            if v < -1:\n",
     "tests/test_ratlp.py::test_check_rejects_malformed_point[negative-primal]"),
    ("equality-row-as-le", RATLP,
     "if lhs > row.rhs if row.sense == SENSE_LE else lhs != row.rhs:", "if lhs > row.rhs:",
     "tests/test_certifier.py::test_verify_checks_the_norm_row_as_an_equality"),
    ("untouched-row-passes", RATLP,
     "lhs = 0 if row.coeffs.keys().isdisjoint(support) else dot(row.coeffs, x)",
     "if row.coeffs.keys().isdisjoint(support):\n                continue\n"
     "            lhs = dot(row.coeffs, x)",
     "tests/test_ratlp.py::test_primal_check_matches_the_every_row_oracle"),
    ("le-row-off-by-one", RATLP,
     "if lhs > row.rhs if row.sense", "if lhs > row.rhs + 1 if row.sense",
     "tests/test_ratlp.py::test_violation_names_the_first_failed_condition[le-row]"),
    ("objective-unchecked", RATLP,
     "if obj != value:", "if False:",
     "tests/test_certifier.py::test_verify_reports_the_witness_objective"),
    ("short-dual-allowed", RATLP,
     "if len(y) != len(problem.rows):", "if len(y) > len(problem.rows):",
     "tests/test_certifier.py::test_verify_reports_a_dual_of_the_wrong_length[7]"),
    ("multiplier-sign-on-any-row", RATLP,
     "if row.sense == SENSE_LE and yr < 0:", "if yr < 0:",
     "tests/test_acceptance.py::test_criterion_7_solver_vs_brute_force"),
    ("multiplier-sign-unchecked", RATLP,
     "if row.sense == SENSE_LE and yr < 0:", "if False:",
     "tests/test_certifier.py::test_verify_reports_negative_multiplier_row"),
    ("negative-multipliers-skipped", RATLP,
     "            if yr:\n", "            if yr > 0:\n",
     "tests/test_acceptance.py::test_criterion_7_solver_vs_brute_force"),
    ("objective-columns-unchecked", RATLP,
     "if total * c.denominator < c.numerator * d:", "if False:",
     "tests/test_certifier.py::test_verify_reports_first_dual_infeasible_variable"),
    ("outside-columns-unchecked", RATLP,
     "if j not in problem.objective and total < 0:", "if False:",
     "tests/test_certifier.py::test_verify_reports_a_negative_column_outside_the_objective"),
    ("bound-unchecked", RATLP,
     "if bound != value:", "if False:",
     "tests/test_certifier.py::test_verify_math_catches_resigned_optimum_tamper"),
    ("row-variable-range-unchecked", RATLP,
     'raise ValueError(f"row {r} references variable {j} out of range")', "pass",
     "tests/test_ratlp.py::test_row_variable_out_of_range_rejected[2]"),
    ("lp-row-accepts-any-value", RATLP,
     "return c if type(c) in _EXACT else ensure_fraction(c)", "return c",
     "tests/test_ratlp.py::test_lp_rows_refuse_floats_and_bools[float-coefficient]"),
    ("int-row-admits-bools", RATLP,
     "and _EXACT.issuperset(map(type, coeffs.values()))\n",
     "and (_EXACT | {bool}).issuperset(map(type, coeffs.values()))\n",
     "tests/test_ratlp.py::test_lp_rows_refuse_floats_and_bools[bool-coefficient]"),
    ("dual-denominator-without-row", RATLP,
     "den = yr.denominator * scale", "den = yr.denominator",
     "tests/test_acceptance.py::test_criterion_7_solver_vs_brute_force"),
    ("lp-row-truncates-keys", RATLP,
     'raise ValueError(f"variable index must be an int, got {j!r}")\n    return {j: _exact(c)',
     "pass\n    return {int(j): _exact(c)",
     "tests/test_ratlp.py::test_lp_rows_refuse_non_int_keys[float-key]"),
    # the simplex tableau's row scans and rhs column
    ("pivot-skips-objective-row", RATLP,
     "for rr, row in enumerate(self.rows):", "for rr, row in enumerate(self.rows[:self.m]):",
     "tests/test_acceptance.py::test_criterion_1_fraction_oracle_equivalence"),
    ("pivot-clears-later-rows-only", RATLP,
     "if j in row and rr != r:", "if j in row and rr > r:",
     "tests/test_acceptance.py::test_criterion_5_soundness_anchors"),
    ("rhs-column-may-enter", RATLP,
     "self.artificial | {_B}", "self.artificial",
     "tests/test_acceptance.py::test_criterion_5_soundness_anchors"),
    ("ratio-test-reads-rhs-as-0", RATLP,
     "b = row.get(_B, 0)", "b = 0",
     "tests/test_ratlp.py::test_two_variable_vertex"),
    ("ratio-tie-to-greatest-basic", RATLP,
     "basis[r] > basis[leaving]", "basis[r] < basis[leaving]",
     "tests/test_certifier.py::test_certificate_digests_pinned[eka-det4]"),
    # the tensor power
    ("tensor-power-radix-of-the-first-axis", PROBVEC,
     "i * ax.size + j", "i * p.axes[0].size + j",
     "tests/test_probvec.py::test_tensor_power_matches_the_composition_oracle[2-axis-2]"),
    # input decoding
    ("rational-underscores", RAT,
     '(?P<num>[+-]?[0-9]+)', '(?P<num>[+-]?[0-9_]+)',
     "tests/test_cli.py::test_certify_rejects_loose_lambda0[1_0/20]"),
    ("rational-zero-denominator", RAT,
     "if den == 0:", "if den < 0:",
     "tests/test_rat.py::test_parse_rejects_non_rationals[1/0]"),
    ("manifest-unknown-keys", CLI,
     '("g", "family"), ("lambda0",))', '("g", "family"), ("lambda0", "extra"))',
     "tests/test_cli.py::test_batch_refuses_a_loose_entry[unknown-key]"),
    ("distribution-unknown-keys", PROBVEC,
     '_json_object(data, "distribution", ("axes", "entries"))', "pass",
     "tests/test_cli.py::test_an_unknown_key_in_an_input_file_exits_2[distribution]"),
    ("certificate-dual-unknown-keys", CERTIFIER,
     'dual = _json_object(dual, "certificate dual", ("row_multipliers",))', "dual = dual",
     "tests/test_cli.py::test_an_unknown_key_in_an_input_file_exits_2[certificate-dual]"),
    ("certificate-multipliers-any-type", CERTIFIER,
     '_json_list(dual["row_multipliers"], "certificate row_multipliers")',
     'dual["row_multipliers"]',
     "tests/test_cli.py::test_non_object_pair_map_or_dual_exits_2[multipliers-not-list]"),
    ("map-coeffs-any-type", PROBVEC,
     '_json_list(data["coeffs"], "map coeffs")', 'data["coeffs"]',
     "tests/test_cli.py::test_non_object_pair_map_or_dual_exits_2[coeffs-not-rows]"),
    ("map-row-any-type", PROBVEC,
     '_json_list(row, "map row")', "row",
     "tests/test_cli.py::test_non_object_pair_map_or_dual_exits_2[row-not-list]"),
    ("axis-factor-below-1", PROBVEC,
     "if f < 1:", "if False:",
     "tests/test_cli.py::test_inconsistent_distribution_exits_2[negative-factors]"),
    ("json-object-accepts-non-objects", PROBVEC,
     "if not isinstance(value, dict):", "if False:",
     "tests/test_cli.py::test_missing_key_or_non_object_entry_exits_2[dist-not-object]"),
    ("json-object-accepts-unknown-keys", PROBVEC,
     'raise ValueError(f"{what} has unknown key {k!r}")', "pass",
     "tests/test_cli.py::test_an_unknown_key_in_an_input_file_exits_2[distribution]"),
    ("json-object-skips-missing-keys", PROBVEC,
     'raise ValueError(f"{what} is missing key {k!r}")', "pass",
     "tests/test_cli.py::test_missing_key_or_non_object_entry_exits_2[dist-party]"),
    ("missing-key-names-no-object", PROBVEC,
     'f"{what} is missing key {k!r}"', 'f"missing key {k!r}"',
     "tests/test_cli.py::test_missing_key_or_non_object_entry_exits_2[dist-party]"),
    ("json-list-accepts-any-type", PROBVEC,
     "if not isinstance(value, list):", "if False:",
     "tests/test_cli.py::test_missing_key_or_non_object_entry_exits_2[dist-axes-not-list]"),
    ("json-str-accepts-any-type", PROBVEC,
     "if not isinstance(value, str):", "if False:",
     "tests/test_cli.py::test_missing_key_or_non_object_entry_exits_2[cert-verdict-not-string]"),
    ("manifest-g-any-type", CLI,
     '_json_str(entry["g"], "manifest g")', 'entry["g"]',
     "tests/test_cli.py::test_batch_refuses_a_loose_entry[g-not-string]"),
    ("family-gen-any-type", CLI,
     '_json_str(fam_spec["gen"], "family gen")', 'fam_spec["gen"]',
     "tests/test_cli.py::test_batch_refuses_a_loose_entry[gen-null]"),
    ("manifest-any-type", CLI,
     '_json_list(json.loads(text), "manifest")', "json.loads(text)",
     "tests/test_cli.py::test_batch_manifest_must_be_a_list"),
    # the CLI's generator flags
    ("unread-generator-field-accepted", CLI,
     'raise ValueError(f"{kind} family generation does not read {name}")', "pass",
     "tests/test_cli.py::test_certify_refuses_missing_family_flags[deterministic-seed]"),
    ("family-file-beside-generator-flags", CLI,
     "raise ValueError(f\"--family and --{name.replace('_', '-')} cannot be combined\")", "pass",
     "tests/test_cli.py::test_certify_refuses_generator_flags_beside_a_family_file[gen]"),
    ("gen-family-gen-optional", CLI,
     "_add_family_flags(sp, gen_required=True)", "_add_family_flags(sp, gen_required=False)",
     "tests/test_cli.py::test_gen_family_without_gen_is_refused"),
    ("argparse-refusal-prints-usage", CLI,
     "    def error(self, message):\n", "    def error(self, message):\n        super().error(message)\n",
     "tests/test_cli.py::test_an_argparse_refusal_is_one_stderr_line[unknown-flag]"),
    # the CLI's empty flag values
    ("empty-path-accepted", CLI,
     "    if not text:\n", "    if False:\n",
     "tests/test_cli.py::test_an_empty_flag_value_is_refused[verify-cert]"),
    ("empty-verify-lambda0-ignored", CLI,
     "if args.lambda0 is not None else", "if args.lambda0 else",
     "tests/test_cli.py::test_an_empty_flag_value_is_refused[verify-lambda0]"),
    # the CLI's exit codes
    ("runtime-error-escapes-main", CLI,
     "except (ValueError, RuntimeError) as exc:\n        code = _exit_code(exc)",
     "except (ValueError, KeyError, ratlp.PivotBudgetExceeded, certifier.CertifierError) as exc:"
     "\n        code = _exit_code(exc)",
     "tests/test_cli.py::test_lambda_max_exits_4_when_a_refined_witness_fails_its_recheck"),
    ("batch-catches-every-exception", CLI,
     "except (ValueError, RuntimeError) as exc:\n            row, code",
     "except Exception as exc:\n            row, code",
     "tests/test_cli.py::test_a_program_fault_is_not_an_input_error"),
    ("batch-guard-row-exits-2", CLI,
     "if isinstance(exc, certifier.SizeGuardError):\n        return EXIT_GUARD",
     "if isinstance(exc, certifier.SizeGuardError):\n        return EXIT_INPUT",
     "tests/test_cli.py::test_batch_guard_refusal_is_an_exit_3_row[huge]"),
    ("generated-family-drawn-before-guard", CLI,
     "    certifier.check_size_guard(*sizes, m)\n",
     '    if kind == "random":\n        certifier.check_size_guard(*sizes, m)\n',
     "tests/test_cli.py::test_certify_refuses_a_huge_random_family_before_drawing_it"
     "[deterministic]"),
    ("random-family-drawn-before-guard", CLI,
     "    certifier.check_size_guard(*sizes, m)\n",
     '    if kind == "deterministic":\n        certifier.check_size_guard(*sizes, m)\n',
     "tests/test_cli.py::test_gen_family_refuses_a_size_no_g_can_certify_before_drawing[random]"),
    ("guard-without-copy-sizes", CLI,
     "check_size_guard(*sizes, m)", "check_size_guard(1, 1, sizes[2], m)",
     "tests/test_cli.py::test_generators_refuse_a_family_spec_alike"
     "[huge-copy-alphabets-gen-family]"),
    ("deterministic-family-of-no-size-drawn", CLI,
     "    if m is None:\n"
     "        raise ValueError(f\"{kind} family generation needs --M\")\n"
     "    certifier.check_size_guard(*sizes, m)\n",
     "    if m is None and kind == \"random\":\n"
     "        raise ValueError(f\"{kind} family generation needs --M\")\n"
     "    certifier.check_size_guard(*sizes, m or 0)\n",
     "tests/test_cli.py::test_gen_family_with_no_size_is_refused"),
    ("copy-size-zero-accepted", CLI,
     "if size < 1:", "if size < 0:",
     "tests/test_cli.py::test_gen_family_refuses_out_of_range_sizes[a-copy]"),
    ("write-failure-escapes-as-a-traceback", CLI,
     "    except OSError as exc:\n", "    except FileNotFoundError as exc:\n",
     "tests/test_cli.py::test_an_unwritable_output_path_is_an_input_error[certify-out-a-directory]"),
    ("family-size-guard-boundary", CLI,
     "sizes = (args.a_copy, args.b_copy, 1)", "sizes = (args.a_copy, args.b_copy, 0)",
     "tests/test_cli.py::test_gen_family_guard_boundary[random-5]"),
    ("guard-counts-always-in-digits", CERTIFIER,
     "if factor.bit_length() + log2 <= 64:", "if True:",
     "tests/test_cli.py::test_certify_guard_refuses_a_huge_adversary_axis"),
    # the inputs measures refuses
    ("fraction-of-a-ternary-b", MEASURES,
     'for party, pos in (("A", pos_a), ("B", pos_b)):', 'for party, pos in (("A", pos_a),):',
     "tests/test_cli.py::test_lambda_refuses_a_ternary_b_alphabet"),
    ("binary-check-names-b-first", MEASURES,
     'for party, pos in (("A", pos_a), ("B", pos_b)):', 'for party, pos in (("B", pos_b), ("A", pos_a)):',
     "tests/test_cli.py::test_lambda_names_a_before_b_when_neither_is_binary"),
    ("negative-refine-rounds-accepted", MEASURES,
     "if refine_rounds < 0:", "if refine_rounds < -1:",
     "tests/test_cli.py::test_lambda_max_negative_refine_rounds_exits_2"),
    # the stage-1 search
    ("search-bound-off-by-one", MEASURES,
     "if n_a + n_b > MAX_AB:", "if n_a + n_b > MAX_AB + 1:",
     "tests/test_cli.py::test_lambda_max_search_bound[11-True]"),
    ("search-refused-at-the-bound", MEASURES,
     "if n_a + n_b > MAX_AB:", "if n_a + n_b >= MAX_AB:",
     "tests/test_cli.py::test_lambda_max_search_bound[10-False]"),
    ("best-pair-tie-to-last", MEASURES,
     "if best is None or num * best[1] > best[0] * den:",
     "if best is None or num * best[1] >= best[0] * den:",
     "tests/test_cli.py::test_lambda_max_p442_pinned"),
    ("coin-mass-not-doubled", MEASURES,
     "mass = mass_a[s0] + mass_a[s1]", "mass = mass_a[s0 | s1]",
     "tests/test_acceptance.py::test_criterion_10_estimator_sanity"),
    ("coin-a-mass-not-doubled", MEASURES,
     "list(map(add, totals[t0], totals[t1]))", "totals[t0 | t1]",
     "tests/test_acceptance.py::test_criterion_10_estimator_sanity"),
    ("a-mask-table-from-its-highest-symbol", MEASURES,
     "for r, s in zip(t, row)]", "for r, s in zip(tables[0], row)]",
     "tests/test_measures.py::test_stage1_pairs_match_the_fraction_kernel[rand-3x3x2]"),
    ("b-mask-row-from-its-highest-symbol", MEASURES,
     "row += [list(map(add, r, cell)) for r in row]", "row += [list(map(add, row[0], cell)) for r in row]",
     "tests/test_measures.py::test_stage1_pairs_match_the_fraction_kernel[rand-3x3x2]"),
    ("diagonal-crossed-on-the-b-side", MEASURES,
     "diag0[s0], diag1[s1]", "diag0[s1], diag1[s0]",
     "tests/test_measures.py::test_stage1_pairs_match_the_fraction_kernel[rand-3x3x2]"),
    ("masks-drop-the-last-symbol", MEASURES,
     "for i, act in enumerate(code) if", "for i, act in enumerate(code[:-1]) if",
     "tests/test_measures.py::test_stage1_pairs_match_the_fraction_kernel[rand-3x3x2]"),
    # the stage-2 refit
    ("refit-without-bit-1-bound", MEASURES,
     "for row in diag[key])", "for row in diag[key][:1])",
     "tests/test_measures.py::test_refit_matches_the_branch_oracle"),
    ("refit-objective-coefficient-1", MEASURES,
     "dict.fromkeys(ts, 2)", "dict.fromkeys(ts, 1)",
     "tests/test_measures.py::test_refit_matches_the_branch_oracle"),
)


def run_tests(tree: Path, target: str = "tests") -> str | None:
    """The first failing test's id in `target` (a directory or a test id),
    TIMED_OUT if the run takes longer than RUN_TIMEOUT_S, or None if it passes."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(arg for test in DESELECTED for arg in ("--deselect", test)), target],
            cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return TIMED_OUT
    if proc.returncode == 0:
        return None
    return first_failure(proc.stdout) or f"pytest exit {proc.returncode}"


def killed_by(tree: Path, killer: str) -> str | None:
    """The test that fails on `tree`: `killer` if it does, else the suite's
    first failure; TIMED_OUT as soon as a run times out."""
    failed = run_tests(tree, killer)
    if failed in (killer, TIMED_OUT):
        return failed
    return run_tests(tree)


def first_failure(stdout: str) -> str | None:
    """The test id of pytest's first FAILED or ERROR summary line, or None.

    A summary line is "FAILED <id> - <message>", and a parametrised id may
    hold spaces, so the id is all of the text up to the first " - ".
    """
    for line in stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.partition(" ")[2].partition(" - ")[0]
    return None


def copy_tree(dest: Path) -> Path:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)
    return dest


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        failed = run_tests(copy_tree(Path(tmp) / "base"))
        if failed:
            print(f"the unmutated tree {'timed out' if failed == TIMED_OUT else f'fails {failed}'}; "
                  "fix that first")
            return 2
        rows = []
        for i, (name, file, old, new, killer) in enumerate(MUTANTS):
            tree = copy_tree(Path(tmp) / f"m{i}")
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: the old string occurs {text.count(old)} times in {file}")
                return 2
            path.write_text(text.replace(old, new))
            t0 = time.perf_counter()
            failed = killed_by(tree, killer)
            outcome = {None: "SURVIVED", TIMED_OUT: TIMED_OUT}.get(failed, "killed")
            rows.append((name, outcome, failed if outcome == "killed" else "",
                         f"{time.perf_counter() - t0:.0f}"))
            recorded = "" if outcome != "killed" or failed == killer else f"\t(recorded {killer})"
            print("\t".join(rows[-1]) + recorded, flush=True)
            shutil.rmtree(tree)
    SWEEP_FILE.write_text("".join("\t".join(row) + "\n" for row in rows))
    outcomes = [outcome for _, outcome, _, _ in rows]
    print(f"{outcomes.count('killed')} of {len(MUTANTS)} killed, "
          f"{outcomes.count(TIMED_OUT)} timed out")
    return 0 if outcomes.count("killed") == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
