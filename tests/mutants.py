"""Mutation gate: every mutant in the table must make its named tests fail.

    python tests/mutants.py

Run from anywhere inside a source checkout. For each mutant the gate
copies `src/` to a temporary directory, checks that the mutant's snippet
occurs exactly once in its file, applies the replacement and runs only
the named tests against the copy (through PYTHONPATH), without `-W
error`: under that flag a failing hypothesis test ends the run as a
pytest INTERNALERROR. Pytest's exit 1 kills the mutant, exit 0 means it
survived, and any other exit is a gate error. Before the mutants, the
named tests of all of them must pass on an unchanged copy, or no kill
would mean anything.

The gate exits 1 if a snippet is not found exactly once, if the named
tests fail on the unchanged copy, or if any mutant survives or errs. A
refactor that moves a snippet therefore fails the gate loudly, and the
table is updated with it. Pytest does not collect this file: its name
does not match test_*.py.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "levelalg"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/levelalg
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


LINALG = "tests/test_linalg.py::"
MODULES = "tests/test_modules.py::"

MUTANTS = (
    Mutant(
        "key-without-shape",
        "linalg.py",
        "        return (m.shape, *m.ravel().tolist())\n"
        "    return (m.shape, m.dtype.str, m.tobytes())\n",
        "        return (*m.ravel().tolist(),)\n"
        "    return (m.dtype.str, m.tobytes())\n",
        (
            LINALG + "test_meets_keep_equal_entries_of_different_shapes_apart",
            LINALG + "test_rational_ranks_and_bases_eliminate_each_distinct_matrix_once",
        ),
    ),
    Mutant(
        "meet-key-from-a-alone",
        "linalg.py",
        "group.setdefault((_key(a), _key(b)), [])",
        "group.setdefault(_key(a), [])",
        (
            LINALG + "test_rational_meets_run_one_exact_pass_per_distinct_open_pair",
            LINALG + "test_meets_of_repeated_and_mod_p_dependent_pairs",
        ),
    ),
    Mutant(
        "meet-certificate-one-short",
        "linalg.py",
        "                if len(rows or ()) == ka + kb:\n",
        "                if len(rows or ()) >= ka + kb - 1:\n",
        (
            LINALG + "test_rational_meets_run_one_exact_pass_per_distinct_open_pair",
            LINALG + "test_meets_of_repeated_and_mod_p_dependent_pairs",
        ),
    ),
    Mutant(
        "prefix-rule-off-by-one",
        "modules.py",
        "                if j == q and len(meet):\n",
        "                if j == q + 1 and len(meet):\n",
        (
            MODULES + "test_walk_over_all_degrees_matches_the_per_degree_oracle",
            MODULES + "test_overlap_statistics_match_the_subset_oracle",
        ),
    ),
    Mutant(
        "pruned-closed-form-sign-flipped",
        "modules.py",
        "totals[d] += (-1) ** q * len(s) * (len(kids) - 1)",
        "totals[d] -= (-1) ** q * len(s) * (len(kids) - 1)",
        (
            MODULES + "test_walk_over_all_degrees_matches_the_per_degree_oracle",
            MODULES + "test_overlap_statistics_match_the_subset_oracle",
        ),
    ),
    Mutant(
        "prune-when-any-child-keeps",
        "modules.py",
        "kids and all(len(meet) == len(s) for _, meet in kids)",
        "kids and any(len(meet) == len(s) for _, meet in kids)",
        (
            MODULES + "test_walk_over_all_degrees_matches_the_per_degree_oracle",
            MODULES + "test_overlap_statistics_match_the_subset_oracle",
        ),
    ),
    Mutant(
        "prefix-padding-one-long",
        "modules.py",
        "prefixes[d][-1:] = [s[:0]] * (len(degrees[d]) - q - 1) + [s]",
        "prefixes[d][-1:] = [s[:0]] * (len(degrees[d]) - q) + [s]",
        (
            MODULES + "test_walk_over_all_degrees_matches_the_per_degree_oracle",
            MODULES + "test_overlap_statistics_match_the_subset_oracle",
        ),
    ),
    Mutant(
        # below a pruned prefix the size-t prefix has D_u = dim I_T, not 0
        "size-t-prefix-handed-empty",
        "modules.py",
        "prefixes[d][-1:] = [s[:0]] * (len(degrees[d]) - q - 1) + [s]",
        "prefixes[d][-1:] = [s[:0]] * (len(degrees[d]) - q - 1) + [s[:0]]",
        (
            MODULES + "test_overlap_statistics_match_the_subset_oracle",
            MODULES + "test_overlap_ranks_exactly_the_nonzero_prefix_meets",
        ),
    ),
    Mutant(
        "full-cap-by-any",
        "modules.py",
        "        if all(dim == h for dim in dims):\n",
        "        if any(dim == h for dim in dims):\n",
        (
            MODULES + "test_walk_over_all_degrees_matches_the_per_degree_oracle",
            MODULES + "test_overlap_statistics_match_the_subset_oracle",
        ),
    ),
    Mutant(
        # Σ dim S_i >= h_u always holds, as the S_i span degree u, so the
        # mutant settles every degree as a direct sum (`<=` would be
        # equivalent)
        "direct-cap-by-at-least",
        "modules.py",
        "        if sum(dims) == h:\n",
        "        if sum(dims) >= h:\n",
        (
            MODULES + "test_walk_over_all_degrees_matches_the_per_degree_oracle",
            MODULES + "test_overlap_statistics_match_the_subset_oracle",
        ),
    ),
    Mutant(
        "rank-certificate-below-full",
        "linalg.py",
        "rows if len(rows) == min(shape) else None",
        "rows if len(rows) <= min(shape) else None",
        (
            LINALG + "test_ragged_stacks_of_any_shapes",
            LINALG + "test_rational_ranks_and_bases_eliminate_each_distinct_matrix_once",
        ),
    ),
    Mutant(
        "frame-rows-by-J_u",
        "modules.py",
        "np.ix_(frame[e - u], frame[u])",
        "np.ix_(frame[u], frame[u])",
        (
            MODULES
            + "test_frame_restricted_quotients_and_overlaps_equal_the_full_width_oracle",
        ),
    ),
    Mutant(
        "overflow-guard-by-c",
        "linalg.py",
        "len(rows) * int(np.abs(a).max()) * int(np.abs(rows).max()) < 2**63",
        "a.shape[1] * int(np.abs(a).max()) * int(np.abs(rows).max()) < 2**63",
        (
            MODULES
            + "test_combinations_near_the_int64_prime_limit_fall_back_to_python_ints",
            MODULES + "test_rational_combinations_past_int64_take_python_ints",
        ),
    ),
    Mutant(
        "combine-guard-without-t",
        "linalg.py",
        "len(rows) * int(np.abs(a).max()) * int(np.abs(rows).max()) < 2**63",
        "int(np.abs(a).max()) * int(np.abs(rows).max()) < 2**63",
        (
            MODULES
            + "test_combinations_near_the_int64_prime_limit_fall_back_to_python_ints",
            MODULES + "test_rational_combinations_past_int64_take_python_ints",
        ),
    ),
    Mutant(
        "q-bound-without-abs",
        "linalg.py",
        "fits = not a.size or max(int(a.max()), -int(a.min())) < _INT64_RATIONAL_LIMIT",
        "fits = not a.size or int(a.max()) < _INT64_RATIONAL_LIMIT",
        (MODULES + "test_rational_rows_are_int64_below_2_62_in_absolute_value",),
    ),
    Mutant(
        "q-bound-past-int64",
        "linalg.py",
        "_INT64_RATIONAL_LIMIT = 2**62\n",
        "_INT64_RATIONAL_LIMIT = 2**64\n",
        (MODULES + "test_rational_rows_are_int64_below_2_62_in_absolute_value",),
    ),
    Mutant(
        "remix-builds-its-own-frame",
        "modules.py",
        '    object.__setattr__(remixed, "_frame", m._frame)  # same span, same frame\n',
        "",
        (MODULES + "test_frame_takes_one_elimination_per_degree_and_a_remix_shares_it",),
    ),
    Mutant(
        "downward-rule-by-the-row-cap",
        "modules.py",
        "                if r == full[u]:\n",
        "                if r == rows[u]:\n",
        (MODULES + "test_selections_that_miss_the_caps_equal_the_full_width_ranks",),
    ),
    Mutant(
        "upward-fill-by-c-h_u",
        "modules.py",
        "                    row[u + 1 : top + 1] = rows[u + 1 :]\n",
        "                    row[u + 1 : top + 1] = [c * x for x in full[u + 1 :]]\n",
        (MODULES + "test_selections_that_miss_the_caps_equal_the_full_width_ranks",),
    ),
    Mutant(
        # a dependent W can sit on (c-1)·h_(e-u): only an entry above it proves
        "proof-at-the-bound",
        "modules.py",
        "kept = [any(h[u] > cap for",
        "kept = [any(h[u] >= cap for",
        (MODULES + "test_a_dependent_draw_at_the_full_cap_is_redrawn",),
    ),
    Mutant(
        # the socle entry is the declared c, never a rank, and it always
        # exceeds its cap (c-1)·h_0 = c - 1: every draw would be kept
        "proof-reads-the-socle",
        "modules.py",
        "for u in range(1, e)} if graded else {}",
        "for u in range(1, e)} | {e: c - 1} if graded else {}",
        (MODULES + "test_a_dependent_draw_at_the_full_cap_is_redrawn",),
    ),
    Mutant(
        # (c-1)·h_u(F) >= h_u(F) for c >= 2: no H_u exceeds it, no proof
        "proof-caps-from-h_u",
        "modules.py",
        "caps = {u: (c - 1) * len(m._frame[e - u])",
        "caps = {u: (c - 1) * len(m._frame[u])",
        (MODULES + "test_generic_draws_are_proved_independent_by_their_graded_ranks",),
    ),
    Mutant(
        # the row cap: sound, but at c = 1 no H_u exceeds h_(e-u)(F)
        "proof-caps-by-c",
        "modules.py",
        "caps = {u: (c - 1) * len(",
        "caps = {u: c * len(",
        (MODULES + "test_one_form_draws_take_no_rank_and_stay_the_same",),
    ),
    Mutant(
        "fallback-rank-skipped",
        "modules.py",
        "kept = [any(h[u] > cap for u, cap in caps.items()) for h in values]",
        "kept = [True for h in values]",
        (MODULES + "test_a_dependent_draw_at_the_full_cap_is_redrawn",),
    ),
    Mutant(
        # later rounds reuse the h-vectors of attempt 0
        "proof-kept-from-a-rejected-attempt",
        "modules.py",
        "        values = _graded_ranks(w, m) if graded else w\n",
        "        if not attempt or not graded:\n"
        "            values = _graded_ranks(w, m) if graded else w\n",
        (MODULES + "test_a_dependent_draw_at_the_full_cap_is_redrawn",),
    ),
    Mutant(
        "frame-stop-rule-off-by-one",
        "modules.py",
        "            if rows.shape[1] - len(frame[u]) < r:\n",
        "            if rows.shape[1] - len(frame[u]) <= r:\n",
        (MODULES + "test_frame_passes_stop_at_the_first_full_degree",),
    ),
    Mutant(
        "basis-certificate-one-short",
        "linalg.py",
        "else np.eye(n, dtype=a.dtype) if len(rows) == n\n",
        "else np.eye(n, dtype=a.dtype) if len(rows) >= n - 1\n",
        (LINALG + "test_rational_bases_certify_full_column_rank",),
    ),
    Mutant(
        "own-rows-certificate-one-short",
        "linalg.py",
        # certifies own rows when one is short of the row count
        "_certified_rows(a, [(k, n)] * len(a), field)",
        "_certified_rows(a, [(k - 1, n)] * len(a), field)",
        (LINALG + "test_rational_bases_certify_full_row_rank_with_the_rows_themselves",),
    ),
    Mutant(
        "independent-tall-reads-step",
        "linalg.py",
        "j.tolist() if tall else repeat(k)",
        "repeat(k)",
        (LINALG + "test_independent_rows_of_hand_examples",),
    ),
    Mutant(
        "independent-unsorted",
        "linalg.py",
        "return [sorted(rows) for rows in kept] if tall else kept",
        "return kept",
        (LINALG + "test_independent_rows_of_hand_examples",),
    ),
    Mutant(
        "column-certificate-one-short",
        "linalg.py",
        "_certified_rows(live.T[None], [live.T.shape], field)",
        "_certified_rows(live.T[None], [np.subtract(live.T.shape, 1)], field)",
        (LINALG + "test_rational_column_basis_certifies_full_rank_mod_p_only",),
    ),
    Mutant(
        "column-certificate-by-full-shape",
        "linalg.py",
        "_certified_rows(live.T[None], [live.T.shape], field)",
        "_certified_rows(live.T[None], [a.T.shape], field)",
        (LINALG + "test_rational_sharp_frames_take_no_exact_pass",),
    ),
    Mutant(
        "column-basis-not-mapped-back",
        "linalg.py",
        "    return basis if live is a else cols.nonzero()[0][basis].tolist()\n",
        "    return basis\n",
        (LINALG + "test_column_basis_maps_the_live_columns_back_past_zero_lines",),
    ),
    Mutant(
        "clear-by-max-denominator",
        "linalg.py",
        "den = lcm(*(x.denominator for x in values))",
        "den = max((x.denominator for x in values), default=1)",
        (LINALG + "test_clear_scales_by_the_lcm_of_the_denominators",),
    ),
    Mutant(
        "form-keeps-unreduced-terms",
        "polynomials.py",
        '        object.__setattr__(self, "terms", reduced)\n',
        "",
        (
            "tests/test_polynomials.py::"
            "test_parsed_built_and_module_forms_are_equal_and_hash_alike",
        ),
    ),
    Mutant(
        # named against the unit test alone: the CLI test would allocate
        "degree-bound-removed",
        "polynomials.py",
        "    if degree + 1 > MAX_SPACE_DIM:\n",
        "    if False:\n",
        ("tests/test_polynomials.py::test_a_degree_past_the_bound_is_refused",),
    ),
    Mutant(
        "exponents-not-reversed",
        "polynomials.py",
        "exps = cuts[:, :0:-1] - cuts[:, -2::-1] - 1",
        "exps = cuts[:, 1:] - cuts[:, :-1] - 1",
        (
            "tests/test_polynomials.py::"
            "test_exponent_arrays_are_the_sorted_tuples_and_read_only",
        ),
    ),
    Mutant(
        "rank-prefix-sums-shifted",
        "polynomials.py",
        "return _positions(lambda k: s[..., k], s.shape[-1], degree)",
        "return _positions(lambda k: s[..., k - 1], s.shape[-1], degree)",
        ("tests/test_polynomials.py::test_monomial_rank_matches_the_oracle_index",),
    ),
    Mutant(
        "rational-denominator-dropped",
        "polynomials.py",
        "    return rows, den\n",
        "    return rows, 1\n",
        (MODULES + "test_generators_come_back_exactly_as_given",),
    ),
    Mutant(
        "random-row-in-reverse-order",
        "families.py",
        "                    for _ in range(dim)\n                ]\n",
        "                    for _ in range(dim)\n                ][::-1]\n",
        ("tests/test_families.py::test_every_family_draws_the_recorded_modules",),
    ),
    Mutant(
        "sparse-default-density-changed",
        "families.py",
        '"density": 0.35}',
        '"density": 0.5}',
        ("tests/test_families.py::test_build_family_dispatch",),
    ),
    Mutant(
        "spec-seed-ignored",
        "families.py",
        'builder(*args, field, given.get("seed", seed))',
        "builder(*args, field, seed)",
        ("tests/test_families.py::test_build_family_spec_seed_wins",),
    ),
    Mutant(
        "parse-form-sums-abs",
        "polynomials.py",
        "acc[key] = acc.get(key, 0) + sign * coeff",
        "acc[key] = acc.get(key, 0) + abs(sign * coeff)",
        (
            "tests/test_polynomials.py::test_parse_leading_minus_and_products",
            "tests/test_polynomials.py::test_parse_cancellation_rejected",
        ),
    ),
    Mutant(
        "coefficient-then-any-symbol",
        "polynomials.py",
        """take("sym", "'*' after a coefficient", "*")""",
        """take("sym", "'*' after a coefficient")""",
        (
            "tests/test_polynomials.py::test_parse_requires_star_after_coefficient",
            "tests/test_cli.py::test_hvector_malformed_expression_exits_two_naming_its_line",
        ),
    ),
    Mutant(
        "miller-rabin-without-base-41",
        "fields.py",
        "small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
        "small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
        (
            "tests/test_fields.py::test_moduli_are_certified_prime_below_psi_13",
            "tests/test_cli.py::test_hvector_modulus_past_the_certified_bound_exits_two",
        ),
    ),
    Mutant(
        "modulus-past-psi-13-accepted",
        "fields.py",
        "if self.prime >= PRIME_BOUND:",
        "if self.prime >= PRIME_BOUND**2:",
        ("tests/test_fields.py::test_moduli_are_certified_prime_below_psi_13",),
    ),
    Mutant(
        # a reader's ValueError escapes the line wrapper: exit 3, no line
        "module-file-wrapper-too-narrow",
        "modules.py",
        "        except ValueError as exc:\n"
        "            raise InputError(str(exc), lineno) from exc\n",
        "        except InputError as exc:\n"
        "            raise InputError(str(exc), lineno) from exc\n",
        (
            "tests/test_cli.py::test_hvector_label_that_int_refuses_exits_two_on_its_line",
        ),
    ),
    Mutant(
        "manifest-wrapper-too-narrow",
        "manifest.py",
        "        except ValueError as exc:\n"
        "            raise InputError(str(exc), lineno) from exc\n",
        "        except InputError as exc:\n"
        "            raise InputError(str(exc), lineno) from exc\n",
        ("tests/test_manifest.py::test_parse_manifest_errors",),
    ),
    Mutant(
        "one-matrix-step-unreduced",
        "linalg.py",
        "a = (int(line[0, j[0]]) * a - np.multiply.outer(col, line[0])) % p\n",
        "a = int(line[0, j[0]]) * a - np.multiply.outer(col, line[0])\n",
        (LINALG + "test_one_matrix_steps_equal_the_stacked_steps_on_fixed_matrices",),
    ),
    Mutant(
        # a basis still, but not the rows the stacked loop keeps
        "one-matrix-pivot-at-last-nonzero",
        "linalg.py",
        "        j = nz[:1]\n",
        "        j = nz[-1:]\n",
        (LINALG + "test_one_matrix_steps_equal_the_stacked_steps_on_fixed_matrices",),
    ),
    Mutant(
        "draw-range-ignores-the-prime",
        "modules.py",
        "low, n = 1, min(COEFF_RANGE, field.prime - 1)",
        "low, n = 1, COEFF_RANGE",
        (
            MODULES + "test_draws_are_successive_random_coefficients",
            MODULES + "test_random_coefficient_default_prime_draws_unchanged",
        ),
    ),
    Mutant(
        "bound-h-read-by-int",
        "bounds.py",
        'h = tuple(_explicit_coefficient(x, "h-vector entries") for x in h)',
        "h = tuple(int(x) for x in h)",
        ("tests/test_bounds.py::test_bound_layer_reads_integers_exactly",),
    ),
    Mutant(
        "modulus-read-by-int",
        "fields.py",
        'object.__setattr__(self, "prime", operator.index(self.prime))',
        'object.__setattr__(self, "prime", int(self.prime))',
        ("tests/test_fields.py::test_modulus_is_read_exactly",),
    ),
    Mutant(
        "tight-count-one-degree-short",
        "manifest.py",
        "sum(len(r.tight_degrees) == len(r.h) for r in reports)",
        "sum(len(r.tight_degrees) == len(r.h) - 1 for r in reports)",
        ("tests/test_manifest.py::test_run_manifest_counts",),
    ),
    Mutant(
        "identity-emp-smallest-remix-row",
        "manifest.py",
        "emp = max(len(s) for s in singles)",
        "emp = min(len(s) for s in singles)",
        ("tests/test_manifest.py::test_identity_checks_take_the_largest_remix_row",),
    ),
    Mutant(
        "identity-emp-first-remix-row",
        "manifest.py",
        "emp = max(len(s) for s in singles)",
        "emp = len(singles[0])",
        ("tests/test_manifest.py::test_identity_checks_take_the_largest_remix_row",),
    ),
)


def _copy_src(dest: Path) -> Path:
    """A copy of src/levelalg under dest/src, without bytecode."""
    shutil.copytree(
        SRC, dest / "src" / "levelalg", ignore=shutil.ignore_patterns("__pycache__")
    )
    return dest / "src"


def _pytest(src: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    proc = subprocess.run(
        [*argv, *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode


def main() -> int:
    bad = [
        m.name for m in MUTANTS if (SRC / m.file).read_text().count(m.snippet) != 1
    ]
    if bad:
        print(f"snippet not found exactly once: {', '.join(bad)}", file=sys.stderr)
        return 1
    failed = 0
    with tempfile.TemporaryDirectory(prefix="levelalg-mutants-") as tmp:
        clean = _copy_src(Path(tmp) / "clean")
        probe = subprocess.run(
            [sys.executable, "-c", "import levelalg; print(levelalg.__file__)"],
            env={**os.environ, "PYTHONPATH": str(clean)}, cwd=ROOT,
            capture_output=True, text=True,
        ).stdout.strip()
        if not probe.startswith(str(clean)):
            print(f"the copy is not what imports: {probe!r}", file=sys.stderr)
            return 1
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code = _pytest(clean, tests)
        if code != 0:
            print(f"the named tests fail on the unchanged source (exit {code})",
                  file=sys.stderr)
            return 1
        for k, m in enumerate(MUTANTS):
            src = _copy_src(Path(tmp) / f"mutant-{k}")
            path = src / "levelalg" / m.file
            path.write_text(path.read_text().replace(m.snippet, m.replacement))
            start = time.monotonic()
            code = _pytest(src, m.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
            failed += code != 1
            print(f"{m.name:32} {verdict:18} {time.monotonic() - start:5.1f} s")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
