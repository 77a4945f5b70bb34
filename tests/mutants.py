"""Mutation check: every one-line mutant below must be killed by its tests.

    python3 tests/mutants.py [NAME ...]

Each mutant replaces one fragment, which must occur exactly once, in a
file under src/.  The script copies src/, tests/ and pyproject.toml to a
temporary directory, first checks that every listed test passes there
unmutated, then applies one mutant at a time and runs each of its tests
alone with pytest.  A mutant is killed when every one of its tests
fails.  The script prints each mutant's time and its own total.  Exit
status: 0 when all mutants are killed, 1 when one survives, 2 when a
fragment is not found exactly once or a test fails unmutated.
pytest does not collect this file: its name matches no test pattern.
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

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


M = "src/legseq/measures.py"
C = "src/legseq/conditions.py"
F = "src/legseq/ff.py"
CL = "src/legseq/cli.py"
CO = "src/legseq/constructions.py"
TM = "tests/test_measures.py"
TC = "tests/test_conditions.py"
TF = "tests/test_ff.py"
TCL = "tests/test_cli.py"
TCO = "tests/test_constructions.py"

MUTANTS = [
    # tie-breaks: the smallest witness, not the first one found
    Mutant("exact tie-break takes the first achieving tuple", M,
           "min(map(_window, hits.tolist()))", "_window(hits.tolist()[0])",
           (f"{TM}::test_phi_witness_matches_brute_force",
            f"{TM}::test_corr_matches_oracle")),
    Mutant("sampled tie-break takes the first achieving draw", M,
           "return value, _window(min(hits.tolist()))",
           "return value, _window(hits.tolist()[0])",
           (f"{TM}::test_sampled_c_tie_picks_smallest_lags",
            f"{TM}::test_sampled_phi_tie_picks_smallest_draw")),
    # the batched engine
    Mutant("batch overlap trimmed by the largest last lag", M,
           "n = views.shape[2] - int(R[:, -1].min())",
           "n = views.shape[2] - int(R[:, -1].max())",
           (f"{TM}::test_engine_matches_per_tuple_loop_on_random_signs",)),
    # the extension grid of every position: which (member, lag) may follow
    Mutant("equal members may share a lag", M,
           "first = L[:, None] + (", "first = L[:, None] + 0 * (",
           (f"{TM}::test_engine_matches_per_tuple_loop_cross",
            f"{TM}::test_phi_witness_matches_brute_force",
            f"{TM}::test_corr_matches_oracle",
            f"{TM}::test_lag_tuples_at_the_edges")),
    Mutant("admissibility mask checks adjacent positions only", M,
           "np.where(R == L[:, None], I, -1)",
           "np.where(R == L[:, None], I, -1)[:, -1:]",
           (f"{TM}::test_lag_tuples_at_the_edges",
            f"{TM}::test_lag_tuples_keep_distant_equal_members_apart",
            f"{TM}::test_phi_witness_matches_brute_force")),
    Mutant("filter ignores the clash at the prefix's last lag", M,
           "d[:, None, None] < first[:a]",
           "d[:, None, None] < (L[:, None] if k == order else first)[:a]",
           (f"{TM}::test_corr_matches_oracle",
            f"{TM}::test_lag_tuples_at_the_edges",
            f"{TM}::test_engine_matches_per_tuple_loop_cross")),
    Mutant("last lag starts at L + 1 for distinct members", M,
           "d[:, None, None] < first[:a]",
           "d[:, None, None] < (L[:, None] + 1 if k == order else first)[:a]",
           (f"{TM}::test_phi_constant_opposite_pair",
            f"{TM}::test_lag_tuples_at_the_edges",
            f"{TM}::test_engine_matches_per_tuple_loop_cross")),
    Mutant("enumerator stops at last lag N - 2", M,
           "N - (order - k) // D if",
           "N - (order - k) // D - (k == order) if",
           (f"{TM}::test_lag_tuples_at_the_edges",
            f"{TM}::test_phi_witness_matches_brute_force")),
    Mutant("lag-range cut ends one lag early", M,
           "N - (order - k) // D if",
           "N - (order - k) // D - (k < order) if",
           (f"{TM}::test_lag_tuples_at_the_edges",
            f"{TM}::test_orders_close_to_the_most_admissible_finish")),
    # the block filter of the last lag
    Mutant("filter drops last lags whose bound ties the best", M,
           "ub >= best", "ub > best",
           (f"{TM}::test_c2_all_ones", f"{TM}::test_c2_alternating",
            f"{TM}::test_exact_filter_keeps_tied_bounds")),
    Mutant("width term dropped from the block upper bound", M,
           "Q -= w  #", "Q -= 0  #",
           (f"{TM}::test_block_bounds_enclose_every_walk_range",)),
    Mutant("best lower bound counts inadmissible last lags", M,
           "lb[bad] = ub[bad] = -1", "ub[bad] = -1",
           (f"{TM}::test_corr_matches_oracle",
            f"{TM}::test_block_filter_matches_unfiltered_stream")),
    Mutant("pre-shifted table drops the next word's low bits", M,
           "(packed[:, :-1] >> s) | (packed[:, 1:] << (64 - s))",
           "(packed[:, :-1] >> s)",
           (f"{TM}::test_exact_c3_at_a_table_prime",
            f"{TM}::test_exact_filter_keeps_tied_bounds")),
    Mutant("prefix XOR skips one position", M,
           "words[R & 63, R >> 6, I]",
           "words[R[:, 1:] & 63, R[:, 1:] >> 6, I[:, 1:]]",
           (f"{TM}::test_lag_bounds_enclose_every_walk_range",
            f"{TM}::test_block_bounds_enclose_every_walk_range")),
    # equal members merged before the exact engine
    Mutant("witness member indices not mapped back to the family", M,
           "tuple(firsts[i - 1] + 1 for i in idxs)", "idxs",
           (f"{TM}::test_repeated_members_merge_to_their_first_equal_ones",)),
    # the sampled block filter and the distinct-lag redraw
    Mutant("sampled bounds read the last word unmasked", M,
           "np.bitwise_count(x << (64 - w))", "np.bitwise_count(x)",
           (f"{TM}::test_draw_bounds_enclose_legendre_walks",)),
    Mutant("sampled filter drops draws whose bound ties the best", M,
           "ub >= lb.max()", "ub > lb.max()",
           (f"{TM}::test_sampled_filter_keeps_tied_bounds",
            f"{TM}::test_sampled_filter_matches_unfiltered_draws")),
    Mutant("word stream drops the next word's low bits", M,
           "(a[:, :-1] >> sk) | (a[:, 1:] << (64 - sk))", "(a[:, :-1] >> sk)",
           (f"{TM}::test_draw_bounds_enclose_legendre_walks",)),
    Mutant("redraw check keyed on the member, not its first equal one", M,
           "{(rep[i], d) for i, d in zip(idxs, rel)}",
           "{(i, d) for i, d in zip(idxs, rel)}",
           (f"{TM}::test_sampled_redraw_matches_pairwise_rule",
            f"{TM}::test_phi_sampled_respects_distinct_lag_rule")),
    # the sampled budget
    Mutant("sampled draws never checked against the budget", M,
           "if samples * N > budget:", "if False:",
           (f"{TCL}::test_sampled_draws_beyond_the_budget_exit_3",)),
    # exact W pruning and the witness finder
    Mutant("W pruned by floor(N/b)", M,
           "if -(-N // b) <= value:", "if N // b <= value:",
           (f"{TM}::test_w_pruned_matches_unpruned_scan_short",)),
    Mutant("W witness takes the largest start", M,
           "a, t = min(zip(", "a, t = max(zip(",
           (f"{TM}::test_w_alternating",
            f"{TM}::test_w_pruned_matches_unpruned_scan_short")),
    Mutant("witness finder ignores maxima before minima", M,
           "return np.minimum(lo, hi), np.abs(hi - lo)",
           "return lo, np.abs(hi - lo)",
           (f"{TM}::test_range_window_matches_reference_search",
            f"{TM}::test_w_pruned_matches_unpruned_scan_short")),
    Mutant("witness finder ends at the last maximum, not the first", M,
           "lo, hi = P.argmin(axis=1), P.argmax(axis=1)",
           "lo, hi = P.argmin(axis=1), P.shape[1] - 1 - P[:, ::-1].argmax(1)",
           (f"{TM}::test_range_window_matches_reference_search",
            f"{TM}::test_w_pruned_matches_unpruned_scan_short",
            f"{TM}::test_engine_matches_per_tuple_loop_correlation")),
    # the divisibility check over the dispersion set
    Mutant("shift t = 0 not reported as p", C,
           "return sorted(t or p for t in shifts)", "return sorted(shifts)",
           (f"{TC}::test_dispersion_reports_t_p_for_the_unshifted_copy",)),
    Mutant("no full scan when d >= p", C,
           "if d >= p:", "if False:",
           (f"{TC}::test_dispersion_fallback_at_tiny_p",)),
    Mutant("dispersion set of the first factor only", C,
           "for s in factors:", "for s in factors[:1]:",
           (f"{TC}::test_dispersion_scan_equals_full_scan",)),
    Mutant("resultant sign never flips", F,
           "res = -res % p", "res = res % p",
           (f"{TF}::test_resultant_matches_sylvester_determinant",)),
    Mutant("one divided-difference round dropped", F,
           "for j in range(1, n):", "for j in range(1, n - 1):",
           (f"{TF}::test_interpolate_recovers_polynomial",)),
    Mutant("root split keeps one half", F,
           "stack += [h, g // h]", "stack += [h]",
           (f"{TF}::test_roots_match_exhaustive_evaluation",)),
    # the vectorized constructions and the file format
    Mutant("square-map chunk ends one x early", F,
           "min(lo + 2**16, half) + 1", "min(lo + 2**16 - 1, half) + 1",
           (f"{TF}::test_legendre_table_matches_square_map_across_chunks",)),
    Mutant("zero symbol mapped to -1 in the single sequence", CO,
           "e | (e == 0).view(np.int8)", "e | -(e == 0).view(np.int8)",
           (f"{TCO}::test_single_zero_rule",
            f"{TCO}::test_constructions_match_per_n_loop")),
    Mutant("p | f(n)g(n) checked on the selected branch only", CO,
           "e[F * G == 0] = 1", "e[e == 0] = 1",
           (f"{TCO}::test_triple_branch_precedence",
            f"{TCO}::test_constructions_match_per_n_loop")),
    Mutant("h(n) = 0 selects g", CO,
           "m = h >> 7", "m = (h - 1) >> 7",
           (f"{TCO}::test_triple_p7_example",
            f"{TCO}::test_constructions_match_per_n_loop")),
    Mutant("switch mask inverted in combine and triple", CO,
           "(f & ~m) | (g & m)", "(f & m) | (g & ~m)",
           (f"{TCO}::test_combined_examples",
            f"{TCO}::test_constructions_match_per_n_loop")),
    Mutant("'+' read as -1", CO,
           "plus.view(np.int8) * 2 - 1", "1 - plus.view(np.int8) * 2",
           (f"{TCO}::test_file_format_round_trip",
            f"{TCO}::test_loads_dumps_identity")),
    Mutant("Horner step adds before multiplying", CO,
           "acc = (acc * n + c) % p", "acc = (acc + c) * n % p",
           (f"{TCO}::test_single_p7_linear",
            f"{TCO}::test_constructions_match_per_n_loop_above_2_32")),
    # the CLI's one exception-to-exit-code mapping
    Mutant("BudgetExceeded mapped to exit 1", CL,
           "error, code = exc, EXIT_BUDGET", "error, code = exc, EXIT_INPUT",
           (f"{TCL}::test_measure_budget_exit_3",
            f"{TCL}::test_crosscorr_sampled_rare_admissible_tuples_exits_3")),
    Mutant("OSError not caught", CL,
           "except (ValueError, OSError) as exc:", "except ValueError as exc:",
           (f"{TCL}::test_input_errors_exit_1",
            f"{TCL}::test_main_fuzz_ends_in_an_exit_code")),
    # the CLI's one engine dispatch and its bound formulas
    Mutant("bound formula chosen from the wrong polynomial count", CL,
           "bound_theoremA_C if len(polys) == 1 else bound_C",
           "bound_theoremA_C if len(polys) == 3 else bound_C",
           (f"{TCL}::test_measure_reports_pinned",)),
    Mutant("engine dispatch ignores --method sampled", CL,
           'if args.method == "sampled":', "if False:",
           (f"{TCL}::test_crosscorr_sampled_theorem3_report_pinned",
            f"{TCL}::test_measure_sampled_seeded")),
]


def passes(work: Path, test: str) -> bool:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         test], cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest could not run {test}:\n{proc.stdout}"
                           f"{proc.stderr}")
    return proc.returncode == 0


def main(argv=None) -> int:
    t0 = time.perf_counter()
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, work / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        tests = sorted({t for m in chosen for t in m.tests})
        broken = [t for t in tests if not passes(work, t)]
        if broken:
            print(f"fails unmutated: {', '.join(broken)}", file=sys.stderr)
            return 2
        survivors = 0
        for m in chosen:
            start = time.perf_counter()
            path = work / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: {m.old!r} occurs {text.count(m.old)} "
                      f"times in {m.file}", file=sys.stderr)
                return 2
            path.write_text(text.replace(m.old, m.new))
            try:
                alive = [t for t in m.tests if passes(work, t)]
            finally:
                path.write_text(text)
            survivors += bool(alive)
            print(f"{'SURVIVED' if alive else 'killed  '} "
                  f"{time.perf_counter() - start:5.1f} s  {m.name}"
                  + "".join(f"\n    passes: {t}" for t in alive))
        print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed "
              f"in {time.perf_counter() - t0:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
