"""Mutation check: every one-line mutant below must be killed by its tests.

    python3 tests/mutants.py [NAME ...]

Each mutant replaces one fragment, which must occur exactly once, in a
file under src/.  The script copies src/, tests/ and pyproject.toml to a
temporary directory, first checks that every listed test passes there
unmutated, then applies one mutant at a time and runs each of its tests
alone with pytest.  A mutant is killed when every one of its tests
fails.  Exit status: 0 when all mutants are killed, 1 when one survives,
2 when a fragment is not found exactly once or a test fails unmutated.
pytest does not collect this file: its name matches no test pattern.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
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
           "min(_witness(views, value, *a) for a in achieving)",
           "_witness(views, value, *achieving[0])",
           (f"{TM}::test_phi_witness_matches_brute_force",
            f"{TM}::test_corr_matches_oracle")),
    Mutant("sampled tie-break takes the first achieving draw", M,
           "return value, _witness(views, value, *min(achieving))",
           "return value, _witness(views, value, *achieving[0])",
           (f"{TM}::test_sampled_c_tie_picks_smallest_lags",
            f"{TM}::test_sampled_phi_tie_picks_smallest_draw")),
    # the batched engine
    Mutant("batch overlap trimmed by the largest last lag", M,
           "n = views.shape[2] - int(R[:, -1].min())",
           "n = views.shape[2] - int(R[:, -1].max())",
           (f"{TM}::test_engine_matches_per_tuple_loop_correlation",
            f"{TM}::test_engine_matches_per_tuple_loop_cross")),
    Mutant("equal members may share a lag", M,
           "for i, j in pairs:", "for i, j in ():",
           (f"{TM}::test_engine_matches_per_tuple_loop_cross",
            f"{TM}::test_phi_witness_matches_brute_force",
            f"{TM}::test_corr_matches_oracle")),
    # the order-2 block filter
    Mutant("order-2 filter drops lags whose bound ties the best", M,
           "ub[p] >= best", "ub[p] > best",
           (f"{TM}::test_c2_all_ones", f"{TM}::test_c2_alternating")),
    Mutant("width term dropped from the block upper bound", M,
           "Q -= w  #", "Q -= 0  #",
           (f"{TM}::test_block_bounds_enclose_every_walk_range",)),
    Mutant("best lower bound taken before lag 0 of equal members is dropped",
           M, "lb[equal, 0] = ub[equal, 0] = -1\n"
           "        best = max(best, lb.max())",
           "ub[equal, 0] = -1\n        best = max(best, lb.max())\n"
           "        lb[equal, 0] = -1",
           (f"{TM}::test_corr_matches_oracle",
            f"{TM}::test_block_filter_matches_unfiltered_stream")),
    # exact W pruning and the witness finder
    Mutant("W pruned by floor(N/b)", M,
           "if -(-N // b) <= value:", "if N // b <= value:",
           (f"{TM}::test_w_pruned_matches_unpruned_scan_short",)),
    Mutant("witness finder ignores maxima before minima", M,
           "if lo_first and (not hi_first or first_lo < first_hi):",
           "if lo_first:",
           (f"{TM}::test_range_window_matches_reference_search",)),
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
    Mutant("zero symbol mapped to -1 in the single sequence", CO,
           "np.where(e == 0, 1, e)", "np.where(e == 0, -1, e)",
           (f"{TCO}::test_single_zero_rule",
            f"{TCO}::test_constructions_match_per_n_loop")),
    Mutant("p | f(n)g(n) checked on the selected branch only", CO,
           "(F == 0) | (G == 0)", "np.where(H >= 0, F, G) == 0",
           (f"{TCO}::test_triple_branch_precedence",
            f"{TCO}::test_constructions_match_per_n_loop")),
    Mutant("h(n) = 0 selects g", CO,
           "np.where(H >= 0, F, G)", "np.where(H > 0, F, G)",
           (f"{TCO}::test_triple_p7_example",
            f"{TCO}::test_constructions_match_per_n_loop")),
    Mutant("'+' read as -1", CO,
           "np.where(plus, np.int8(1), np.int8(-1))",
           "np.where(plus, np.int8(-1), np.int8(1))",
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
            print(f"{'SURVIVED' if alive else 'killed  '}  {m.name}"
                  + "".join(f"\n    passes: {t}" for t in alive))
        print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
