"""Command-line behavior: exit codes, report schema, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import legseq.cli as cli
import legseq.constructions as constructions
import legseq.tables as tables
from legseq.cli import main
from legseq.constructions import BinarySequence
from legseq.ff import Poly, parse_poly
from legseq.tables import EXAMPLES, PRIMES, TableSpec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_seq(tmp_path, name, values, p=None):
    meta = {"p": p} if p else {}
    path = tmp_path / name
    BinarySequence(tuple(values), meta).dump(path)
    return str(path)


def run_apart(*argv, timeout=60):
    """`python -m legseq.cli argv` in its own process, so that a hang
    fails the test by its timeout instead of stalling the suite."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "legseq.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


# --- gen -------------------------------------------------------------------


def test_gen_linear_p7(capsys):
    code, out, _ = run(capsys, "gen", "--p", "7", "--f", "x")
    assert code == 0
    assert out == "#LEGSEQ v1 p=7 n=7\n++-+--+\n"


def test_gen_theorem2(capsys):
    code, out, _ = run(capsys, "gen", "--p", "13", "--theorem2",
                       "A=2", "B=5", "C=6")
    assert code == 0
    assert out.startswith("#LEGSEQ v1 p=13 n=13\n")
    assert len(out.splitlines()[1]) == 13


def test_gen_f_equals_g_matches_single(capsys):
    code1, single, _ = run(capsys, "gen", "--p", "13", "--f", "x^2-2")
    code2, trip, _ = run(capsys, "gen", "--p", "13", "--f", "x^2-2",
                         "--g", "x^2-2", "--h", "x^2-5", "--skip-checks")
    assert code1 == code2 == 0
    assert single.splitlines()[1] == trip.splitlines()[1]


def test_gen_truncate_half(capsys):
    code, out, _ = run(capsys, "gen", "--p", "13", "--f", "x",
                       "--truncate-half")
    assert code == 0
    assert len(out.splitlines()[1]) == 7  # (p+1)/2


def test_gen_condition_failure_exits_2(capsys):
    # f = h fails the divisibility condition
    code, out, err = run(capsys, "gen", "--p", "13", "--f", "x^2+x+3",
                         "--g", "x^2+1", "--h", "x^2+x+3")
    assert code == 2
    assert "condition failed" in err


def test_gen_skip_checks_overrides(capsys):
    code, out, _ = run(capsys, "gen", "--p", "13", "--f", "x^2+x+3",
                       "--g", "x^2+1", "--h", "x^2+x+3", "--skip-checks")
    assert code == 0
    assert len(out.splitlines()[1]) == 13


def test_gen_bad_inputs_exit_1(capsys):
    assert run(capsys, "gen", "--p", "12", "--f", "x")[0] == 1
    assert run(capsys, "gen", "--p", "13", "--f", "x^")[0] == 1
    assert run(capsys, "gen", "--p", "13", "--f", "x", "--g", "x")[0] == 1
    assert run(capsys, "gen", "--p", "13")[0] == 1
    assert run(capsys, "gen", "--p", "13", "--theorem2",
               "A=4", "B=5", "C=6")[0] == 1  # 4 is a QR


def test_gen_out_file(tmp_path, capsys):
    dest = tmp_path / "seq.txt"
    code, out, _ = run(capsys, "gen", "--p", "7", "--f", "x",
                       "--out", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text() == "#LEGSEQ v1 p=7 n=7\n++-+--+\n"


# --- check -----------------------------------------------------------------


def test_check_valid_triple(capsys):
    code, out, _ = run(capsys, "check", "--p", "13", "--theorem2",
                       "A=2", "B=5", "C=6")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] is True
    assert payload["theorem2_sets"]["overall"] is True
    assert payload["divisibility"]["overall"] is True


def test_check_failing_triple_exits_2(capsys):
    code, out, _ = run(capsys, "check", "--p", "13", "--f", "x^2+x+3",
                       "--g", "x^2+1", "--h", "x^2+x+3")
    assert code == 2
    assert json.loads(out)["overall"] is False


def test_check_symmetric_flag(capsys):
    code, out, _ = run(capsys, "check", "--p", "13", "--symmetric",
                       "--theorem2", "A=2", "B=5", "C=6")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["divisibility"]["checks"]]
    assert "g_not_divides_fh_shifts" in ids


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("p", [100003, 2**61 - 1])
def test_check_large_p_strips_only_real_shifts(p, symmetric):
    # a scan over all p shifts could not finish here; the verdict is not
    # fixed, but every reported shift must really share a factor
    spec = EXAMPLES[2]
    f, g, h = (parse_poly(s, p) for s in (spec.f, spec.g, spec.h))
    proc = run_apart("check", "--p", str(p), "--f", spec.f, "--g", spec.g,
                     "--h", spec.h, *(["--symmetric"] if symmetric else []))
    assert proc.returncode in (0, 2), proc.stderr
    roles = {"f_not_divides_gh_shifts": (f, (g, h)),
             "g_not_divides_h_shifts": (g, (h,)),
             "g_not_divides_fh_shifts": (g, (f, h)),
             "f_not_divides_h_shifts": (f, (h,))}
    checks = json.loads(proc.stdout)["divisibility"]["checks"]
    assert len(checks) == 2
    for c in checks:
        target, factors = roles[c["id"]]
        if c["passed"]:
            continue
        listed = c["detail"].split("stripped at t=[", 1)[1].split("]")[0]
        shifts = [int(t) for t in listed.split(",")]
        assert all(1 <= t <= p for t in shifts)
        for t in shifts:
            prod = Poly.make((1,), p)
            for s in factors:
                prod = prod * s.shift(t)
            assert not target.gcd(prod).is_constant(), (c["id"], t)


def test_check_single_polynomial_reports_f_only(capsys):
    code, out, _ = run(capsys, "check", "--p", "13", "--f", "x^3-x^2")
    assert code == 2
    checks = json.loads(out)["squarefree"]["checks"]
    assert [c["id"] for c in checks] == ["squarefree_f"]
    assert not checks[0]["passed"] and "repeated factor" in checks[0]["detail"]


# --- measure ---------------------------------------------------------------


REPORT_KEYS = {"version", "p", "polynomials", "n", "conditions", "measures",
               "bounds", "timing_ms"}
MEASURE_KEYS = {"name", "order", "value", "method", "seed", "witness"}


def test_measure_report_schema(capsys):
    code, out, _ = run(capsys, "measure", "--p", "101", "--f", "x^2+1",
                       "--orders", "2,3")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == REPORT_KEYS
    assert rep["p"] == 101
    assert rep["polynomials"] == {"f": "x^2 + 1", "g": None, "h": None}
    assert [m["name"] for m in rep["measures"]] == ["W", "C", "C"]
    for m in rep["measures"]:
        assert set(m) == MEASURE_KEYS
    assert rep["bounds"][0]["name"] == "W"
    assert all(b["measured"] <= b["value"] for b in rep["bounds"])


def test_measure_file_matches_inline(tmp_path, capsys):
    dest = tmp_path / "seq.txt"
    assert run(capsys, "gen", "--p", "101", "--f", "x^3+x+1",
               "--out", str(dest))[0] == 0
    _, inline, _ = run(capsys, "measure", "--p", "101", "--f", "x^3+x+1")
    _, from_file, _ = run(capsys, "measure", "--in", str(dest))
    a, b = json.loads(inline), json.loads(from_file)
    assert a["measures"] == b["measures"]
    assert b["bounds"] == []  # no polynomial provenance from a bare file


def test_measure_deterministic_across_runs_and_threads(capsys):
    reports = []
    for threads in ("1", "2", "2"):
        _, out, _ = run(capsys, "measure", "--p", "499", "--f", "x^2+3x+1",
                        "--orders", "2,3", "--threads", threads)
        rep = json.loads(out)
        del rep["timing_ms"]
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1] == reports[2]


def test_measure_sampled_seeded(capsys):
    args = ("measure", "--p", "499", "--f", "x^2+1", "--method", "sampled",
            "--samples", "20", "--seed", "42")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    a, b = json.loads(out1), json.loads(out2)
    assert a["measures"] == b["measures"]
    assert a["measures"][1]["method"] == "sampled"
    assert a["measures"][1]["seed"] == 42


def test_measure_oracle_agrees(capsys):
    _, exact, _ = run(capsys, "measure", "--p", "43", "--f", "x^2+1")
    _, oracle, _ = run(capsys, "measure", "--p", "43", "--f", "x^2+1",
                       "--oracle")
    a, b = json.loads(exact), json.loads(oracle)
    assert [m["value"] for m in a["measures"]] \
        == [m["value"] for m in b["measures"]]


def test_measure_budget_exit_3(capsys):
    code, _, err = run(capsys, "measure", "--p", "499", "--f", "x^2+1",
                       "--orders", "4", "--budget", "1000")
    assert code == 3
    assert "budget" in err


def test_measure_repeated_orders_exit_1(capsys):
    for orders in ("2,2", "2,3,2"):
        code, out, err = run(capsys, "measure", "--p", "43", "--f", "x^2+1",
                             "--orders", orders)
        assert (code, out) == (1, "")
        assert "repeated" in err


def test_negative_budget_exits_1_and_zero_budget_exits_3(tmp_path, capsys):
    a = write_seq(tmp_path, "a.txt", (1, -1, 1, 1, -1, -1, 1))
    b = write_seq(tmp_path, "b.txt", (1, 1, -1, 1, -1, 1, -1))
    for argv in (("crosscorr", a, b, "--order", "2"),
                 ("crosscorr", a, b, "--method", "sampled"),
                 ("measure", "--p", "43", "--f", "x^2+1")):
        code, out, err = run(capsys, *argv, "--budget", "-1")
        assert (code, out) == (1, "") and "--budget" in err
        code, out, err = run(capsys, *argv, "--budget", "0")
        assert (code, out) == (3, "") and "budget 0" in err


@pytest.mark.parametrize("argv", [("gen", "--skip-checks"), ("measure",)])
def test_length_above_cap_exits_3_before_allocating(monkeypatch, capsys,
                                                   argv):
    # p = 2^61 - 1 is a prime the checks accept; its Legendre table would
    # need 2^64 bytes, so the cap must refuse it before building anything
    def no_table(p):
        raise AssertionError(f"legendre_table({p}) called above the cap")

    monkeypatch.setattr(constructions, "legendre_table", no_table)
    code, out, err = run(capsys, argv[0], "--p", "2305843009213693951",
                         "--f", "x^2+1", *argv[1:])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(constructions.MAX_LENGTH) in err


def test_measure_triple_reports_conditions(capsys):
    _, out, _ = run(capsys, "measure", "--p", "101", "--theorem2",
                    "A=2", "B=8", "C=26", "--orders", "2")
    rep = json.loads(out)
    assert rep["conditions"]["divisibility"]["overall"] is True
    assert "correlation_order_2" in rep["conditions"]
    assert rep["bounds"][1]["guaranteed"] is True


def pinned(capsys, *argv):
    """(sha256 of the report's text without its timing_ms line, the
    report), so that a digest pins the report byte for byte apart from
    its timing."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    text = re.sub(r',\n  "timing_ms": [^\n]*', "", out)
    return hashlib.sha256(text.encode()).hexdigest(), json.loads(out)


def bound_rows(rep):
    return [(b["name"], b["value"], b["guaranteed"]) for b in rep["bounds"]]


def test_measure_reports_pinned(capsys):
    # 10 k l sqrt(p) ln p for a lone f, 2^(l+3) l k sqrt(p) ln p for three
    digest, rep = pinned(capsys, "measure", "--p", "101", "--f", "x^2+1",
                         "--orders", "2,3")
    assert rep["polynomials"] == {"f": "x^2 + 1", "g": None, "h": None}
    assert bound_rows(rep) == [("W", 927.6277434147563, True),
                               ("C2", 1855.2554868295126, True),
                               ("C3", 2782.883230244269, True)]
    assert digest == ("9c547ef977b59fec7f4ec97e65334536"
                      "ff49b59754e3bd3202af77d4905c63e2")

    digest, rep = pinned(capsys, "measure", "--p", "101", "--f", "x^2+1",
                         "--g", "x^2+3x+1", "--h", "x^3-1", "--orders", "2,3")
    assert rep["polynomials"] == {"f": "x^2 + 1", "g": "x^2 + 3*x + 1",
                                  "h": "x^3 + 100"}
    assert bound_rows(rep) == [("W", 1391.4416151221344, False),
                               ("C2", 8905.226336781661, False),
                               ("C3", 26715.679010344982, False)]
    assert digest == ("ee1630882359ccf57eacae0e4dfe3585"
                      "e3346e546cae176b27eddd9d49ab0ebe")

    digest, rep = pinned(capsys, "measure", "--p", "101", "--theorem2",
                         "A=2", "B=8", "C=26", "--orders", "2,3")
    assert rep["polynomials"] == {"f": "x^2 + 99", "g": "x^2 + 93",
                                  "h": "x^2 + 75"}
    assert bound_rows(rep) == [("W", 927.6277434147563, True),
                               ("C2", 5936.817557854441, True),
                               ("C3", 17810.452673563323, True)]
    assert digest == ("3a4a673a966db2ef8f483cd442ab7672"
                      "7d808823f13e1ca20db62773ded1a319")


def test_crosscorr_sampled_theorem3_report_pinned(tmp_path, capsys):
    # Phi_2..4 sampled, C_2 of the combined sequence exact
    files = [write_seq(tmp_path, f"s{i}.txt",
                       [1 if c == "+" else -1 for c in signs])
             for i, signs in enumerate(("++-+--+-+++--+-+",
                                        "+--+-++-+-+--++-",
                                        "---+++-+-+++-+--"))]
    digest, rep = pinned(capsys, "crosscorr", *files, "--order", "2",
                         "--theorem3", "--method", "sampled",
                         "--samples", "40", "--seed", "7")
    assert [(m["name"], m["order"], m["method"], m["value"])
            for m in rep["measures"]] == [
        ("Phi", 2, "sampled", 9), ("Phi", 3, "sampled", 7),
        ("Phi", 4, "sampled", 5), ("C", 2, "exact", 6)]
    assert bound_rows(rep) == [("C2_combined", 36.0, False)]
    assert digest == ("c994830ffef8c6e5c0e2d899d5dd4026"
                      "efe80e5b73c4c57c0909c2493b0ed721")


# --- table -----------------------------------------------------------------


TINY_SPEC_OK = {1: TableSpec(1, "x^2+1", "x^2+3x+1", "x^3-1", {})}


def _patch_tables(monkeypatch, expected_rows):
    spec = TableSpec(1, "x^2+1", "x^2+3x+1", "x^3-1", expected_rows)
    monkeypatch.setattr(tables, "EXAMPLES", {1: spec})
    monkeypatch.setattr(tables, "PRIMES", tuple(expected_rows))
    monkeypatch.setattr(cli, "EXAMPLES", {1: spec})
    monkeypatch.setattr(cli, "PRIMES", tuple(expected_rows))


def test_table_exit_0_on_match(monkeypatch, capsys):
    p = 101
    row = tables.compute_row(1, p)
    _patch_tables(monkeypatch, {p: row})
    code, out, err = run(capsys, "table", "--example", "1")
    assert code == 0
    assert "PASS" in out and err == ""


def test_table_exit_4_on_mismatch(monkeypatch, capsys):
    p = 101
    row = list(tables.compute_row(1, p))
    row[3] += 1  # poison one cell
    _patch_tables(monkeypatch, {p: tuple(row)})
    code, out, err = run(capsys, "table", "--example", "1", "--format", "csv")
    assert code == 4
    assert "W_fgh" in err and "1 mismatched cells" in err
    header = out.splitlines()[0]
    assert header == "example,p,W_f,W_g,W_h,W_fgh,C2_f,C2_g,C2_h,C2_fgh"


def test_table_csv_rows_keyed_by_example_and_p(monkeypatch, capsys):
    # every example shares the primes, so p alone repeats across examples
    monkeypatch.setattr(cli, "diff_row", lambda ex, p: ((0,) * 8, None, []))
    code, out, _ = run(capsys, "table", "--example", "all", "--format", "csv")
    assert code == 0
    keys = [tuple(line.split(",")[:2]) for line in out.splitlines()[1:]]
    assert len(keys) == len(EXAMPLES) * len(PRIMES) == len(set(keys))


def test_table_json_format(monkeypatch, capsys):
    p = 101
    row = tables.compute_row(1, p)
    _patch_tables(monkeypatch, {p: row})
    code, out, _ = run(capsys, "table", "--example", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["p"] == p
    assert payload[0]["mismatches"] == []
    assert payload[0]["computed"] == payload[0]["expected"]


# --- combine / crosscorr ---------------------------------------------------


def test_combine(tmp_path, capsys):
    F = write_seq(tmp_path, "f.txt", (1, 1))
    G = write_seq(tmp_path, "g.txt", (-1, -1))
    H = write_seq(tmp_path, "h.txt", (1, -1))
    code, out, _ = run(capsys, "combine", F, G, H)
    assert code == 0
    assert out.splitlines()[1] == "+-"


def test_combine_all_plus_switch_returns_first(tmp_path, capsys):
    F = write_seq(tmp_path, "f.txt", (1, -1, 1))
    G = write_seq(tmp_path, "g.txt", (-1, 1, -1))
    H = write_seq(tmp_path, "h.txt", (1, 1, 1))
    _, out, _ = run(capsys, "combine", F, G, H)
    assert out.splitlines()[1] == "+-+"


def test_combine_check_distinct(tmp_path, capsys):
    F = write_seq(tmp_path, "f.txt", (1, 1))
    G = write_seq(tmp_path, "g.txt", (1, 1))
    H = write_seq(tmp_path, "h.txt", (1, -1))
    assert run(capsys, "combine", F, G, H, "--check-distinct")[0] == 2
    assert run(capsys, "combine", F, G, H)[0] == 0


def test_combine_length_mismatch_exit_1(tmp_path, capsys):
    F = write_seq(tmp_path, "f.txt", (1, 1))
    G = write_seq(tmp_path, "g.txt", (-1, -1, -1))
    H = write_seq(tmp_path, "h.txt", (1, -1))
    assert run(capsys, "combine", F, G, H)[0] == 1


def test_crosscorr_constant_pair(tmp_path, capsys):
    F = write_seq(tmp_path, "f.txt", (1,) * 4)
    G = write_seq(tmp_path, "g.txt", (-1,) * 4)
    code, out, _ = run(capsys, "crosscorr", F, G, "--order", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["measures"][0]["name"] == "Phi"
    assert rep["measures"][0]["value"] == 4


def test_crosscorr_single_file_order2_equals_restricted_c2(tmp_path, capsys):
    import numpy as np
    from legseq.measures import correlation
    rng = np.random.default_rng(7)
    vals = tuple(int(v) for v in rng.choice((-1, 1), size=20))
    F = write_seq(tmp_path, "f.txt", vals)
    _, out, _ = run(capsys, "crosscorr", F, "--order", "2")
    rep = json.loads(out)
    assert rep["measures"][0]["value"] \
        == correlation(BinarySequence(vals), 2).value


def test_crosscorr_theorem3(tmp_path, capsys):
    import numpy as np
    rng = np.random.default_rng(11)
    files = []
    seqs = set()
    while len(files) < 3:
        vals = tuple(int(v) for v in rng.choice((-1, 1), size=16))
        if vals in seqs:
            continue
        seqs.add(vals)
        files.append(write_seq(tmp_path, f"s{len(files)}.txt", vals))
    code, out, _ = run(capsys, "crosscorr", *files, "--order", "2",
                       "--theorem3")
    assert code == 0
    rep = json.loads(out)
    phis = [m for m in rep["measures"] if m["name"] == "Phi"]
    assert [m["order"] for m in phis] == [2, 3, 4]
    bound = rep["bounds"][0]
    assert bound["value"] == 4 * max(m["value"] for m in phis)
    assert bound["measured"] <= bound["value"]


def test_crosscorr_theorem3_needs_distinct(tmp_path, capsys):
    F = write_seq(tmp_path, "f.txt", (1, -1, 1, -1))
    G = write_seq(tmp_path, "g.txt", (1, -1, 1, -1))
    H = write_seq(tmp_path, "h.txt", (1, 1, -1, -1))
    code, _, _ = run(capsys, "crosscorr", F, G, H, "--order", "2",
                     "--theorem3")
    assert code == 2


def test_crosscorr_no_admissible_tuple_exits_1(tmp_path, capsys):
    # one member of length 3 offers only 3 distinct lags to 4 positions
    F = write_seq(tmp_path, "f.txt", (1, -1, 1))
    code, out, err = run(capsys, "crosscorr", F, "--order", "4")
    assert code == 1
    assert out == ""
    assert "no admissible" in err


def test_crosscorr_sampled_no_admissible_tuple_exits_1(tmp_path):
    # run apart so that a redraw loop that never ends fails, not hangs
    F = write_seq(tmp_path, "f.txt", (1, -1, 1))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "legseq.cli", "crosscorr", F, "--order", "4",
         "--method", "sampled"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "no admissible" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_crosscorr_sampled_rare_admissible_tuples_exits_3(tmp_path):
    # one member of length 16 at order 16 admits one lag tuple in ~10^6
    # uniform draws; the redraw cap ends the run with a budget error
    F = write_seq(tmp_path, "f.txt", [1, -1, -1, 1] * 4)
    proc = run_apart("crosscorr", F, "--order", "16", "--method", "sampled",
                     "--samples", "20")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "exact" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sampled_draws_beyond_the_budget_exit_3(tmp_path, capsys):
    # 10^12 draws of 8 steps pass the default budget: the run must refuse
    # before it draws, not allocate them (run apart, so a hang fails)
    F = write_seq(tmp_path, "f.txt", [1, -1, -1, 1] * 2)
    runs = (("measure", "--in", F, "--orders", "2"),
            ("crosscorr", F, F, "--order", "2"))
    for argv in runs:
        proc = run_apart(*argv, "--method", "sampled", "--samples",
                         "1000000000000", timeout=30)
        assert proc.returncode == 3
        assert "budget" in proc.stderr and "Traceback" not in proc.stderr
    # --budget reaches both estimators: 10 draws of 8 steps need 80
    for argv, (budget, code) in product(runs, (("79", 3), ("80", 0))):
        assert run(capsys, *argv, "--method", "sampled", "--samples", "10",
                   "--budget", budget)[0] == code


def test_crosscorr_sampled_rare_tuples_at_twice_the_length_exits_3(tmp_path):
    # two distinct members of length 24 at order 48 must each take all 24
    # lags; the redraw check is linear in the order, so the cap is reached
    # within the timeout and the run ends with a budget error
    F = write_seq(tmp_path, "f.txt", [1, -1, -1] * 8)
    G = write_seq(tmp_path, "g.txt", [1, 1, -1] * 8)
    proc = run_apart("crosscorr", F, G, "--order", "48", "--method",
                     "sampled", "--samples", "20")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "exact" in proc.stderr
    assert "Traceback" not in proc.stderr


# --- bounds ----------------------------------------------------------------


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--p", "2003", "--k", "2",
                       "--format", "json")
    assert code == 0
    names = [b["name"] for b in json.loads(out)]
    assert names == ["W", "C2", "C2_single", "weil_incomplete"]


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built, init = [], cli._Parser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli._Parser, "__init__", spy)
    for k in ("2", "3"):
        assert run(capsys, "bounds", "--p", "101", "--k", k)[0] == 0
    assert built.count("legseq") == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --- input errors and the exit-code contract -------------------------------


def exit_code(argv):
    """main(argv)'s exit code; argparse ends with SystemExit instead."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


T2 = ("--theorem2", "A=2", "B=5", "C=6")


@pytest.mark.parametrize("argv", [
    # --out into a directory that does not exist
    ("gen", "--p", "7", "--f", "x", "--out", "{missing}"),
    ("measure", "--p", "7", "--f", "x", "--out", "{missing}"),
    ("combine", "{a}", "{b}", "{a}", "--out", "{missing}"),
    ("crosscorr", "{a}", "{b}", "--out", "{missing}"),
    # bounds outside the domain of their formulas
    ("bounds", "--p", "1", "--k", "2"),
    ("bounds", "--p", "7", "--k", "0"),
    ("bounds", "--p", "7", "--k", "2", "--order", "1"),
    # a modulus that is not an odd prime
    ("bounds", "--p", "9", "--k", "2"),
    ("bounds", "--p", "4", "--k", "2"),
    # an argparse usage error
    ("measure", "--p", "7", "--f", "x", "--method", "bogus"),
    # two input sources at once
    ("gen", "--p", "13", "--f", "x", *T2),
    ("check", "--p", "13", "--h", "x", *T2),
    ("measure", "--p", "13", "--f", "x", *T2),
    ("measure", "--in", "{a}", "--p", "7"),
    ("measure", "--in", "{a}", "--f", "x"),
    ("measure", "--in", "{a}", *T2),
])
def test_input_errors_exit_1(argv, tmp_path, capsys):
    names = {"a": write_seq(tmp_path, "a.txt", (1, -1, 1, 1, -1, -1, 1)),
             "b": write_seq(tmp_path, "b.txt", (1, 1, -1, 1, -1, 1, -1)),
             "missing": str(tmp_path / "missing" / "out.txt")}
    code = exit_code(arg.format(**names) for arg in argv)
    out = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in out.err
    assert out.err.count("error:") == 1
    assert not (tmp_path / "missing").exists()


FUZZ_P = st.one_of(st.sampled_from((7, 11, 13, 43, 61, 97)),
                   st.integers(-3, 99)).map(str)
FUZZ_POLYS = st.one_of(
    st.sampled_from(("x", "x^2+1", "x^2+3x+1", "x^3-1", "x^3-x^2", "3", "")),
    st.text("x^+-0123456789", max_size=6))
FUZZ_SETS = st.one_of(
    st.sampled_from((("A=2", "B=5", "C=6"), ("A=3", "B=5", "C=12"))),
    st.lists(st.sampled_from(("A=2", "B=5", "C=6", "A=4", "B=2,5", "C=x",
                              "D=1", "A=")), min_size=3, max_size=3))
FUZZ_FILES = st.sampled_from(("a.txt", "b.txt", "c.txt", "one.txt",
                              "bad.txt", "missing.txt"))
SMALL = st.integers(-1, 3).map(str)


@st.composite
def cli_argv(draw):
    """One argv for any subcommand: small p, orders <= 3, bad values."""
    def opt(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    def flag(name):
        return [name] if draw(st.booleans()) else []

    def files(least, most):
        return draw(st.lists(FUZZ_FILES, min_size=least, max_size=most))

    def inputs():
        source = draw(st.sampled_from(("f", "fgh", "theorem2", "any")))
        if source == "f":
            return ["--p", draw(FUZZ_P), "--f", draw(FUZZ_POLYS)]
        if source == "fgh":
            return ["--p", draw(FUZZ_P), *(x for name in "fgh" for x in (
                f"--{name}", draw(FUZZ_POLYS)))]
        if source == "theorem2":
            return ["--p", draw(FUZZ_P), "--theorem2", *draw(FUZZ_SETS)]
        return [*opt("--p", FUZZ_P), *opt("--f", FUZZ_POLYS),
                *opt("--g", FUZZ_POLYS), *opt("--h", FUZZ_POLYS),
                *(["--theorem2", *draw(FUZZ_SETS)] if draw(st.booleans())
                  else [])]

    engine = (opt("--method", st.sampled_from(("exact", "sampled", "x")))
              + opt("--samples", st.integers(-1, 30).map(str))
              + opt("--seed", st.integers(-2, 2**64).map(str))
              + opt("--budget", st.integers(-1, 10**6).map(str)))
    out = opt("--out", st.sampled_from(("-", "out.txt", "missing/out.txt")))
    cmd = draw(st.sampled_from(("gen", "check", "measure", "table", "combine",
                                "crosscorr", "bounds")))
    if cmd == "gen":
        return [cmd, *inputs(), *flag("--truncate-half"),
                *flag("--skip-checks"), *out]
    if cmd == "check":
        return [cmd, *inputs(), *flag("--symmetric")]
    if cmd == "measure":
        if draw(st.booleans()):
            source = inputs()
        else:  # a file, sometimes with flags that clash with it
            source = ["--in", *files(1, 1)]
            if draw(st.booleans()):
                source += inputs()
        orders = st.sampled_from(("1", "2", "3", "2,3", "0", "-1", "a", ","))
        return [cmd, *source, *opt("--orders", orders), *engine,
                *flag("--oracle"), *opt("--threads", SMALL), *out]
    if cmd == "table":
        example = draw(st.sampled_from(("1", "2", "3", "4", "all", "5")))
        return [cmd, "--example", example, *opt("--format", st.sampled_from(
            ("text", "csv", "json", "xml")))]
    if cmd == "combine":
        return [cmd, *files(3, 4), *flag("--check-distinct"), *out]
    if cmd == "crosscorr":
        return [cmd, *files(1, 4), *opt("--order", SMALL), *engine,
                *flag("--theorem3"), *out]
    return [cmd, "--p", draw(FUZZ_P), "--k", draw(SMALL),
            *opt("--order", SMALL),
            *opt("--format", st.sampled_from(("text", "json", "csv")))]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
# an OSError on every run, not only when a random argv happens to raise one
@example(argv=["measure", "--in", "missing.txt"])
@example(argv=["gen", "--p", "7", "--f", "x", "--out", "missing/out.txt"])
def test_main_fuzz_ends_in_an_exit_code(argv, tmp_path, monkeypatch, capsys):
    # four examples at p = 11 and 13, with example 1's rows right
    specs = {ex: TableSpec(ex, s.f, s.g, s.h, {11: (0,) * 8, 13: (0,) * 8})
             for ex, s in EXAMPLES.items()}
    specs[1] = TableSpec(1, specs[1].f, specs[1].g, specs[1].h,
                         {p: tables.compute_row(1, p) for p in (11, 13)})
    for module in (tables, cli):
        monkeypatch.setattr(module, "EXAMPLES", specs)
        monkeypatch.setattr(module, "PRIMES", (11, 13))
    monkeypatch.chdir(tmp_path)
    for name, values in (("a.txt", (1, -1, 1, 1, -1, -1)),
                         ("b.txt", (1, 1, -1, 1, -1, 1)),
                         ("c.txt", (-1, 1, 1, -1, 1, -1)),
                         ("one.txt", (1,))):
        write_seq(tmp_path, name, values)
    (tmp_path / "bad.txt").write_text("not a sequence\n")
    code = exit_code(argv)
    capsys.readouterr()
    assert code in range(5), (argv, code)
