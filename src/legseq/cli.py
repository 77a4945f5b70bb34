"""Command-line surface.

Subcommands: gen (write a sequence file), check (validity conditions),
measure (W and C_l with witnesses and bounds), table (regenerate the
embedded reference tables and diff them), combine (interleave two
sequences under a switch sequence), crosscorr (family cross-correlation)
and bounds (print the theoretical bound formulas).

Exit codes: 0 success, 1 input error, 2 condition failure, 3 work budget
exceeded, 4 table mismatch.  All configuration is via flags so runs are
reproducible; identical invocations produce byte-identical reports aside
from the timing field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .bounds import (BoundReport, bound_C, bound_theorem3, bound_theoremA_C,
                     bound_W, weil_incomplete_bound)
from .conditions import (check_correlation_order, check_divisibility_condition,
                         check_divisibility_condition_symmetric,
                         check_squarefree_triple, check_theorem2_sets)
from .constructions import (BinarySequence, PolyTriple, build_theorem2_polys,
                            construct_combined, construct_single,
                            construct_triple)
from .ff import PrimeModulus, QnrSet, parse_poly
from .measures import (DEFAULT_BUDGET, DEFAULT_SEED, BudgetExceeded,
                       correlation, correlation_sampled, cross_correlation,
                       cross_correlation_sampled, oracle_correlation,
                       oracle_well_distribution, well_distribution)
from .tables import COLUMNS, EXAMPLES, PRIMES, diff_row

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONDITION = 2
EXIT_BUDGET = 3
EXIT_TABLE = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _parse_qnr_sets(tokens, p):
    sets = {}
    for tok in tokens:
        name, _, body = tok.partition("=")
        if name not in ("A", "B", "C") or not body:
            raise CliError(f"bad set spec {tok!r}; expected e.g. A=2,5")
        try:
            elems = [int(x) for x in body.split(",")]
        except ValueError:
            raise CliError(f"bad set spec {tok!r}") from None
        sets[name] = elems
    if set(sets) != {"A", "B", "C"}:
        raise CliError("need all three sets A=..., B=..., C=...")
    try:
        return (QnrSet.make(sets["A"], p), QnrSet.make(sets["B"], p),
                QnrSet.make(sets["C"], p))
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _build_inputs(args):
    """Resolve --f/--g/--h or --theorem2 into polynomials; returns
    (p, single_poly_or_None, triple_or_None, qnr_sets_or_None)."""
    try:
        p = PrimeModulus(args.p).p
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if getattr(args, "theorem2", None):
        sets = _parse_qnr_sets(args.theorem2, p)
        try:
            triple = build_theorem2_polys(*sets)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        return p, None, triple, sets
    if args.f is None:
        raise CliError("need --f (optionally with --g and --h) or --theorem2")
    try:
        f = parse_poly(args.f, p)
        if (args.g is None) != (args.h is None):
            raise CliError("--g and --h must be given together")
        if args.g is not None:
            triple = PolyTriple(f, parse_poly(args.g, p), parse_poly(args.h, p))
            return p, None, triple, None
        if f.degree < 1:
            raise CliError("constant polynomial")
        return p, f, None, None
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _run_checks(p, single, triple, sets, symmetric=False):
    """Condition reports for the given inputs, keyed by check name."""
    out = {}
    try:
        if sets is not None:
            out["theorem2_sets"] = check_theorem2_sets(*sets)
        if triple is not None:
            out["squarefree"] = check_squarefree_triple(triple)
            if out["squarefree"].overall:
                out["divisibility"] = (
                    check_divisibility_condition_symmetric(triple)
                    if symmetric else check_divisibility_condition(triple))
        else:
            # single-polynomial rule only needs f itself squarefree
            full = check_squarefree_triple(PolyTriple(single, single, single))
            out["squarefree"] = type(full)((full.checks[0],))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return out


def _checks_pass(reports):
    return all(r.overall for r in reports.values())


def _emit(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_gen(args):
    p, single, triple, sets = _build_inputs(args)
    reports = _run_checks(p, single, triple, sets)
    if not _checks_pass(reports) and not args.skip_checks:
        for name, rep in reports.items():
            for c in rep.checks:
                if not c.passed:
                    print(f"condition failed [{name}/{c.id}]: {c.detail}",
                          file=sys.stderr)
        raise CliError("validity conditions failed (use --skip-checks "
                       "to generate anyway)", EXIT_CONDITION)
    seq = construct_single(single) if single else construct_triple(triple)
    if args.truncate_half:
        half = (p + 1) // 2
        seq = BinarySequence(seq.values[:half], dict(seq.meta))
    _emit(seq.dumps(), args.out)
    return EXIT_OK


def cmd_check(args):
    p, single, triple, sets = _build_inputs(args)
    reports = _run_checks(p, single, triple, sets, symmetric=args.symmetric)
    payload = {name: rep.to_json() for name, rep in reports.items()}
    payload["overall"] = _checks_pass(reports)
    print(json.dumps(payload, indent=2))
    return EXIT_OK if payload["overall"] else EXIT_CONDITION


def _measure_sequence(seq, args):
    """Measure W and the requested correlation orders; returns
    (measures, budget_error_or_None)."""
    measures = []
    if args.oracle:
        measures.append(oracle_well_distribution(seq))
    else:
        measures.append(well_distribution(seq))
    for order in args.orders:
        if args.oracle:
            measures.append(oracle_correlation(seq, order))
        elif args.method == "sampled":
            measures.append(correlation_sampled(
                seq, order, args.samples, seed=args.seed))
        else:
            measures.append(correlation(seq, order, budget=args.budget))
    return measures


def cmd_measure(args):
    t0 = time.perf_counter()
    args.orders = _parse_orders(args.orders)
    if args.infile:
        try:
            seq = BinarySequence.load(args.infile)
        except (OSError, ValueError) as exc:
            raise CliError(str(exc)) from None
        p = seq.meta.get("p")
        single = triple = sets = None
        reports = {}
    else:
        if args.p is None:
            raise CliError("need --in FILE or --p with polynomials")
        p, single, triple, sets = _build_inputs(args)
        reports = _run_checks(p, single, triple, sets)
        seq = construct_single(single) if single else construct_triple(triple)
    try:
        measures = _measure_sequence(seq, args)
    except BudgetExceeded as exc:
        raise CliError(str(exc), EXIT_BUDGET) from None
    except ValueError as exc:
        raise CliError(str(exc)) from None

    bound_reports = []
    if single is not None or triple is not None:
        k = single.degree if single is not None else triple.max_degree
        guaranteed = _checks_pass(reports)
        bound_reports.append(BoundReport(
            "W", {"k": k, "p": p}, bound_W(k, p),
            measured=measures[0].value, guaranteed=guaranteed))
        for res in measures[1:]:
            order = res.order
            fn = bound_theoremA_C if single is not None else bound_C
            corder = check_correlation_order(order, k, p)
            reports[f"correlation_order_{order}"] = corder
            bound_reports.append(BoundReport(
                f"C{order}", {"k": k, "p": p, "order": order},
                fn(order, k, p), measured=res.value,
                guaranteed=guaranteed and corder.overall))

    report = {
        "version": __version__,
        "p": p,
        "polynomials": {
            "f": str(single) if single is not None
            else (str(triple.f) if triple else None),
            "g": str(triple.g) if triple else None,
            "h": str(triple.h) if triple else None,
        },
        "n": seq.n,
        "conditions": {k: v.to_json() for k, v in reports.items()},
        "measures": [m.to_json() for m in measures],
        "bounds": [b.to_json() for b in bound_reports],
        "timing_ms": round((time.perf_counter() - t0) * 1000, 3),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def _parse_orders(text):
    try:
        orders = [int(x) for x in str(text).split(",") if x.strip()]
    except ValueError:
        raise CliError(f"bad --orders value {text!r}") from None
    if not orders:
        raise CliError("no correlation orders requested")
    return orders


def cmd_table(args):
    examples = ([int(args.example)] if args.example != "all"
                else sorted(EXAMPLES))
    rows = []
    all_mismatches = []
    for ex in examples:
        for p in PRIMES:
            computed, expected, mismatches = diff_row(ex, p)
            rows.append((ex, p, computed, expected, mismatches))
            all_mismatches.extend(
                (ex, p, col, e, g) for col, e, g in mismatches)

    if args.format == "csv":
        print("p," + ",".join(COLUMNS))
        for ex, p, computed, _, _ in rows:
            print(f"{p}," + ",".join(str(v) for v in computed))
    elif args.format == "json":
        payload = [
            {
                "example": ex, "p": p,
                "computed": dict(zip(COLUMNS, computed)),
                "expected": dict(zip(COLUMNS, expected)),
                "mismatches": [
                    {"cell": col, "expected": e, "computed": g}
                    for col, e, g in mm
                ],
            }
            for ex, p, computed, expected, mm in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        header = f"{'ex':>2} {'p':>5}" + "".join(
            f" {c:>12}" for c in COLUMNS)
        print(header)
        for ex, p, computed, expected, mm in rows:
            bad = {col for col, _, _ in mm}
            cells = "".join(
                f" {f'{got} PASS' if col not in bad else f'{got}!{exp}':>12}"
                for col, got, exp in zip(COLUMNS, computed, expected))
            print(f"{ex:>2} {p:>5}{cells}")
    if all_mismatches:
        print(f"{len(all_mismatches)} mismatched cells:", file=sys.stderr)
        for ex, p, col, e, g in all_mismatches:
            print(f"  example {ex} p={p} {col}: expected {e}, computed {g}",
                  file=sys.stderr)
        return EXIT_TABLE
    return EXIT_OK


def cmd_combine(args):
    try:
        F, G, H = (BinarySequence.load(path) for path in args.files)
        if args.check_distinct:
            if (F.values == G.values or F.values == H.values
                    or G.values == H.values):
                raise CliError("sequences must be pairwise distinct",
                               EXIT_CONDITION)
        seq = construct_combined(F, G, H)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from None
    _emit(seq.dumps(), args.out)
    return EXIT_OK


def cmd_crosscorr(args):
    t0 = time.perf_counter()
    try:
        family = [BinarySequence.load(path) for path in args.files]
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from None
    order = args.order
    measures = []
    bound_reports = []
    try:
        if args.theorem3:
            if len(family) != 3:
                raise CliError("--theorem3 needs exactly three files")
            vals = [s.values for s in family]
            if len({vals[0], vals[1], vals[2]}) != 3:
                raise CliError("--theorem3 needs pairwise distinct "
                               "sequences", EXIT_CONDITION)
            phi = {}
            for k in range(order, 2 * order + 1):
                res = _phi(family, k, args)
                phi[k] = res.value
                measures.append(res)
            combined = construct_combined(*family)
            cres = correlation(combined, order, budget=args.budget)
            measures.append(cres)
            bnd = bound_theorem3(order, phi)
            bound_reports.append(BoundReport(
                f"C{order}_combined", {"order": order}, float(bnd),
                measured=cres.value,
                guaranteed=all(m.method == "exact" for m in measures)))
        else:
            measures.append(_phi(family, order, args))
    except BudgetExceeded as exc:
        raise CliError(str(exc), EXIT_BUDGET) from None
    except ValueError as exc:
        raise CliError(str(exc)) from None
    report = {
        "version": __version__,
        "p": None,
        "polynomials": {"f": None, "g": None, "h": None},
        "n": family[0].n,
        "conditions": {},
        "measures": [m.to_json() for m in measures],
        "bounds": [b.to_json() for b in bound_reports],
        "timing_ms": round((time.perf_counter() - t0) * 1000, 3),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def _phi(family, order, args):
    if args.method == "sampled":
        return cross_correlation_sampled(
            family, order, args.samples, seed=args.seed)
    return cross_correlation(family, order, budget=args.budget)


def cmd_bounds(args):
    p = args.p
    k = args.k
    order = args.order
    entries = [
        BoundReport("W", {"k": k, "p": p}, bound_W(k, p)),
        BoundReport(f"C{order}", {"k": k, "p": p, "order": order},
                    bound_C(order, k, p)),
        BoundReport(f"C{order}_single", {"k": k, "p": p, "order": order},
                    bound_theoremA_C(order, k, p)),
        BoundReport("weil_incomplete", {"s": k, "p": p},
                    weil_incomplete_bound(k, p)),
    ]
    if args.format == "json":
        print(json.dumps([b.to_json() for b in entries], indent=2))
    else:
        for b in entries:
            print(f"{b.name:>16}  {b.bound:14.3f}  {b.params}")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="legseq",
        description="Legendre-symbol binary sequences: generation, "
                    "validity checks, exact pseudorandomness measures "
                    "and bound comparisons.")
    ap.add_argument("--version", action="version",
                    version=f"legseq {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_poly_args(sp):
        sp.add_argument("--p", type=int, required=True, help="odd prime")
        sp.add_argument("--f", help="polynomial text, e.g. 'x^2+3x+1'")
        sp.add_argument("--g")
        sp.add_argument("--h")
        sp.add_argument("--theorem2", nargs=3, metavar=("A=..", "B=..", "C=.."),
                        help="build the even squarefree triple from "
                             "quadratic non-residue sets")

    sp = sub.add_parser("gen", help="generate a sequence file")
    add_poly_args(sp)
    sp.add_argument("--truncate-half", action="store_true",
                    help="emit only the first (p+1)/2 elements")
    sp.add_argument("--skip-checks", action="store_true")
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("check", help="run validity condition checks")
    add_poly_args(sp)
    sp.add_argument("--symmetric", action="store_true",
                    help="check the role-swapped divisibility variant")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("measure", help="compute W and C_l with witnesses")
    sp.add_argument("--in", dest="infile", help="sequence file to measure")
    sp.add_argument("--p", type=int)
    sp.add_argument("--f")
    sp.add_argument("--g")
    sp.add_argument("--h")
    sp.add_argument("--theorem2", nargs=3)
    sp.add_argument("--orders", default="2",
                    help="comma-separated correlation orders")
    sp.add_argument("--method", choices=("exact", "sampled"),
                    default="exact")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--oracle", action="store_true",
                    help="use the brute-force definitional engines "
                         "(small N only)")
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted and ignored; every engine runs in "
                         "one thread")
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=cmd_measure)

    sp = sub.add_parser("table", help="regenerate the reference tables "
                                      "and diff against expected values")
    sp.add_argument("--example", choices=("1", "2", "3", "4", "all"),
                    required=True)
    sp.add_argument("--format", choices=("text", "csv", "json"),
                    default="text")
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted and ignored; every engine runs in "
                         "one thread")
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("combine", help="interleave F and G under switch H")
    sp.add_argument("files", nargs=3, metavar="FILE")
    sp.add_argument("--check-distinct", action="store_true")
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=cmd_combine)

    sp = sub.add_parser("crosscorr",
                        help="family cross-correlation measure")
    sp.add_argument("files", nargs="+", metavar="FILE")
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--method", choices=("exact", "sampled"),
                    default="exact")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--theorem3", action="store_true",
                    help="also measure the combined sequence and the "
                         "combiner bound (first three files)")
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=cmd_crosscorr)

    sp = sub.add_parser("bounds", help="print theoretical bound values")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_bounds)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
