"""Command-line surface.

Subcommands: gen (write a sequence file), check (validity conditions),
measure (W and C_l with witnesses and bounds), table (regenerate the
embedded reference tables and diff them), combine (interleave two
sequences under a switch sequence), crosscorr (family cross-correlation)
and bounds (print the theoretical bound formulas).

Exit codes: 0 success, 1 input error, 2 condition failure, 3 work budget
exceeded, 4 table mismatch.  `main` is the one place that maps
exceptions to them: ValueError and OSError to 1, BudgetExceeded to 3,
and CliError, raised for messages the CLI words itself, to its own code.
argparse usage errors exit 1 through `_Parser`.  All configuration is via
flags so runs are reproducible; identical invocations produce
byte-identical reports aside from the timing field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import zip_longest

from . import __version__
from .bounds import (BoundReport, bound_C, bound_theorem3, bound_theoremA_C,
                     bound_W, weil_incomplete_bound)
from .conditions import (ConditionReport, check_correlation_order,
                         check_divisibility_condition,
                         check_divisibility_condition_symmetric,
                         check_squarefree, check_squarefree_triple,
                         check_theorem2_sets)
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


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1: 2 means a failed condition."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parse_qnr_sets(tokens, p):
    sets = {}
    for tok in tokens:
        name, _, body = tok.partition("=")
        if name not in ("A", "B", "C") or not body:
            raise CliError(f"bad set spec {tok!r}; expected e.g. A=2,5")
        try:
            sets[name] = [int(x) for x in body.split(",")]
        except ValueError:
            raise CliError(f"bad set spec {tok!r}") from None
    if set(sets) != {"A", "B", "C"}:
        raise CliError("need all three sets A=..., B=..., C=...")
    return tuple(QnrSet.make(sets[name], p) for name in "ABC")


def _build_inputs(args):
    """Turn the input flags into (p, polys, reports, build): the parsed
    polynomials, (f,) for a lone --f or (f, g, h), the checks keyed by
    name, and the sequence's builder.  `measure --in FILE` gives no
    polynomials, (), and no checks."""
    poly_flags = (args.f, args.g, args.h)
    if getattr(args, "infile", None):
        if args.p is not None or args.theorem2 or poly_flags != (None,) * 3:
            raise CliError("--in cannot be combined with other input flags")
        seq = BinarySequence.load(args.infile)
        return seq.meta.get("p"), (), {}, lambda: seq
    if args.p is None:
        raise CliError("need --in FILE or --p with polynomials")
    p = PrimeModulus(args.p).p
    reports = {}
    if args.theorem2:
        if poly_flags != (None,) * 3:
            raise CliError("--theorem2 cannot be combined with --f/--g/--h")
        sets = _parse_qnr_sets(args.theorem2, p)
        triple = build_theorem2_polys(*sets)
        reports["theorem2_sets"] = check_theorem2_sets(*sets)
    elif args.f is None:
        raise CliError("need --f (optionally with --g and --h) or --theorem2")
    else:
        f = parse_poly(args.f, p)
        if (args.g is None) != (args.h is None):
            raise CliError("--g and --h must be given together")
        if args.g is None:
            # single-polynomial rule only needs f itself squarefree
            reports["squarefree"] = ConditionReport(
                (check_squarefree("f", f),))
            return p, (f,), reports, lambda: construct_single(f)
        triple = PolyTriple(f, parse_poly(args.g, p), parse_poly(args.h, p))
    reports["squarefree"] = check_squarefree_triple(triple)
    if reports["squarefree"].overall:
        reports["divisibility"] = (
            check_divisibility_condition_symmetric(triple)
            if getattr(args, "symmetric", False)
            else check_divisibility_condition(triple))
    return (p, (triple.f, triple.g, triple.h), reports,
            lambda: construct_triple(triple))


def _checks_pass(reports):
    return all(r.overall for r in reports.values())


def _emit(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_gen(args):
    p, _, reports, build = _build_inputs(args)
    if not _checks_pass(reports) and not args.skip_checks:
        for name, rep in reports.items():
            for c in rep.checks:
                if not c.passed:
                    print(f"condition failed [{name}/{c.id}]: {c.detail}",
                          file=sys.stderr)
        raise CliError("validity conditions failed (use --skip-checks "
                       "to generate anyway)", EXIT_CONDITION)
    seq = build()
    if args.truncate_half:
        seq = BinarySequence(seq.array()[:(p + 1) // 2], dict(seq.meta))
    _emit(seq.dumps(), args.out)
    return EXIT_OK


def cmd_check(args):
    reports = _build_inputs(args)[2]
    payload = {name: rep.to_json() for name, rep in reports.items()}
    payload["overall"] = _checks_pass(reports)
    print(json.dumps(payload, indent=2))
    return EXIT_OK if payload["overall"] else EXIT_CONDITION


def _by_method(exact, sampled, x, order, args):
    """The order-`order` measure of x by the exact or sampled engine, as
    --method picks."""
    if args.method == "sampled":
        return sampled(x, order, args.samples, seed=args.seed,
                       budget=args.budget)
    return exact(x, order, budget=args.budget)


def cmd_measure(args):
    t0 = time.perf_counter()
    orders = _parse_orders(args.orders)
    p, polys, reports, build = _build_inputs(args)
    seq = build()
    if args.oracle:
        w, corr = oracle_well_distribution, oracle_correlation
    else:
        w, corr = well_distribution, functools.partial(
            _by_method, correlation, correlation_sampled, args=args)
    # every order is admitted or refused before W, which has no budget
    corrs = [corr(seq, order) for order in orders]
    measures = [w(seq), *corrs]

    bound_reports = []
    if polys:
        k = max(q.degree for q in polys)
        fn = bound_theoremA_C if len(polys) == 1 else bound_C
        guaranteed = _checks_pass(reports)
        bound_reports.append(BoundReport(
            "W", {"k": k, "p": p}, bound_W(k, p),
            measured=measures[0].value, guaranteed=guaranteed))
        for res in measures[1:]:
            order = res.order
            corder = check_correlation_order(order, k, p)
            reports[f"correlation_order_{order}"] = corder
            bound_reports.append(BoundReport(
                f"C{order}", {"k": k, "p": p, "order": order},
                fn(order, k, p), measured=res.value,
                guaranteed=guaranteed and corder.overall))
    return _report(args, t0, seq.n, measures, bound_reports, p, polys,
                   reports)


def _report(args, t0, n, measures, bound_reports, p=None, polys=(),
            conditions=None):
    """Write the JSON report of measure or crosscorr; timing from t0."""
    report = {
        "version": __version__,
        "p": p,
        "polynomials": dict(zip_longest("fgh", map(str, polys))),
        "n": n,
        "conditions": {k: v.to_json() for k, v in (conditions or {}).items()},
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
    if len(set(orders)) < len(orders):
        raise CliError(f"repeated correlation order in --orders {text!r}")
    return orders


def cmd_table(args):
    examples = ([int(args.example)] if args.example != "all"
                else sorted(EXAMPLES))
    rows = [(ex, p, *diff_row(ex, p)) for ex in examples for p in PRIMES]

    if args.format == "csv":
        print("example,p," + ",".join(COLUMNS))
        for ex, p, computed, _, _ in rows:
            print(f"{ex},{p}," + ",".join(str(v) for v in computed))
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
    mismatches = [(ex, p, *m) for ex, p, _, _, mm in rows for m in mm]
    if mismatches:
        print(f"{len(mismatches)} mismatched cells:", file=sys.stderr)
        for ex, p, col, e, g in mismatches:
            print(f"  example {ex} p={p} {col}: expected {e}, computed {g}",
                  file=sys.stderr)
        return EXIT_TABLE
    return EXIT_OK


def cmd_combine(args):
    seqs = [BinarySequence.load(path) for path in args.files]
    if args.check_distinct and len({s.array().tobytes() for s in seqs}) != 3:
        raise CliError("sequences must be pairwise distinct", EXIT_CONDITION)
    seq = construct_combined(*seqs)
    _emit(seq.dumps(), args.out)
    return EXIT_OK


def cmd_crosscorr(args):
    t0 = time.perf_counter()
    family = [BinarySequence.load(path) for path in args.files]
    order = args.order
    bound_reports = []
    if args.theorem3:
        if len(family) != 3:
            raise CliError("--theorem3 needs exactly three files")
        if len({s.array().tobytes() for s in family}) != 3:
            raise CliError("--theorem3 needs pairwise distinct "
                           "sequences", EXIT_CONDITION)
        measures = [_by_method(cross_correlation, cross_correlation_sampled,
                               family, k, args)
                    for k in range(order, 2 * order + 1)]
        combined = construct_combined(*family)
        cres = correlation(combined, order, budget=args.budget)
        bnd = bound_theorem3(order, {m.order: m.value for m in measures})
        measures.append(cres)
        bound_reports.append(BoundReport(
            f"C{order}_combined", {"order": order}, float(bnd),
            measured=cres.value,
            guaranteed=all(m.method == "exact" for m in measures)))
    else:
        measures = [_by_method(cross_correlation, cross_correlation_sampled,
                               family, order, args)]
    return _report(args, t0, family[0].n, measures, bound_reports)


def cmd_bounds(args):
    p = PrimeModulus(args.p).p
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


@functools.cache
def build_parser():
    ap = _Parser(
        prog="legseq",
        description="Legendre-symbol binary sequences: generation, "
                    "validity checks, exact pseudorandomness measures "
                    "and bound comparisons.")
    ap.add_argument("--version", action="version",
                    version=f"legseq {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_poly_args(sp, required=True):
        sp.add_argument("--p", type=int, required=required, help="odd prime")
        sp.add_argument("--f", help="polynomial text, e.g. 'x^2+3x+1'")
        sp.add_argument("--g")
        sp.add_argument("--h")
        sp.add_argument("--theorem2", nargs=3, metavar=("A=..", "B=..", "C=.."),
                        help="build the even squarefree triple from "
                             "quadratic non-residue sets")

    def add_engine_args(sp):
        sp.add_argument("--method", choices=("exact", "sampled"),
                        default="exact")
        sp.add_argument("--samples", type=int, default=1000)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

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
    add_poly_args(sp, required=False)
    sp.add_argument("--orders", default="2",
                    help="comma-separated correlation orders")
    add_engine_args(sp)
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
    add_engine_args(sp)
    sp.add_argument("--theorem3", action="store_true",
                    help="also measure the combined sequence and the "
                         "combiner bound (first three files)")
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=cmd_crosscorr)

    sp = sub.add_parser("bounds", help="print theoretical bound values")
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_bounds)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "budget", 0) < 0:
            raise CliError(f"--budget must be >= 0, not {args.budget}")
        return args.fn(args)
    except CliError as exc:
        error, code = exc, exc.code
    except BudgetExceeded as exc:
        error, code = exc, EXIT_BUDGET
    except (ValueError, OSError) as exc:
        error, code = exc, EXIT_INPUT
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
