"""Validity checkers for the algebraic preconditions of the constructions.

A triple (f, g, h) earns the proven measure bounds only when all three
polynomials are squarefree and the non-divisibility condition holds:
f does not divide prod_{t=1..p} g(x+t)h(x+t) and g does not divide
prod_{t=1..p} h(x+t).  t runs over 1..p inclusive, so the t = p term
is the unshifted polynomial.

The divisibility check uses shift-gcd stripping instead of
factorization: because f is squarefree, f divides the product iff every
irreducible factor of f divides some shifted factor, so repeatedly
removing gcd(r, s(x+t) mod r) from r decides the condition exactly.
Only shifts in the dispersion set can strip anything: the t with
gcd(r(x), s(x+t)) nonconstant, which are the roots in F_p of
R(t) = Res_x(r(x), s(x+t)), of degree deg r * deg s (Abramov 1971; Man
and Wright, ISSAC 1994).  R is interpolated from deg r * deg s + 1
resultants and its roots are split off gcd(R, t^p - t), so the check
costs polylog(p) field operations instead of p shifts.  When
deg r * deg s >= p there are not enough points to interpolate, and the
check scans all p shifts, which at that size is at most deg r * deg s.
Checkers never mutate inputs and report full diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import PolyTriple
from .ff import (Poly, QnrSet, interpolate, is_primitive_root, legendre,
                 resultant, roots)


@dataclass(frozen=True)
class Check:
    id: str
    passed: bool
    detail: str

    def to_json(self):
        return {"id": self.id, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, check_id: str) -> Check:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)

    def to_json(self):
        return {
            "overall": self.overall,
            "checks": [c.to_json() for c in self.checks],
        }


def check_squarefree(name: str, poly: Poly) -> Check:
    """Check `squarefree_<name>`: pass iff poly is squarefree."""
    ok = poly.is_squarefree()
    detail = ("squarefree" if ok
              else f"{name} = {poly} has a repeated factor "
                   f"(gcd with derivative: {poly.gcd(poly.derivative())})")
    return Check(f"squarefree_{name}", ok, detail)


def check_squarefree_triple(t: PolyTriple) -> ConditionReport:
    """Pass iff f, g and h are all squarefree."""
    return ConditionReport(tuple(
        check_squarefree(name, poly)
        for name, poly in (("f", t.f), ("g", t.g), ("h", t.h))))


def _strip_by_shifts(target: Poly, factors, t_range) -> Check:
    """Decide target ∤ prod_t prod(factors, each shifted by t).

    Strips gcds off a squarefree residual; the condition holds iff some
    factor of `target` survives every shift.  `t_range` order does not
    affect the outcome (stripping is a set operation on factors).
    """
    r = target.monic()
    stripped_at = []
    for t in t_range:
        shifted = Poly.make((1,), target.p)
        for f in factors:
            shifted = shifted * f.shift(t)
        d = r.gcd(shifted % r if shifted.degree >= r.degree else shifted)
        while not d.is_constant():
            r = (r // d).monic()
            stripped_at.append(t)
            if r.is_constant():
                break
            d = r.gcd(shifted % r)
        if r.is_constant():
            break
    if r.is_constant():
        at_p = (target.p in stripped_at)
        hint = ("; the t=p shift reproduces the polynomial itself"
                if at_p else "")
        return Check(
            "", False,
            f"every irreducible factor divides a shifted product "
            f"(stripped at t={stripped_at}{hint})")
    return Check("", True, f"surviving factor of degree {r.degree}: {r}")


def _dispersion(target: Poly, factors):
    """The shifts t in 1..p, ascending, at which gcd(target,
    prod(factors, each shifted by t)) is nonconstant; t = 0 is reported
    as p.

    For each factor s, R(t) = Res_x(target(x), s(x+t)) has degree
    exactly d = deg target * deg s and vanishes exactly on those t, so
    it is interpolated at t = 0..d and its roots are found.  When d >= p
    there are not d + 1 points; then every shift 1..p is returned.
    """
    p = target.p
    shifts = set()
    for s in factors:
        d = target.degree * s.degree
        if d >= p:
            return range(1, p + 1)
        ts = range(d + 1)
        shifts.update(roots(interpolate(
            ts, [resultant(target, s.shift(t)) for t in ts], p)))
    return sorted(t or p for t in shifts)


def _divisibility(t: PolyTriple, cases) -> ConditionReport:
    """One check per (id, target, factors): target ∤ prod_{t=1..p}
    prod(factors, each shifted by t), stripped over the dispersion set."""
    if not check_squarefree_triple(t).overall:
        raise ValueError("precondition: triple must be squarefree")
    checks = []
    for check_id, target, factors in cases:
        c = _strip_by_shifts(target, factors, _dispersion(target, factors))
        checks.append(Check(check_id, c.passed, c.detail))
    return ConditionReport(tuple(checks))


def check_divisibility_condition(t: PolyTriple) -> ConditionReport:
    """Pass iff f ∤ prod_{t=1..p} g(x+t)h(x+t) and g ∤ prod_{t=1..p} h(x+t).

    Inputs must be squarefree (checked first; failure short-circuits).
    t runs over 1..p inclusive, so the t=p term is the unshifted
    polynomial; this is deliberate and is what makes f = h fail.  Only
    the shifts of the dispersion set are stripped, in ascending order;
    at every other t the gcd is 1, so the verdict, `stripped_at` and
    the t=p hint equal those of the full scan over 1..p.  The cost is
    polylog(p) field operations, so any p below 2^63 is practical.
    """
    return _divisibility(t, (("f_not_divides_gh_shifts", t.f, (t.g, t.h)),
                             ("g_not_divides_h_shifts", t.g, (t.h,))))


def check_divisibility_condition_symmetric(t: PolyTriple) -> ConditionReport:
    """Role-swapped variant: g ∤ prod f(x+t)h(x+t) and f ∤ prod h(x+t),
    with t = 1..p and the dispersion-set scan of
    check_divisibility_condition."""
    return _divisibility(t, (("g_not_divides_fh_shifts", t.g, (t.f, t.h)),
                             ("f_not_divides_h_shifts", t.f, (t.h,))))


def check_theorem2_sets(A: QnrSet, B: QnrSet, C: QnrSet) -> ConditionReport:
    """Set conditions for the even-polynomial builder: all elements are
    quadratic non-residues, A ⊄ B ∪ C, and B ⊄ C."""
    if not (A.p == B.p == C.p):
        raise ValueError("mismatched moduli")
    p = A.p
    checks = []
    for name, s in (("A", A), ("B", B), ("C", C)):
        bad = sorted(e for e in s.elements if legendre(e, p) != -1)
        checks.append(Check(
            f"qnr_{name}", not bad,
            "all elements are quadratic non-residues" if not bad
            else f"non-QNR elements in {name}: {bad}"))
    extra = sorted(A.elements - (B.elements | C.elements))
    checks.append(Check(
        "A_not_subset_BC", bool(extra),
        f"element {extra[0]} of A is outside B ∪ C" if extra
        else "A is contained in B ∪ C"))
    extra = sorted(B.elements - C.elements)
    checks.append(Check(
        "B_not_subset_C", bool(extra),
        f"element {extra[0]} of B is outside C" if extra
        else "B is contained in C"))
    return ConditionReport(tuple(checks))


def check_correlation_order(order: int, k: int, p) -> ConditionReport:
    """Report which of the correlation-order hypotheses hold:
    (i) order 2; (ii) order < p with 2 a primitive root mod p;
    (iii) (4k)^order < p.  Overall passes when at least one holds.

    (iii) uses exact integer arithmetic.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if k < 1:
        raise ValueError("degree bound must be >= 1")
    p = int(p)
    i_ok = order == 2
    ii_ok = order < p and is_primitive_root(2 % p, p)
    power = (4 * k) ** order
    iii_ok = power < p
    checks = (
        Check("i_order_two", i_ok,
              "order is 2" if i_ok else f"order is {order}"),
        Check("ii_primitive_root", ii_ok,
              "order < p and 2 is a primitive root mod p" if ii_ok
              else "2 is not a primitive root mod p"
              if order < p else "order >= p"),
        Check("iii_degree_power", iii_ok,
              f"(4k)^order = {power} {'<' if iii_ok else '>='} {p}"),
    )
    return _AnyConditionReport(checks)


class _AnyConditionReport(ConditionReport):
    """Report whose overall verdict needs only one passing check."""

    @property
    def overall(self) -> bool:
        return any(c.passed for c in self.checks)

    @property
    def satisfied(self) -> tuple:
        return tuple(c.id for c in self.checks if c.passed)
