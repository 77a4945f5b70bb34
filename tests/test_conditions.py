"""Validity condition checkers."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legseq.conditions import (check_correlation_order,
                               check_divisibility_condition,
                               check_divisibility_condition_symmetric,
                               check_squarefree, check_squarefree_triple,
                               check_theorem2_sets, _dispersion,
                               _strip_by_shifts)
from legseq.constructions import PolyTriple, build_theorem2_polys
from legseq.ff import Poly, QnrSet, is_prime, legendre, parse_poly


def triple(f, g, h, p):
    return PolyTriple(parse_poly(f, p), parse_poly(g, p), parse_poly(h, p))


def t2_triple(a, b, c, p):
    return build_theorem2_polys(QnrSet.make(a, p), QnrSet.make(b, p),
                                QnrSet.make(c, p))


# --- squarefree ------------------------------------------------------------


def test_squarefree_pass():
    rep = check_squarefree_triple(triple("x^2-2", "x^2-5", "x^2-6", 13))
    assert rep.overall
    assert all(c.passed for c in rep.checks)


def test_squarefree_fail_names_offender():
    rep = check_squarefree_triple(triple("x^2", "x^2-5", "x^2-6", 13))
    assert not rep.overall
    bad = rep.check("squarefree_f")
    assert not bad.passed and "f" in bad.detail
    assert rep.check("squarefree_g").passed


def test_single_squarefree_check_matches_triple_entry():
    for text in ("x^2-2", "x^2", "x^3-x"):
        f = parse_poly(text, 13)
        full = check_squarefree_triple(PolyTriple(f, f, f))
        assert check_squarefree("f", f) == full.check("squarefree_f")


# --- divisibility ----------------------------------------------------------


def test_squarefree_pass_distinct_roots():
    rep = check_squarefree_triple(
        triple("x^2-3x+2", "x", "x+1", 7))  # f = (x-1)(x-2)
    assert rep.overall


def test_divisibility_fails_when_linear_shifts_cover_f():
    # g = x shifted over all t covers every linear factor of f
    rep = check_divisibility_condition(triple("x^2-3x+2", "x", "x+1", 7))
    assert not rep.check("f_not_divides_gh_shifts").passed


def test_divisibility_theorem2_example():
    rep = check_divisibility_condition(t2_triple([2], [5], [6], 13))
    assert rep.overall
    rep2 = check_divisibility_condition_symmetric(t2_triple([2], [5], [6], 13))
    assert rep2.overall


def test_divisibility_f_equals_h_fails_at_t_p():
    # h(x + p) = h(x) = f(x), so the t=p term divides f
    t = triple("x^2+x+3", "x^2+1", "x^2+x+3", 13)
    rep = check_divisibility_condition(t)
    c = rep.check("f_not_divides_gh_shifts")
    assert not c.passed
    assert "t=p" in c.detail or "polynomial itself" in c.detail


def test_divisibility_symmetric_f_equals_h_fails():
    t = triple("x^2+x+3", "x^2+1", "x^2+x+3", 13)
    rep = check_divisibility_condition_symmetric(t)
    assert not rep.check("f_not_divides_h_shifts").passed


def test_divisibility_shift_pair_fails():
    # h is a shift of g, so g | h(x+t) at the matching t
    p = 13
    g = parse_poly("x^2+x+4", p)
    h = g.shift(3)
    t = PolyTriple(parse_poly("x^2+2", p), g, h)
    rep = check_divisibility_condition(t)
    assert not rep.check("g_not_divides_h_shifts").passed


def test_divisibility_requires_squarefree():
    with pytest.raises(ValueError):
        check_divisibility_condition(triple("x^2", "x", "x+1", 7))


def test_primary_and_symmetric_are_independent():
    # f = q irreducible, g = q(x+1) * r with r unrelated, h unrelated:
    # the primary check fails (every factor of f is a g-shift) while the
    # symmetric one passes (r survives all f- and h-shifts)
    p = 13
    q = parse_poly("x^2+x+4", p)
    r = parse_poly("x^2+2", p)
    t = PolyTriple(q, q.shift(1) * r, parse_poly("x^2+3", p))
    primary = check_divisibility_condition(t)
    symmetric = check_divisibility_condition_symmetric(t)
    assert not primary.overall
    assert symmetric.overall
    assert {c.id for c in primary.checks} != {c.id for c in symmetric.checks}


def test_strip_scan_order_is_irrelevant():
    p = 13
    for t in (t2_triple([2], [5], [6], p),
              triple("x^2+x+3", "x^2+1", "x^2+x+3", p)):
        fwd = _strip_by_shifts(t.f, (t.g, t.h), range(1, p + 1))
        rev = _strip_by_shifts(t.f, (t.g, t.h), range(p, 0, -1))
        assert fwd.passed == rev.passed


def _shifted_product(factors, t):
    out = Poly.make((1,), factors[0].p)
    for f in factors:
        out = out * f.shift(t)
    return out


SMALL_PRIMES = [q for q in range(11, 400) if is_prime(q)]


@st.composite
def strip_cases(draw, primes):
    """(target, factors): a squarefree target and one or two factors,
    which may carry a shifted copy of the target or of one of its
    factors, so that failing cases are common."""
    p = draw(st.sampled_from(primes))
    poly = lambda lo, hi: Poly.make(draw(st.lists(  # noqa: E731
        st.integers(0, p - 1), min_size=lo, max_size=hi)) + [1], p)
    target = poly(1, 3)
    if draw(st.booleans()):
        target = target * poly(1, 2)
    assume(target.degree < p and target.is_squarefree())
    factors = [poly(1, 3) for _ in range(draw(st.integers(1, 2)))]
    for i in range(len(factors)):
        plant = draw(st.sampled_from(("none", "target", "piece")))
        if plant == "target":
            factors[i] = factors[i] * target.shift(draw(st.integers(0, p)))
        elif plant == "piece":
            piece = target.gcd(poly(0, 1) * poly(0, 1))
            if not piece.is_constant():
                factors[i] = piece.shift(draw(st.integers(0, p)))
    return target, tuple(factors)


@settings(max_examples=150, deadline=None)
@given(strip_cases(SMALL_PRIMES))
def test_dispersion_scan_equals_full_scan(case):
    target, factors = case
    p = target.p
    oracle = _strip_by_shifts(target, factors, range(1, p + 1))
    assert _strip_by_shifts(target, factors,
                            _dispersion(target, factors)) == oracle
    expected = [t for t in range(1, p + 1) if not target.gcd(
        _shifted_product(factors, t)).is_constant()]
    if all(target.degree * f.degree < p for f in factors):
        assert list(_dispersion(target, factors)) == expected


@settings(max_examples=60, deadline=None)
@given(strip_cases([3, 5, 7]))
def test_dispersion_fallback_at_tiny_p(case):
    # deg target * deg factor >= p leaves too few interpolation points,
    # so every shift 1..p is scanned
    target, factors = case
    p = target.p
    oracle = _strip_by_shifts(target, factors, range(1, p + 1))
    disp = _dispersion(target, factors)
    assert _strip_by_shifts(target, factors, disp) == oracle
    if any(target.degree * f.degree >= p for f in factors):
        assert list(disp) == list(range(1, p + 1))


def test_dispersion_reports_t_p_for_the_unshifted_copy():
    p = 13
    f = parse_poly("x^2+x+3", p)
    assert _dispersion(f, (f,)) == [p]
    assert _dispersion(f, (f.shift(5),)) == [p - 5]


# --- set conditions --------------------------------------------------------


def test_theorem2_sets_pass():
    p = 13
    rep = check_theorem2_sets(QnrSet.make([2], p), QnrSet.make([5], p),
                              QnrSet.make([6], p))
    assert rep.overall


def test_theorem2_sets_b_subset_c_fails():
    p = 13
    rep = check_theorem2_sets(QnrSet.make([2], p), QnrSet.make([5], p),
                              QnrSet.make([5], p))
    assert not rep.overall
    assert not rep.check("B_not_subset_C").passed


def test_theorem2_sets_a_inside_bc_fails():
    p = 13
    rep = check_theorem2_sets(QnrSet.make([5, 6], p), QnrSet.make([5], p),
                              QnrSet.make([6], p))
    assert not rep.check("A_not_subset_BC").passed


def test_qnr_membership_rejected_at_construction():
    with pytest.raises(ValueError):
        QnrSet.make([4], 13)  # 4 = 2^2 is a quadratic residue


# --- correlation-order hypotheses ------------------------------------------


def test_correlation_order_two_always_passes():
    rep = check_correlation_order(2, 100, 2003)
    assert rep.overall
    assert "i_order_two" in rep.satisfied


def test_correlation_order_degree_power():
    rep = check_correlation_order(3, 2, 5003)
    assert rep.overall
    assert "iii_degree_power" in rep.satisfied  # 8^3 = 512 < 5003


def test_correlation_order_primitive_root():
    rep = check_correlation_order(3, 10, 5)
    assert rep.overall
    assert "ii_primitive_root" in rep.satisfied  # 2 generates F_5^*
    assert "iii_degree_power" not in rep.satisfied  # 40^3 >> 5


def test_correlation_order_all_fail():
    # order 3, p = 7: 2 has order 3 mod 7, and (4k)^3 >= 7 for any k
    rep = check_correlation_order(3, 1, 7)
    assert not rep.overall
    assert rep.satisfied == ()


def test_correlation_order_validation():
    with pytest.raises(ValueError):
        check_correlation_order(1, 2, 13)
    with pytest.raises(ValueError):
        check_correlation_order(2, 0, 13)


# --- admissible theorem-2 triples certify ----------------------------------


@pytest.mark.parametrize("p,a,b,c", [
    (13, [2, 5], [5], [6]),
    (17, [3, 5], [5], [6]),
    (29, [2, 3], [3], [8]),
    (101, [2, 8], [8], [26]),
])
def test_admissible_triples_certify(p, a, b, c):
    A, B, C = (QnrSet.make(s, p) for s in (a, b, c))
    assert check_theorem2_sets(A, B, C).overall
    t = build_theorem2_polys(A, B, C)
    assert check_squarefree_triple(t).overall
    assert check_divisibility_condition(t).overall
