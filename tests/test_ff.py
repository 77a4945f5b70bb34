"""Field and polynomial arithmetic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legseq.ff import (Poly, PrimeModulus, QnrSet, ZeroDivisorError,
                       interpolate, is_prime, is_primitive_root, legendre,
                       legendre_table, parse_poly, powmod, resultant, roots)

SMALL_PRIMES = [3, 5, 7, 11, 13, 101, 499, 997]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_64bit_edges():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))
    assert is_prime(6007) and is_prime(5003)


def test_prime_modulus_rejects_bad_inputs():
    for bad in (0, 1, 2, 4, 9, 2003 * 3001, 2**63 + 9):
        with pytest.raises(ValueError):
            PrimeModulus(bad)
    assert int(PrimeModulus(2003)) == 2003


def test_poly_moduli_validated_on_every_call():
    # a valid int modulus is cached; a bad one must raise every time,
    # and values equal to a cached prime but of another type still fail
    assert Poly.make((1, 1), 7).p == 7
    for _ in range(2):
        for bad in (9, 2, 2**63 + 9, 7.0, True, "7", None):
            with pytest.raises(ValueError):
                Poly.make((1, 1), bad)
    assert Poly.make((1, 1), PrimeModulus(7)).p == 7


def test_powmod_examples():
    assert powmod(2, 0, 7) == 1
    assert powmod(2, 3, 7) == 1
    assert powmod(3, 3, 7) == 6
    with pytest.raises(ValueError):
        powmod(7, 2, 7)
    with pytest.raises(ValueError):
        powmod(2, -1, 7)


def test_legendre_examples():
    assert legendre(1, 7) == 1
    assert legendre(14, 7) == 0
    assert legendre(3, 7) == -1  # squares mod 7 are {1,2,4}


@pytest.mark.parametrize("p", SMALL_PRIMES + [9973])
def test_legendre_square_counts(p):
    # exactly (p-1)/2 residues and (p-1)/2 non-residues
    vals = [legendre(a, p) for a in range(p)]
    assert vals.count(1) == (p - 1) // 2
    assert vals.count(-1) == (p - 1) // 2
    assert vals.count(0) == 1


def square_map_table(p):
    """Reference: the per-x Python loop over the square map."""
    t = [-1] * p
    t[0] = 0
    for x in range(1, (p + 1) // 2):
        t[x * x % p] = 1
    return t


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_legendre_table_matches_symbol(p):
    table = legendre_table(p)
    assert table.dtype == np.int8
    assert table.tolist() == [legendre(a, p) for a in range(p)]


# (786433 - 1)/2 = 6 * 2^16 ends exactly on a chunk boundary; 1048583 not
@pytest.mark.parametrize("p", [786433, 1048583])
def test_legendre_table_matches_square_map_across_chunks(p):
    table = legendre_table(p)
    assert table.dtype == np.int8
    assert table.tolist() == square_map_table(p)


def test_legendre_table_memory_is_p_bytes_plus_a_fixed_allowance():
    p = 1048583
    tracemalloc.start()
    try:
        legendre_table(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p + 4 * 2**20


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_legendre_multiplicative(a, b):
    p = 997
    assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


def test_primitive_root_examples():
    assert is_primitive_root(2, 3)
    assert is_primitive_root(2, 5)
    assert not is_primitive_root(2, 7)  # 2^3 = 1 mod 7
    with pytest.raises(ValueError):
        is_primitive_root(0, 7)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101])
def test_primitive_root_counts(p):
    # phi(p-1) primitive roots exist
    roots = [g for g in range(1, p) if is_primitive_root(g, p)]
    orders = []
    for g in range(1, p):
        k, x = 1, g
        while x != 1:
            x = x * g % p
            k += 1
        orders.append(k)
    assert roots == [g for g, o in zip(range(1, p), orders) if o == p - 1]


# --- polynomials -----------------------------------------------------------


def test_poly_eval_examples():
    f = parse_poly("x^2+1", 7)
    assert f(0) == 1
    assert f(3) == 3  # 10 mod 7
    assert Poly.zero(7)(5) == 0


def test_poly_shift_examples():
    assert Poly.make((0, 0, 1), 5).shift(1) == Poly.make((1, 2, 1), 5)
    f = parse_poly("x^2+3x+1", 7)
    assert f.shift(2) == parse_poly("x^2+4", 7)
    assert f.shift(0) == f
    assert Poly.zero(7).shift(3) == Poly.zero(7)


@given(st.lists(st.integers(0, 100), min_size=0, max_size=8),
       st.integers(0, 100), st.integers(0, 100))
def test_shift_composes_and_commutes_with_eval(coeffs, s, t):
    p = 101
    f = Poly.make(coeffs, p)
    assert f.shift(s).shift(t) == f.shift(s + t)
    for x in (0, 1, 17):
        assert f.shift(t)(x) == f((x + t) % p)


def test_gcd_examples():
    p = 7
    assert parse_poly("x^2-1", p).gcd(parse_poly("x-1", p)) \
        == parse_poly("x-1", p)
    assert parse_poly("x^2+1", p).gcd(parse_poly("x+1", p)) \
        == Poly.make((1,), p)
    assert parse_poly("x^3", p) % parse_poly("x^2", p) == Poly.zero(p)
    with pytest.raises(ZeroDivisorError):
        parse_poly("x", p).divmod(Poly.zero(p))


@given(st.lists(st.integers(0, 12), min_size=1, max_size=6),
       st.lists(st.integers(0, 12), min_size=1, max_size=6))
def test_gcd_divides_both_and_is_monic(ca, cb):
    p = 13
    a, b = Poly.make(ca, p), Poly.make(cb, p)
    g = a.gcd(b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert g.coeffs[-1] == 1
    assert a % g == Poly.zero(p)
    assert b % g == Poly.zero(p)


@given(st.lists(st.integers(0, 12), min_size=1, max_size=6),
       st.lists(st.integers(1, 12), min_size=1, max_size=6))
def test_divmod_reconstructs(ca, cb):
    p = 13
    a, b = Poly.make(ca, p), Poly.make(cb, p)
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_derivative_examples():
    assert parse_poly("x^2+3x+1", 7).derivative() == parse_poly("2x+3", 7)
    assert Poly.make((5,), 7).derivative() == Poly.zero(7)
    # characteristic kills the exponent
    assert Poly.make((0,) * 7 + (1,), 7).derivative() == Poly.zero(7)


def test_squarefree_examples():
    assert parse_poly("x^2+1", 3).is_squarefree()
    assert not Poly.make((0, 0, 1), 5).is_squarefree()
    f = parse_poly("x-1", 7)
    assert not (f * f * parse_poly("x+1", 7)).is_squarefree()
    with pytest.raises(ValueError):
        Poly.make((3,), 7).is_squarefree()
    with pytest.raises(ValueError):
        Poly.make((0,) * 7 + (1,), 7).is_squarefree()  # degree >= p


@given(st.lists(st.integers(0, 4), min_size=2, max_size=5))
def test_squarefree_matches_exhaustive_square_divisor_search(coeffs):
    # oracle: f is squarefree iff no g^2 with deg g >= 1 divides f
    p = 5
    f = Poly.make(coeffs, p)
    if f.degree < 1:
        return
    import itertools
    has_square = False
    for d in range(1, f.degree // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = Poly.make(tail + (1,), p)  # monic of degree d
            if f % (g * g) == Poly.zero(p):
                has_square = True
    assert f.is_squarefree() == (not has_square)


def test_parse_poly_grammar():
    p = 7
    assert parse_poly("x^2+3x+1", p) == Poly.make((1, 3, 1), p)
    assert parse_poly("x^2 + 3*x + 1", p) == Poly.make((1, 3, 1), p)
    assert parse_poly("-x+2", p) == Poly.make((2, -1), p)
    assert parse_poly("x^6-4x^3+3", p) == Poly.make((3, 0, 0, -4, 0, 0, 1), p)
    assert parse_poly("[1,3,1]", p) == Poly.make((1, 3, 1), p)
    assert parse_poly("5", p) == Poly.make((5,), p)
    assert parse_poly("x", p) == Poly.x(p)


def test_parse_poly_rejects_garbage():
    for bad in ("", "x^", "2**x", "[1,2", "[a,b]", "x^2 3x", "y+1"):
        with pytest.raises(ValueError):
            parse_poly(bad, 7)


def test_str_round_trips_through_parser():
    p = 13
    for text in ("x^2+3x+1", "x^6-4x^3+3", "5", "x", "12x^3+x"):
        f = parse_poly(text, p)
        assert parse_poly(str(f), p) == f


def test_qnr_set():
    s = QnrSet.make([2, 5], 13)
    assert s.elements == frozenset({2, 5})
    with pytest.raises(ValueError):
        QnrSet.make([4], 13)  # 4 = 2^2 is a QR
    with pytest.raises(ValueError):
        QnrSet.make([], 13)


# --- resultants, interpolation and roots -----------------------------------


def _det_mod(rows, p):
    """Determinant of a square integer matrix mod p, by elimination."""
    m = [[v % p for v in row] for row in rows]
    n, det = len(m), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def _sylvester_resultant(a, b):
    """Res(a, b) as the Sylvester determinant, straight from the
    definition."""
    m, n = a.degree, b.degree
    hi_a, hi_b = a.coeffs[::-1], b.coeffs[::-1]  # leading first
    rows = [[0] * i + list(hi_a) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(hi_b) + [0] * (m - 1 - i) for i in range(m)]
    return _det_mod(rows, a.p)


@settings(max_examples=300)
@given(st.sampled_from([3, 5, 7, 13]),
       st.lists(st.integers(0, 12), min_size=1, max_size=6),
       st.lists(st.integers(0, 12), min_size=1, max_size=6))
def test_resultant_matches_sylvester_determinant(p, ca, cb):
    a, b = Poly.make(ca, p), Poly.make(cb, p)
    if a.is_zero() or b.is_zero():
        assert resultant(a, b) == 0
        return
    if a.degree == 0 or b.degree == 0:
        expected = pow(a.coeffs[0], b.degree, p) if a.degree == 0 \
            else pow(b.coeffs[0], a.degree, p)
    else:
        expected = _sylvester_resultant(a, b)
    assert resultant(a, b) == expected
    # a common root in the algebraic closure is a nonconstant gcd
    assert (resultant(a, b) == 0) == (not a.gcd(b).is_constant())


@given(st.lists(st.integers(0, 12), min_size=1, max_size=4),
       st.lists(st.integers(0, 12), min_size=1, max_size=4))
def test_resultant_of_split_polys_is_product_of_root_differences(ra, rb):
    p = 13
    lin = lambda r: Poly.make((-r, 1), p)  # noqa: E731
    a, b = Poly.make((1,), p), Poly.make((1,), p)
    for r in ra:
        a = a * lin(r)
    for r in rb:
        b = b * lin(r)
    expected = 1
    for x in ra:
        for y in rb:
            expected = expected * (x - y) % p
    assert resultant(a, b) == expected


@given(st.sampled_from([5, 13, 101]), st.data())
def test_interpolate_recovers_polynomial(p, data):
    n = data.draw(st.integers(1, min(p, 12)))
    xs = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n,
                            unique=True))
    f = Poly.make(data.draw(st.lists(st.integers(0, p - 1), min_size=n,
                                     max_size=n)), p)
    g = interpolate(xs, [f(x) for x in xs], p)
    assert g == f
    assert g.degree < n


def test_interpolate_examples_and_errors():
    assert interpolate([], [], 7) == Poly.zero(7)
    assert interpolate([3], [5], 7) == Poly.make((5,), 7)
    # the line through (0, 1) and (1, 3) is 2x + 1
    assert interpolate([0, 1], [1, 3], 7) == Poly.make((1, 2), 7)
    with pytest.raises(ValueError):
        interpolate([1, 8], [0, 1], 7)  # 1 = 8 mod 7
    with pytest.raises(ValueError):
        interpolate([1, 2], [0], 7)


@settings(max_examples=300)
@given(st.sampled_from([3, 5, 7, 11, 13, 101]),
       st.lists(st.integers(0, 100), min_size=1, max_size=8))
def test_roots_match_exhaustive_evaluation(p, coeffs):
    f = Poly.make(coeffs, p)
    if f.is_zero():
        with pytest.raises(ValueError):
            roots(f)
        return
    assert roots(f) == [x for x in range(p) if f(x) == 0]


def test_roots_of_planted_products():
    for p in (3, 7, 997, 2**61 - 1):
        want = sorted({0, 1, p - 1, (p - 1) // 2, 12345 % p})
        f = parse_poly("x^2+1", p) if p % 4 == 3 else Poly.make((1,), p)
        for r in want:
            f = f * Poly.make((-r, 1), p) * Poly.make((-r, 1), p)
        assert roots(f) == want
    assert roots(Poly.make((5,), 7)) == []
