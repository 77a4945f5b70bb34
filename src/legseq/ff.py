"""Arithmetic over F_p and F_p[x].

Provides modular exponentiation, Legendre symbols via the Euler
criterion, primality and primitive-root tests, and dense polynomial
arithmetic (add/mul/divmod/gcd, Taylor shift, derivative, squarefree
test) over a prime field, with resultants, Newton interpolation and
root finding in F_p for any p below 2^63.  All values are immutable
after construction and all operations are pure functions, so
everything here is safe to share across workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

MAX_MODULUS = 2**63  # products must fit a double-width intermediate

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A verified odd prime below 2^63, the ambient field order."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise ValueError("modulus must be an integer")
        if self.p >= MAX_MODULUS:
            raise ValueError(f"modulus {self.p} does not fit in 63 bits")
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not an odd prime")

    def __int__(self):
        return self.p


@lru_cache(maxsize=64)
def _checked_int(p: int) -> int:
    return PrimeModulus(p).p


def _as_p(p) -> int:
    """Accept a PrimeModulus or a raw int (validated).

    Every polynomial operation passes its modulus through here, so a
    plain int is validated once and then found in a small cache; other
    types always go through PrimeModulus and its ValueError.
    """
    if isinstance(p, PrimeModulus):
        return p.p
    if type(p) is int:
        return _checked_int(p)
    return PrimeModulus(p).p


def powmod(a: int, e: int, p) -> int:
    """a^e mod p for 0 <= a < p, e >= 0."""
    p = int(p)
    if not 0 <= a < p:
        raise ValueError("base out of range")
    if e < 0:
        raise ValueError("negative exponent")
    return pow(a, e, p)


def legendre(a: int, p) -> int:
    """Legendre symbol (a/p) via the Euler criterion.

    Returns 0 iff p | a, +1 for a nonzero square mod p, -1 otherwise.
    """
    p = int(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def legendre_table(p) -> np.ndarray:
    """int8 symbol table t[a] = (a/p) for a in [0, p), built from the square
    map: -1 everywhere, +1 at x^2 mod p for x = 1..(p-1)/2, then 0 at 0.

    O(p) time; worth it when a full length-p sequence is generated.  The
    squares are taken in int64 on 2^16 values of x at a time, so the build
    needs p bytes plus a fixed allowance.
    """
    p = int(p)
    t = np.full(p, -1, dtype=np.int8)
    half = (p - 1) // 2
    for lo in range(0, half, 2**16):
        x = np.arange(lo + 1, min(lo + 2**16, half) + 1, dtype=np.int64)
        t[x * x % p] = 1
    t[0] = 0
    return t


def _factor_trial(n: int) -> list:
    """Distinct prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_primitive_root(g: int, p) -> bool:
    """True iff the multiplicative order of g mod p is p - 1."""
    p = int(p)
    if not 1 <= g < p:
        raise ValueError("residue out of range")
    for q in _factor_trial(p - 1):
        if pow(g, (p - 1) // q, p) == 1:
            return False
    return True


class ZeroDivisorError(ZeroDivisionError):
    """Raised on division by the zero polynomial."""


@dataclass(frozen=True)
class Poly:
    """Polynomial over F_p, ascending coefficient tuple, no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -1
    (standing in for degree minus infinity).
    """

    coeffs: tuple
    p: int

    @staticmethod
    def make(coeffs, p) -> "Poly":
        p = _as_p(p)
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs), p)

    @staticmethod
    def zero(p) -> "Poly":
        return Poly.make((), p)

    @staticmethod
    def x(p) -> "Poly":
        return Poly.make((0, 1), p)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __call__(self, x: int) -> int:
        """Horner evaluation at x."""
        v = 0
        for c in reversed(self.coeffs):
            v = (v * x + c) % self.p
        return v

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return Poly.make(out, self.p)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(self.p - 1)

    def scale(self, c: int) -> "Poly":
        c %= self.p
        return Poly.make([c * a for a in self.coeffs], self.p)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return Poly.make(out, self.p)

    def divmod(self, other: "Poly"):
        """Euclidean quotient and remainder."""
        if other.is_zero():
            raise ZeroDivisorError("zero divisor polynomial")
        p = self.p
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = pow(other.coeffs[-1], p - 2, p)
        quo = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] % p
            if c == 0:
                continue
            q = c * lead_inv % p
            quo[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] = (rem[i - d + j] - q * b) % p
        return Poly.make(quo, p), Poly.make(rem[:d], p)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = pow(self.coeffs[-1], self.p - 2, self.p)
        return self.scale(inv)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor (gcd with zero is the monic other)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def shift(self, t: int) -> "Poly":
        """Taylor shift: the polynomial self(x + t)."""
        t %= self.p
        if t == 0 or self.is_zero():
            return self
        p = self.p
        n = self.degree
        # binomial expansion of each c_i (x+t)^i, O(deg^2) field ops
        out = [0] * (n + 1)
        tp = [1] * (n + 1)
        for i in range(1, n + 1):
            tp[i] = tp[i - 1] * t % p
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j in range(i + 1):
                out[j] = (out[j] + c * comb(i, j) * tp[i - j]) % p
        return Poly.make(out, p)

    def derivative(self) -> "Poly":
        return Poly.make(
            [i * c % self.p for i, c in enumerate(self.coeffs)][1:], self.p
        )

    def is_squarefree(self) -> bool:
        """True iff gcd(f, f') is constant.

        Requires 1 <= deg f < p so the derivative cannot vanish for a
        spurious reason (characteristic dividing an exponent).
        """
        if self.degree < 1:
            raise ValueError("constant polynomial")
        if self.degree >= self.p:
            raise ValueError("degree exceeds characteristic guard")
        return self.gcd(self.derivative()).is_constant()

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            elif i == 1:
                term = "x" if c == 1 else f"{c}*x"
            else:
                term = f"x^{i}" if c == 1 else f"{c}*x^{i}"
            parts.append(term)
        return " + ".join(parts)


def resultant(a: Poly, b: Poly) -> int:
    """Res(a, b) in F_p by the Euclidean algorithm.

    Uses Res(a, b) = lc(a)^(deg b - deg r) Res(a, r) for r = b mod a and
    Res(a, r) = (-1)^(deg a deg r) Res(r, a), so the cost is that of one
    gcd.  Zero iff a and b share a root in the algebraic closure; zero
    when either argument is the zero polynomial.
    """
    p = a.p
    if a.is_zero() or b.is_zero():
        return 0
    res = 1
    while True:
        m, n = a.degree, b.degree
        if m == 0:
            return res * pow(a.coeffs[0], n, p) % p
        if n == 0:
            return res * pow(b.coeffs[0], m, p) % p
        r = b % a
        if r.is_zero():
            return 0
        k = r.degree
        res = res * pow(a.coeffs[-1], n - k, p) % p
        if m * k % 2:
            res = -res % p
        a, b = r, a


def interpolate(xs, ys, p) -> Poly:
    """The polynomial of degree < len(xs) through (xs[i], ys[i]) in F_p.

    Newton form: divided differences, then Horner expansion, both
    O(len(xs)^2) field operations.  The xs must be distinct mod p.
    """
    p = _as_p(p)
    xs = [x % p for x in xs]
    c = [y % p for y in ys]
    n = len(xs)
    if len(c) != n:
        raise ValueError("need one value per point")
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            diff = xs[i] - xs[i - j]
            if diff == 0:
                raise ValueError("interpolation points must be distinct")
            c[i] = (c[i] - c[i - 1]) * pow(diff, -1, p) % p
    coeffs = []
    for i in range(n - 1, -1, -1):
        # coeffs <- coeffs * (x - xs[i]) + c[i]
        out = [0] + coeffs
        for k, a in enumerate(coeffs):
            out[k] = (out[k] - xs[i] * a) % p
        out[0] = (out[0] + c[i]) % p
        coeffs = out
    return Poly.make(coeffs, p)


def _powmod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e mod `mod` by left-to-right square-and-multiply, so a linear
    base costs one cheap multiplication per set bit of e."""
    out = Poly.make((1,), mod.p) % mod
    for bit in bin(e)[2:]:
        out = out * out % mod
        if bit == "1":
            out = out * base % mod
    return out


def roots(f: Poly) -> list:
    """The distinct roots of f in F_p, ascending.

    G = gcd(f, x^p - x), with x^p taken mod f by square-and-multiply, is
    the product of (x - r) over the roots r.  G is split by gcds with
    (x + a)^((p-1)/2) - 1 for a = 1, 2, ..., which separate roots r
    whose r + a differ in quadratic character; some a < p separates any
    two roots, so the loop ends.  Costs O(deg(f)^2 log p) field
    operations per split, for any p below 2^63.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial vanishes everywhere")
    p = f.p
    x, one = Poly.x(p), Poly.make((1,), p)
    g = f.monic()
    if g.degree >= 1:
        g = g.gcd(_powmod(x, p, g) - x)
    out = []
    stack = [g] if g.degree >= 1 else []
    a = 0
    while stack:
        g = stack.pop()
        if g.degree == 1:
            out.append(-g.coeffs[0] % p)
            continue
        while True:
            a += 1
            h = g.gcd(_powmod(Poly.make((a, 1), p), (p - 1) // 2, g) - one)
            if 0 < h.degree < g.degree:
                break
        stack += [h, g // h]
    return sorted(out)


_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:(\d+)\s*\*?\s*)?(x(?:\s*\^\s*(\d+))?)?\s*"
)


def parse_poly(text: str, p) -> Poly:
    """Parse polynomial text like 'x^2+3x+1' or an ascending list '[1,3,1]'.

    Terms are c, x, c*x, x^e or c*x^e with optional signs and whitespace;
    coefficients are integers reduced mod p.
    """
    p = _as_p(p)
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated coefficient list: {text!r}")
        body = s[1:-1].strip()
        try:
            coeffs = [int(tok) for tok in body.split(",")] if body else []
        except ValueError:
            raise ValueError(f"bad coefficient list: {text!r}") from None
        return Poly.make(coeffs, p)

    coeffs: dict = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (not m.group(2) and not m.group(3)):
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        sign, cstr, xpart, estr = m.groups()
        if not sign and not first:
            raise ValueError(f"missing sign before {s[pos:]!r}")
        c = int(cstr) if cstr else 1
        if sign == "-":
            c = -c
        e = 0
        if xpart:
            e = int(estr) if estr else 1
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
        first = False
    deg = max(coeffs)
    return Poly.make([coeffs.get(i, 0) for i in range(deg + 1)], p)


@dataclass(frozen=True)
class QnrSet:
    """A set of quadratic non-residues mod p (used by the even-polynomial
    triple builder)."""

    elements: frozenset
    p: int

    @staticmethod
    def make(elements, p) -> "QnrSet":
        p = _as_p(p)
        elems = frozenset(int(e) % p for e in elements)
        if not elems:
            raise ValueError("empty residue set")
        for e in sorted(elems):
            if legendre(e, p) != -1:
                raise ValueError(f"{e} is not a quadratic non-residue mod {p}")
        return QnrSet(elems, p)
