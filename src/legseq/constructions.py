"""Binary sequence constructions from Legendre symbols of polynomials.

Three generators: a single-polynomial sequence, a three-polynomial
filtered sequence (the switching polynomial h selects between f and g),
and a generic combiner that interleaves two arbitrary sequences under a
third.  Sequences take values in {-1, +1}; indices are 1-based on every
external surface.

A sequence is one read-only int8 array, built by chunked int64 Horner
and an int8 Legendre table; p above MAX_LENGTH raises BudgetExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ff import Poly, QnrSet, legendre, legendre_table

# longest sequence built: legendre_table's list takes 8 bytes a residue
# (1 GiB at the cap), and int64 Horner is exact only while p^2 < 2^63
MAX_LENGTH = 2**27


class BudgetExceeded(RuntimeError):
    """A sequence longer than MAX_LENGTH, or exact work beyond the budget
    (use the sampled estimator instead); the CLI exits 3."""


class BinarySequence:
    """A +-1 sequence of length N >= 1 with provenance metadata.

    values (any sequence or array of -1 and +1) is copied into one int8
    array, which `array()` returns read-only.  seq[i] is a Python int and
    `.values` a tuple built from the array on first use.  Constructions
    longer than MAX_LENGTH raise BudgetExceeded (exit 3).
    """

    def __init__(self, values, meta=None):
        a = np.asarray(values)
        if a.size < 1:
            raise ValueError("empty sequence")
        if a.ndim != 1 or not ((a == 1) | (a == -1)).all():
            raise ValueError("sequence entries must be -1 or +1")
        self._a = a.astype(np.int8)
        self._a.flags.writeable = False
        self.meta = {} if meta is None else meta

    @property
    def n(self) -> int:
        return len(self._a)

    def __len__(self):
        return len(self._a)

    def __getitem__(self, i) -> int:
        return self._a.item(i)

    def array(self) -> np.ndarray:
        return self._a

    @cached_property
    def values(self) -> tuple:
        return tuple(self._a.tolist())

    def __neg__(self) -> "BinarySequence":
        return BinarySequence(-self._a)

    def dumps(self) -> str:
        p = self.meta.get("p")
        head = "#LEGSEQ v1" if p is None else f"#LEGSEQ v1 p={p}"
        body = np.where(self._a > 0, np.uint8(ord("+")), np.uint8(ord("-")))
        return f"{head} n={self.n}\n{body.tobytes().decode('ascii')}\n"

    @staticmethod
    def loads(text: str) -> "BinarySequence":
        lines = text.splitlines()
        if len(lines) < 2 or not lines[0].startswith("#LEGSEQ v1"):
            raise ValueError("not a LEGSEQ v1 file")
        fields = {key: int(val) for key, _, val in
                  (tok.partition("=") for tok in lines[0].split()[2:])}
        if "n" not in fields:
            raise ValueError("missing n= in header")
        if len(lines[1]) != fields["n"]:
            raise ValueError("body length does not match header")
        # a non-ASCII character becomes '?', which is rejected below
        body = np.frombuffer(lines[1].encode("ascii", "replace"), np.uint8)
        plus = body == ord("+")
        if not (plus | (body == ord("-"))).all():
            raise ValueError("sequence body must use only '+' and '-'")
        meta = {"p": fields["p"]} if "p" in fields else {}
        return BinarySequence(np.where(plus, np.int8(1), np.int8(-1)), meta)

    @staticmethod
    def load(path) -> "BinarySequence":
        with open(path, "r", encoding="ascii") as fh:
            return BinarySequence.loads(fh.read())

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.dumps())


@dataclass(frozen=True)
class PolyTriple:
    """Three polynomials f, g, h over a shared prime modulus."""

    f: Poly
    g: Poly
    h: Poly

    def __post_init__(self):
        if not (self.f.p == self.g.p == self.h.p):
            raise ValueError("mismatched moduli")
        for poly in (self.f, self.g, self.h):
            if poly.degree < 1:
                raise ValueError("constant polynomial")

    @property
    def p(self) -> int:
        return self.f.p

    @property
    def max_degree(self) -> int:
        return max(self.f.degree, self.g.degree, self.h.degree)


def _symbols(*polys: Poly) -> list:
    """int8 (q(n)/p) for n = 1..p, 0 where p | q(n), per polynomial q: int64
    Horner on 2^16 values of n at a time, then one Legendre table lookup.
    Raises BudgetExceeded when p > MAX_LENGTH, before any allocation."""
    p = polys[0].p
    if p > MAX_LENGTH:
        raise BudgetExceeded(f"length p = {p} exceeds the cap {MAX_LENGTH}")
    table = np.array(legendre_table(p), dtype=np.int8)
    out = [np.empty(p, dtype=np.int8) for _ in polys]
    for lo in range(0, p, 2**16):
        n = np.arange(lo + 1, min(lo + 2**16, p) + 1, dtype=np.int64)
        for q, e in zip(polys, out):
            acc = 0
            for c in reversed(q.coeffs):
                acc = (acc * n + c) % p
            e[lo:lo + len(n)] = table[acc]
    return out


def construct_single(f: Poly) -> BinarySequence:
    """Length-p sequence e_n = (f(n)/p) for n = 1..p, with +1 when p | f(n)."""
    if f.degree < 1:
        raise ValueError("constant polynomial")
    (e,) = _symbols(f)
    return BinarySequence(np.where(e == 0, 1, e),
                          {"p": f.p, "construction": 1, "f": str(f)})


def construct_triple(t: PolyTriple) -> BinarySequence:
    """Three-polynomial filtered sequence for n = 1..p.

    Branch precedence: the p | f(n)g(n) case wins; otherwise the symbol
    of h(n) selects f (when in {0, +1}) or g (when -1).
    """
    F, G, H = _symbols(t.f, t.g, t.h)
    return BinarySequence(
        np.where((F == 0) | (G == 0), 1, np.where(H >= 0, F, G)),
        {"p": t.p, "construction": 2, "f": str(t.f), "g": str(t.g),
         "h": str(t.h)})


def closed_form_element(t: PolyTriple, n: int) -> int:
    """Element value by the selector identity, defined when p does not
    divide f(n)g(n)h(n):

        (1 + (h(n)/p))/2 * (f(n)/p) + (1 - (h(n)/p))/2 * (g(n)/p)
    """
    p = t.p
    fv, gv, hv = t.f(n), t.g(n), t.h(n)
    if fv == 0 or gv == 0 or hv == 0:
        raise ValueError(f"formula undefined at n={n}")
    hs = legendre(hv, p)
    val = (1 + hs) * legendre(fv, p) + (1 - hs) * legendre(gv, p)
    return val // 2


def construct_combined(F: BinarySequence, G: BinarySequence,
                       H: BinarySequence) -> BinarySequence:
    """Interleave F and G under the switch H: e_n = f_n when h_n = +1,
    else g_n."""
    if not (F.n == G.n == H.n):
        raise ValueError("length mismatch")
    return BinarySequence(np.where(H.array() > 0, F.array(), G.array()),
                          {"construction": 3})


def build_theorem2_polys(A: QnrSet, B: QnrSet, C: QnrSet) -> PolyTriple:
    """Even squarefree triple from sets of quadratic non-residues:
    f = prod_{n in A} (x^2 - n), likewise g from B and h from C."""
    if not (A.p == B.p == C.p):
        raise ValueError("mismatched moduli")
    p = A.p

    def build(s: QnrSet) -> Poly:
        poly = Poly.make((1,), p)
        for n in sorted(s.elements):
            poly = poly * Poly.make((-n, 0, 1), p)
        return poly

    return PolyTriple(build(A), build(B), build(C))
