"""Exact and sampled pseudorandomness measures of binary sequences.

Implements the well-distribution measure W, the order-l correlation
measure C_l, a seeded sampling estimator for infeasible exact cases, and
the family cross-correlation measure Phi_l.  Every exact result carries
a deterministic witness (the argmax tuple) that re-evaluates to the
reported value; ties are broken toward the lexicographically smallest
witness, so results are independent of evaluation schedule.

Every measure reduces to the range (max - min) of the prefix walk of a
+-1 sequence: a residue class of a step b for W, a lag product for C_l
and Phi_l.  One finder, `_range_window`, turns a walk and its range into
the first window attaining it.  Exact W scans steps b in increasing
order and stops once ceil(N/b), the length of the longest class, cannot
beat the running best, which costs O(N * ceil(N/W)) instead of O(N^2).

Brute-force definitional oracles (no algebraic shortcuts) are provided
for small sequences and are used only by tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Optional

import numpy as np

from .constructions import BinarySequence

DEFAULT_BUDGET = 2**34
DEFAULT_SEED = 0x1E65_5EED

_ORACLE_LIMIT = 64


class BudgetExceeded(RuntimeError):
    """Exact enumeration would exceed the configured work budget; use the
    sampled estimator instead."""


@dataclass(frozen=True)
class MeasureResult:
    """A measure value with its witness and provenance.

    name is "W", "C" or "Phi"; order is None for W.  For sampled results
    the value is a lower bound on the exact measure and seed/samples
    record the draw.
    """

    name: str
    order: Optional[int]
    value: int
    witness: tuple
    method: str = "exact"
    samples: Optional[int] = None
    seed: Optional[int] = None
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "value": self.value,
            "method": self.method,
            "seed": self.seed,
            "witness": list(self.witness),
        }


def evaluate_w_witness(E: BinarySequence, a: int, b: int, t: int) -> int:
    """|sum_{j=1..t} e_{a+jb}| straight from the definition."""
    if not (b >= 1 and t >= 1 and 1 <= a + b and a + t * b <= E.n):
        raise ValueError("invalid well-distribution witness")
    return abs(sum(E[a + j * b - 1] for j in range(1, t + 1)))


def evaluate_corr_witness(E: BinarySequence, D: tuple, M: int) -> int:
    """|sum_{n=1..M} e_{n+d_1} ... e_{n+d_l}| straight from the definition."""
    if len(D) < 1 or any(x >= y for x, y in zip(D, D[1:])):
        raise ValueError("lags must be strictly increasing")
    if not (D[0] >= 0 and M >= 1 and M + D[-1] <= E.n):
        raise ValueError("invalid correlation witness")
    s = 0
    for n in range(1, M + 1):
        prod = 1
        for d in D:
            prod *= E[n + d - 1]
        s += prod
    return abs(s)


def evaluate_cross_witness(family, indices: tuple, D: tuple, M: int) -> int:
    """|V_l| for the given member indices (1-based) and nondecreasing D."""
    if len(indices) != len(D):
        raise ValueError("indices and D must have equal length")
    seqs = [family[i - 1] for i in indices]
    N = seqs[0].n
    if any(x > y for x, y in zip(D, D[1:])) or D[0] < 0:
        raise ValueError("lags must be nondecreasing")
    if not (M >= 1 and M + D[-1] <= N):
        raise ValueError("invalid cross-correlation witness")
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            if seqs[i].values == seqs[j].values and D[i] == D[j]:
                raise ValueError("equal sequences must not share a lag")
    s = 0
    for n in range(1, M + 1):
        prod = 1
        for seq, d in zip(seqs, D):
            prod *= seq[n + d - 1]
        s += prod
    return abs(s)


def _walk(a):
    """Prefix sums of a with a leading 0, in int64."""
    return np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(a)])


def _span(a) -> int:
    """Range max - min of the walk of a: the largest |window sum|."""
    P = a.cumsum()
    return max(int(P.max()), 0) - min(int(P.min()), 0)


def _products(arrays, rel):
    """a_m = prod_k arrays[k][m + rel[k]] for every m that keeps each
    index inside its array; rel is nondecreasing with rel[0] = 0."""
    n = len(arrays[0]) - rel[-1]
    a = arrays[0][:n]
    for arr, d in zip(arrays[1:], rel[1:]):
        a = a * arr[d: n + d]
    return a


def _range_window(walk, value):
    """First (start, length), by start then length, with
    |walk[start + length] - walk[start]| = value, where value is the
    walk's range max - min.

    Such a window joins a minimum to a maximum.  So it starts at the
    first minimum that has a later maximum or the first maximum that has
    a later minimum, whichever is earlier, and ends at the first
    opposite extreme after that.  Returns None when the walk has fewer
    than two points or its range is below value; raises ValueError when
    the range is above value.
    """
    P = np.asarray(walk)
    if len(P) < 2:
        return None
    lo, hi = P.min(), P.max()
    if hi - lo < value:
        return None
    if hi - lo > value:
        raise ValueError(f"walk range {hi - lo} exceeds value {value}")
    at_lo, at_hi = P == lo, P == hi
    last = len(P) - 1
    first_lo, first_hi = int(at_lo.argmax()), int(at_hi.argmax())
    lo_first = first_lo < last - int(at_hi[::-1].argmax())
    hi_first = first_hi < last - int(at_lo[::-1].argmax())
    if lo_first and (not hi_first or first_lo < first_hi):
        start, ends = first_lo, at_hi
    else:
        start, ends = first_hi, at_lo
    return start, int(ends[start + 1:].argmax()) + 1


def well_distribution(E: BinarySequence, threads: int = 1) -> MeasureResult:
    """Exact W(E): max |sum along an arithmetic progression inside [1, N]|.

    For each difference b the positions split into b residue classes;
    max prefix minus min prefix along each class covers every (a, t)
    choice.  A class of step b has at most ceil(N/b) terms, so no step
    with ceil(N/b) <= best can beat the running best.  Steps are scanned
    in increasing order and the scan stops at the first such b; a tie at
    a larger b could not change the smallest achieving b anyway.  Cost
    O(N * ceil(N/W)) instead of O(N^2).  The witness is the smallest
    (b, a, t) attaining the value.  threads is accepted and ignored.
    """
    t0 = time.perf_counter()
    N = E.n
    # zero padding repeats each class's last prefix, so max - min is exact
    pad = np.zeros(2 * N, dtype=np.int64)
    pad[:N] = E.array()

    def class_prefixes(b):
        m = -(-N // b)
        return np.cumsum(pad[: m * b].reshape(m, b), axis=0)

    value, b_star = -1, None
    for b in range(1, N + 1):
        if -(-N // b) <= value:
            break
        P = class_prefixes(b)
        v = int((np.maximum(P.max(axis=0), 0)
                 - np.minimum(P.min(axis=0), 0)).max())
        if v > value:
            value, b_star = v, b

    best = None  # (a, t)
    P = np.vstack([np.zeros((1, b_star), dtype=np.int64),
                   class_prefixes(b_star)])
    for c in range(b_star):
        k = (N - c + b_star - 1) // b_star  # elements in class c
        hit = _range_window(P[: k + 1, c], value)
        if hit is not None:
            i, length = hit
            cand = (c + 1 + (i - 1) * b_star, length)
            if best is None or cand < best:
                best = cand
    a, t = best
    return MeasureResult("W", None, value, (a, b_star, t),
                         elapsed=time.perf_counter() - t0)


def _corr_tuple_count(N: int, order: int) -> int:
    return comb(N - 1, order - 1)


def correlation(E: BinarySequence, order: int,
                budget: int = DEFAULT_BUDGET,
                threads: int = 1) -> MeasureResult:
    """Exact C_l(E) by lag enumeration.

    The sum over n = 1..M with lags D equals a contiguous window sum of
    the product sequence with relative lags d_i - d_1, so scanning
    max prefix minus min prefix per lag tuple is exact.  Refuses when
    (number of lag tuples) * N exceeds the work budget.  threads is
    accepted and ignored.
    """
    t0 = time.perf_counter()
    if order < 2:
        raise ValueError("correlation order must be >= 2")
    N = E.n
    if order >= N:
        raise ValueError("correlation order must be below the length")
    if _corr_tuple_count(N, order) * N > budget:
        raise BudgetExceeded(
            f"exact C_{order} needs {_corr_tuple_count(N, order) * N} steps "
            f"(budget {budget}); use correlation_sampled"
        )
    arrays = [E.array()] * order

    value = -1
    achieving = []
    for lags in combinations(range(1, N), order - 1):
        v = _span(_products(arrays, (0,) + lags))
        if v > value:
            value = v
            achieving = [lags]
        elif v == value:
            achieving.append(lags)

    witness = None  # (D..., M)
    for lags in achieving:
        start, M = _range_window(
            _walk(_products(arrays, (0,) + lags)), value)
        cand = tuple([start] + [start + d for d in lags]) + (M,)
        if witness is None or cand < witness:
            witness = cand
    D, M = witness[:-1], witness[-1]
    return MeasureResult("C", order, value, (D, M),
                         elapsed=time.perf_counter() - t0)


class SplitMix64:
    """64-bit mixing generator (splitmix64); deterministic for a seed."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        # rejection sampling keeps the draw exactly uniform
        lim = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next()
            if x < lim:
                return x % n

    def lag_tuple(self, N: int, order: int) -> tuple:
        """Uniform strictly increasing (order-1)-subset of [1, N-1]."""
        chosen: set = set()
        while len(chosen) < order - 1:
            chosen.add(1 + self.below(N - 1))
        return tuple(sorted(chosen))


def correlation_sampled(E: BinarySequence, order: int, samples: int,
                        seed: int = DEFAULT_SEED) -> MeasureResult:
    """Lower bound on C_l from `samples` uniformly drawn lag tuples, each
    scanned exactly over all windows.  Deterministic for a fixed seed."""
    t0 = time.perf_counter()
    if order < 2:
        raise ValueError("correlation order must be >= 2")
    N = E.n
    if order >= N:
        raise ValueError("correlation order must be below the length")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    total = _corr_tuple_count(N, order)
    if samples >= total:
        exact = correlation(E, order)
        return MeasureResult("C", order, exact.value, exact.witness,
                             method="sampled", samples=samples, seed=seed,
                             elapsed=time.perf_counter() - t0)
    rng = SplitMix64(seed)
    arrays = [E.array()] * order
    value = -1
    best_lags = None
    for _ in range(samples):
        lags = rng.lag_tuple(N, order)
        v = _span(_products(arrays, (0,) + lags))
        if v > value or (v == value and lags < best_lags):
            value, best_lags = v, lags
    start, M = _range_window(
        _walk(_products(arrays, (0,) + best_lags)), value)
    witness = (tuple([start] + [start + d for d in best_lags]), M)
    return MeasureResult("C", order, value, witness, method="sampled",
                         samples=samples, seed=seed,
                         elapsed=time.perf_counter() - t0)


def _cross_tuple_count(m: int, N: int, order: int) -> int:
    return m**order * comb(N + order - 2, order - 1)


def _check_family(family, order: int):
    """Validate a family for Phi_order; returns (N, arrays, eq) where
    eq[i][j] says whether members i and j are equal sequences."""
    if not family:
        raise ValueError("empty family")
    if order < 1:
        raise ValueError("order must be >= 1")
    N = family[0].n
    if any(s.n != N for s in family):
        raise ValueError("family members must share one length")
    m = len(family)
    eq = [[family[i].values == family[j].values for j in range(m)]
          for i in range(m)]
    # equal sequences must not share a lag, so each distinct member
    # offers N (member, lag) pairs to a tuple
    distinct = sum(not any(eq[i][:i]) for i in range(m))
    if order > distinct * N:
        raise ValueError(
            f"no admissible Phi_{order} tuple: order exceeds {distinct} "
            f"distinct member(s) x length {N}")
    return N, [s.array() for s in family], eq


def _equal_pairs(eq, idxs) -> list:
    """Positions i < j of a member tuple that hold equal sequences; such
    positions must not share a lag."""
    order = len(idxs)
    return [(i, j) for i in range(order) for j in range(i + 1, order)
            if eq[idxs[i]][idxs[j]]]


def cross_correlation(family, order: int,
                      budget: int = DEFAULT_BUDGET) -> MeasureResult:
    """Exact Phi_l of a family: max |V_l| over all l-tuples of members
    (with repetition) and nondecreasing lag tuples, excluding choices
    where two equal sequences share a lag.

    Witness is (member indices 1-based, D, M), lexicographically
    smallest.
    """
    t0 = time.perf_counter()
    family = list(family)
    N, arrays, eq = _check_family(family, order)
    m = len(family)
    if _cross_tuple_count(m, N, order) * N > budget:
        raise BudgetExceeded(
            f"exact Phi_{order} needs about "
            f"{_cross_tuple_count(m, N, order) * N} steps (budget {budget})"
        )

    value = -1
    achieving = []  # (indices, rel_lags)
    for idxs in product(range(m), repeat=order):
        members = [arrays[i] for i in idxs]
        pairs = _equal_pairs(eq, idxs)
        for rel in combinations_with_replacement(range(N), order - 1):
            rel = (0,) + rel  # d_1 is absorbed into the window start
            if any(rel[i] == rel[j] for i, j in pairs):
                continue
            v = _span(_products(members, rel))
            if v > value:
                value = v
                achieving = [(idxs, rel)]
            elif v == value:
                achieving.append((idxs, rel))

    witness = None
    for idxs, rel in achieving:
        start, M = _range_window(
            _walk(_products([arrays[i] for i in idxs], rel)), value)
        cand = (tuple(i + 1 for i in idxs),
                tuple(start + d for d in rel), M)
        if witness is None or cand < witness:
            witness = cand
    return MeasureResult("Phi", order, value, witness,
                         elapsed=time.perf_counter() - t0)


def cross_correlation_sampled(family, order: int, samples: int,
                              seed: int = DEFAULT_SEED) -> MeasureResult:
    """Lower bound on Phi_l from uniformly drawn (member tuple, lag tuple)
    pairs, each scanned exactly over all windows.  Deterministic for a
    fixed seed; draws that violate the distinct-lag restriction are
    redrawn."""
    t0 = time.perf_counter()
    family = list(family)
    N, arrays, eq = _check_family(family, order)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    m = len(family)
    rng = SplitMix64(seed)
    value = -1
    best = None
    for _ in range(samples):
        while True:
            idxs = tuple(rng.below(m) for _ in range(order))
            rel = (0,) + tuple(sorted(
                rng.below(N) for _ in range(order - 1)
            ))
            if not any(rel[i] == rel[j]
                       for i, j in _equal_pairs(eq, idxs)):
                break
        v = _span(_products([arrays[i] for i in idxs], rel))
        if v > value or (v == value and (idxs, rel) < best):
            value, best = v, (idxs, rel)
    idxs, rel = best
    start, M = _range_window(
        _walk(_products([arrays[i] for i in idxs], rel)), value)
    witness = (tuple(i + 1 for i in idxs),
               tuple(start + d for d in rel), M)
    return MeasureResult("Phi", order, value, witness, method="sampled",
                         samples=samples, seed=seed,
                         elapsed=time.perf_counter() - t0)


def oracle_well_distribution(E: BinarySequence) -> MeasureResult:
    """Direct triple loop over the definition of W; tests only."""
    if E.n > _ORACLE_LIMIT:
        raise ValueError(f"oracle limited to N <= {_ORACLE_LIMIT}")
    N = E.n
    value = -1
    witness = None
    for b in range(1, N + 1):
        for a in range(-b + 1, N):
            if a + b < 1:
                continue
            s = 0
            t = 0
            while a + (t + 1) * b <= N:
                t += 1
                s += E[a + t * b - 1]
                if abs(s) > value or (abs(s) == value
                                      and (b, a, t) < witness):
                    value = abs(s)
                    witness = (b, a, t)
    b, a, t = witness
    return MeasureResult("W", None, value, (a, b, t))


def oracle_correlation(E: BinarySequence, order: int) -> MeasureResult:
    """Direct (l+1)-fold loop over the definition of C_l; tests only."""
    if E.n > _ORACLE_LIMIT:
        raise ValueError(f"oracle limited to N <= {_ORACLE_LIMIT}")
    N = E.n
    if not 2 <= order < N:
        raise ValueError("bad order")
    value = -1
    witness = None
    for D in combinations(range(N), order):
        s = 0
        for M in range(1, N - D[-1] + 1):
            prod = 1
            for d in D:
                prod *= E[M + d - 1]
            s += prod
            if abs(s) > value or (abs(s) == value and (D, M) < witness):
                value = abs(s)
                witness = (D, M)
    return MeasureResult("C", order, value, witness)
