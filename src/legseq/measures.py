"""Exact and sampled pseudorandomness measures of binary sequences.

Implements the well-distribution measure W, the order-l correlation
measure C_l, the family cross-correlation measure Phi_l, and seeded
sampling estimators for infeasible exact cases.  Every result carries a
deterministic witness that re-evaluates to the reported value.  An exact
witness is the lexicographically smallest achieving one; a sampled
witness is the first window of the smallest achieving draw.

Every measure reduces to the range (max - min) of the prefix walk of a
+-1 sequence: a residue class of a step b for W, a lag product for C_l
and Phi_l.  One finder, `_range_window`, turns a walk and its range into
the first window attaining it.  Exact W scans steps b in increasing
order and stops once ceil(N/b), the length of the longest class, cannot
beat the running best, which costs O(N * ceil(N/W)) instead of O(N^2).

C_l is Phi_l of the one-member family {E}: equal members may not share
a lag, so its lags are strictly increasing.  One engine, `_score`,
serves exact and sampled C_l and Phi_l.  It takes (member tuple, lag
tuples) batches of at most CELLS // N rows, streamed in lexicographic
order or drawn first by the seeded sampler, and takes every row's range
from one int32 cumsum over int8 shifted views of the members.

At exact order 2, `_lag_bounds` first bounds every lag's walk range from
popcounts of packed sign bits (Packebusch and Mertens, J. Phys. A 49,
2016), and the engine scores only the lags whose upper bound reaches the
best lower bound; ties are kept, so every achieving lag is scored.

Brute-force definitional oracles (no algebraic shortcuts) are provided
for small sequences and are used only by tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import (combinations, combinations_with_replacement, islice,
                       product)
from math import comb
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constructions import BinarySequence, BudgetExceeded

DEFAULT_BUDGET = 2**34
DEFAULT_SEED = 0x1E65_5EED

_ORACLE_LIMIT = 64

# consecutive rejected draws after which sampled Phi gives up: a draw
# that is admissible with probability q fails this often in a row with
# probability (1 - q)^MAX_REDRAWS, below e^-16 for q >= 10^-3
MAX_REDRAWS = 2**14

# the engine scores at most CELLS // N lag tuples of length-N members at once
CELLS = 2**16


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
    return evaluate_cross_witness([E], (1,) * len(D), D, M)


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
    if any(D[i] == D[j] and np.array_equal(seqs[i].array(), seqs[j].array())
           for i, j in combinations(range(len(seqs)), 2)):
        raise ValueError("equal sequences must not share a lag")
    s = 0
    for n in range(1, M + 1):
        prod = 1
        for seq, d in zip(seqs, D):
            prod *= seq[n + d - 1]
        s += prod
    return abs(s)


def _views(family):
    """int8 shifted members: views[i, d, j] is member i's 0-based entry
    d + j, and 0 past its end.  Lags are nondecreasing, so a product that
    leaves the overlap is 0, and a 0 tail only repeats the walk's last
    prefix."""
    N = family[0].n
    pad = np.pad([s.array() for s in family], ((0, 0), (0, N)))
    return sliding_window_view(pad, N, axis=1)


def _products(views, idxs, R):
    """Row r is prod_k views[idxs[k]][R[r, k], :n], where
    n = N - min(R[:, -1]) is the widest overlap in the batch."""
    n = views.shape[2] - int(R[:, -1].min())
    a = views[idxs[0]][R[:, 0], :n]
    for i, lags in zip(idxs[1:], R[:, 1:].T):
        a *= views[i][lags, :n]
    return a


def _batches(views, idxs, rels, pairs=()):
    """(idxs, R) batches of the lag tuples rels, each starting with 0, at
    most max(1, CELLS // N) rows each.  Rows that put the equal members
    of a pair (i, j) on one lag are dropped; empty batches are skipped."""
    rels = iter(rels)
    while chunk := list(islice(rels, max(1, CELLS // views.shape[2]))):
        R = np.array(chunk, dtype=np.intp)
        for i, j in pairs:
            R = R[R[:, i] != R[:, j]]
        if len(R):
            yield idxs, R


def _score(views, batches):
    """The largest walk range over all batches, and every (idxs, rel)
    attaining it."""
    value, achieving = -1, []
    for idxs, R in batches:
        P = _products(views, idxs, R).cumsum(axis=1, dtype=np.int32)
        spans = np.maximum(P.max(axis=1), 0) - np.minimum(P.min(axis=1), 0)
        v = int(spans.max())
        if v > value:
            value, achieving = v, []
        if v == value:
            achieving += [(idxs, tuple(r)) for r in R[spans == v].tolist()]
    return value, achieving


def _witness(views, value, idxs, rel):
    """(member indices 1-based, D, M) of the first window of the
    (idxs, rel) walk whose sum has absolute value `value`."""
    a = _products(views, idxs, np.array([rel], dtype=np.intp))[0]
    start, M = _range_window(np.concatenate(([0], a.cumsum())), value)
    return tuple(i + 1 for i in idxs), tuple(start + d for d in rel), M


def _lag_bounds(views, pairs):
    """lb[p, d] <= walk range <= ub[p, d] of x_n * y_{n+d} for every lag
    d, where (x, y) are the members pairs[p].  A product of +-1 entries is
    an XOR of sign bits, so a block of w <= 64 products sums to
    S = w - 2 * popcount(x ^ y).  The walk passes through every block-end
    prefix Q, and inside block k stays within (Q_k + Q_{k+1} +- w) / 2.
    Lags go in chunks of at most CELLS words."""
    N = views.shape[2]
    nw = -(-N // 64)
    bits = np.zeros((len(views), 64 * (2 * nw + 1)), dtype=np.uint8)
    bits[:, :N] = views[:, 0] < 0
    # words[i, s, q]: member i's sign bits from entry 64q + s on, and
    # widths[s, q, k]: entries of block k inside the overlap at lag 64q + s
    words = sliding_window_view(np.packbits(
        sliding_window_view(bits, 128 * nw, axis=1)[:, :64], axis=2,
        bitorder="little").view("<u8"), nw, axis=2)
    widths = sliding_window_view(np.clip(
        N - np.arange(64)[:, None] - 64 * np.arange(2 * nw), 0, 64
    ).astype(np.uint8), nw, axis=1)
    I, J = np.array(pairs).T
    lb, ub = np.empty((2, len(pairs), N), dtype=np.int32)
    d0 = 0
    while d0 < N:
        nk = -(-(N - d0) // 64)  # blocks of the chunk's longest overlap
        d = np.arange(d0, min(N, d0 + max(1, CELLS // (nk * len(pairs)))))
        d0 += len(d)
        q, s = np.divmod(d, 64)
        w = widths[s, q, :nk]
        x = words[J[:, None], s, q, :nk]
        x ^= words[I, 0, 0, :nk][:, None]
        x <<= 64 - w  # masks off the bits past the overlap
        pc = np.bitwise_count(x).astype(np.int16)
        del x  # frees the words before the walk arrays are made
        Q = (w - 2 * pc).cumsum(axis=2, dtype=np.int32)
        lb[:, d] = np.maximum(Q.max(axis=2), 0) - np.minimum(Q.min(axis=2), 0)
        Q += pc  # the top of block k, (Q_k + Q_{k+1} + w) / 2
        hi = np.maximum(Q.max(axis=2), 0)
        Q -= w  # and its bottom, (Q_k + Q_{k+1} - w) / 2
        ub[:, d] = hi - np.minimum(Q.min(axis=2), 0)
    return lb, ub


def _order2_rels(views, eq):
    """Each member pair with its admissible lags (0, d) whose upper bound
    reaches the best lower bound so far, pairs going in groups of at most
    max(1, CELLS // N).  That best never exceeds the value and ties are
    kept, so every achieving lag is scored."""
    pairs = list(product(range(len(eq)), repeat=2))
    best, step = -1, max(1, CELLS // views.shape[2])
    for group in (pairs[g:g + step] for g in range(0, len(pairs), step)):
        lb, ub = _lag_bounds(views, group)
        equal = [p for p, (i, j) in enumerate(group) if eq[i][j]]
        lb[equal, 0] = ub[equal, 0] = -1
        best = max(best, lb.max())
        for p, idxs in enumerate(group):
            keep = np.flatnonzero(ub[p] >= best).tolist()
            yield idxs, [(0, d) for d in keep]


def _exact(views, eq, order):
    """Value and lexicographically smallest witness over every member
    tuple and every admissible nondecreasing lag tuple; at order 2 over
    the lags that `_order2_rels` keeps."""
    lags = range(views.shape[2])
    rels = _order2_rels(views, eq) if order == 2 else (
        (idxs, ((0,) + r for r in combinations_with_replacement(
            lags, order - 1)))
        for idxs in product(range(len(eq)), repeat=order))
    value, achieving = _score(views, (
        batch for idxs, rel in rels
        for batch in _batches(views, idxs, rel, _equal_pairs(eq, idxs))))
    return value, min(_witness(views, value, *a) for a in achieving)


def _sampled(views, draws):
    """Value over the drawn lag tuples, draws[idxs] those of member tuple
    idxs, and the witness of the smallest achieving (idxs, rel)."""
    value, achieving = _score(views, (
        batch for idxs, rels in draws.items()
        for batch in _batches(views, idxs, rels)))
    return value, _witness(views, value, *min(achieving))


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
    pad = np.pad(E.array().astype(np.int64), (0, N))

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


def _check_order(E: BinarySequence, order: int):
    if order < 2:
        raise ValueError("correlation order must be >= 2")
    if order >= E.n:
        raise ValueError("correlation order must be below the length")


def correlation(E: BinarySequence, order: int,
                budget: int = DEFAULT_BUDGET,
                threads: int = 1) -> MeasureResult:
    """Exact C_l(E), computed as Phi_l of the one-member family {E}.

    The sum over n = 1..M with lags D is a window sum of the product
    sequence with relative lags d_i - d_1, so the walk range of each lag
    tuple is exact; the engine scores them in batches of at most
    CELLS // N, at order 2 only the lags that `_lag_bounds` cannot rule
    out.  The witness (D, M) is the lexicographically smallest.
    Refuses when (number of lag tuples) * N exceeds the work budget.
    threads is accepted and ignored.
    """
    t0 = time.perf_counter()
    _check_order(E, order)
    steps = comb(E.n - 1, order - 1) * E.n
    if steps > budget:
        raise BudgetExceeded(f"exact C_{order} needs {steps} steps "
                             f"(budget {budget}); use correlation_sampled")
    value, (_, D, M) = _exact(_views([E]), [[True]], order)
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
    """Lower bound on C_l from `samples` uniformly drawn lag tuples, drawn
    first and then scored exactly over all windows by the engine.  The
    witness is the first window of the smallest achieving drawn lag
    tuple.  Deterministic for a fixed seed; exact when samples reaches
    the number of lag tuples."""
    t0 = time.perf_counter()
    _check_order(E, order)
    N = E.n
    if samples < 1:
        raise ValueError("samples must be >= 1")
    views = _views([E])
    if samples >= comb(N - 1, order - 1):
        value, (_, D, M) = _exact(views, [[True]], order)
    else:
        rng = SplitMix64(seed)
        value, (_, D, M) = _sampled(views, {(0,) * order: [
            (0,) + rng.lag_tuple(N, order) for _ in range(samples)]})
    return MeasureResult("C", order, value, (D, M), method="sampled",
                         samples=samples, seed=seed,
                         elapsed=time.perf_counter() - t0)


def _check_family(family, order: int):
    """Validate a family for Phi_order; returns eq, where eq[i][j] says
    whether members i and j are equal sequences."""
    if not family:
        raise ValueError("empty family")
    if order < 1:
        raise ValueError("order must be >= 1")
    N = family[0].n
    if any(s.n != N for s in family):
        raise ValueError("family members must share one length")
    eq = [[np.array_equal(a.array(), b.array()) for b in family]
          for a in family]
    # equal sequences must not share a lag, so each distinct member
    # offers N (member, lag) pairs to a tuple
    distinct = sum(not any(row[:i]) for i, row in enumerate(eq))
    if order > distinct * N:
        raise ValueError(
            f"no admissible Phi_{order} tuple: order exceeds {distinct} "
            f"distinct member(s) x length {N}")
    return eq


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
    where two equal sequences share a lag.  The engine streams each
    member tuple's lag tuples in batches of at most CELLS // N, at order
    2 only those that `_lag_bounds` cannot rule out.  The witness
    (member indices 1-based, D, M) is lexicographically smallest.
    """
    t0 = time.perf_counter()
    family = list(family)
    eq = _check_family(family, order)
    N = family[0].n
    steps = len(family)**order * comb(N + order - 2, order - 1) * N
    if steps > budget:
        raise BudgetExceeded(f"exact Phi_{order} needs about {steps} "
                             f"steps (budget {budget})")
    value, witness = _exact(_views(family), eq, order)
    return MeasureResult("Phi", order, value, witness,
                         elapsed=time.perf_counter() - t0)


def cross_correlation_sampled(family, order: int, samples: int,
                              seed: int = DEFAULT_SEED) -> MeasureResult:
    """Lower bound on Phi_l from uniformly drawn (member tuple, lag tuple)
    pairs, drawn first and then scored exactly over all windows by the
    engine; draws that break the distinct-lag rule are redrawn.  The
    witness is the first window of the smallest achieving draw, and the
    result is deterministic for a fixed seed.  Raises BudgetExceeded
    after MAX_REDRAWS rejected draws in a row, which happens only when
    admissible tuples are very rare (an order close to the distinct
    members times N)."""
    t0 = time.perf_counter()
    family = list(family)
    eq = _check_family(family, order)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    m, N = len(family), family[0].n
    rng = SplitMix64(seed)
    draws = {}
    for _ in range(samples):
        for _ in range(MAX_REDRAWS):
            idxs = tuple(rng.below(m) for _ in range(order))
            rel = (0,) + tuple(sorted(rng.below(N)
                                      for _ in range(order - 1)))
            if not any(rel[i] == rel[j]
                       for i, j in _equal_pairs(eq, idxs)):
                break
        else:
            raise BudgetExceeded(
                f"sampled Phi_{order}: {MAX_REDRAWS} draws in a row "
                f"broke the distinct-lag rule, so admissible tuples are "
                f"too rare to sample; use the exact method "
                f"(cross_correlation, --method exact)")
        draws.setdefault(idxs, []).append(rel)
    value, witness = _sampled(_views(family), draws)
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
