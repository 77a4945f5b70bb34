"""Exact and sampled pseudorandomness measures of binary sequences.

Implements the well-distribution measure W, the order-l correlation
measure C_l, the family cross-correlation measure Phi_l, and seeded
sampling estimators for infeasible exact cases.  Every result carries a
deterministic witness that re-evaluates to the reported value.  An exact
witness is the lexicographically smallest achieving one; a sampled
witness is the first window of the smallest achieving draw.

Every measure reduces to the range (max - min) of the prefix walk of a
+-1 sequence: a residue class of a step b for W, a lag product for C_l
and Phi_l.  One finder, `_range_windows`, takes a batch of walks that
share their range, one walk a row, and returns each row's first window
attaining it.  Exact W scans steps b in increasing order and stops once
ceil(N/b), the length of the longest class, cannot beat the running
best, which costs O(N * ceil(N/W)) instead of O(N^2).

C_l is Phi_l of the one-member family {E}: a member may not sit twice
on one lag, so its lags are strictly increasing.  The exact engine
enumerates distinct members only: `_check_family` maps each member of a
family to its first equal one, which keeps the value and the smallest
witness, and the witness is mapped back.  One engine, `_score`, serves
exact and sampled C_l and Phi_l.  It scores (I, R) batches, row r being
the member tuple I[r] at the lag tuple R[r], from the exact filter
`_bounded` or from the seeded sampler's draws.  A batch holds at most
CELLS cells, and its rows share nearly one last lag, so each row's walk
is about its own overlap long.  One int32 cumsum over int8 shifted views
of the members gives every row's range, and the same prefix sums give
the first window of every row that attains the largest.

Every exact lag tuple and every sampled draw is first bounded from
popcounts of packed sign bits (Packebusch and Mertens, J. Phys. A 49,
2016) by one reducer.  `_sign_words` packs each member's sign bits once:
`_lag_bounds` shifts them into a table of every lag's words, and
`_draw_bounds` reads them at each draw's lags.  One generator, `_grid`,
decides which (member, lag) may extend a block of rows at every
position: it owns the admissibility rule, the lag-range cut and the
chunking.  The numpy enumerator `_lag_tuples` builds the exact tuples
less their last position from it, and `_lag_bounds` bounds every last
(member, lag) of each chunk it yields; `_draw_bounds` bounds the draws.
The engine scores only those whose upper bound reaches the best lower
bound; ties are kept, so every achieving one is scored.

Brute-force definitional oracles (no algebraic shortcuts) are provided
for sequences of length at most 64: tests tie the exact engines to
them, and `legseq measure --oracle` runs them in place of the engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, combinations, pairwise
from math import comb, log2
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

# a batch has at most CELLS cells (rows times their widest overlap)
CELLS = 2**16

# exact orders above this are refused: the budget admits them only close
# to N, where the enumerator's levels of rows that long would not fit
MAX_ORDER = 2**10


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


def _products(views, I, R):
    """Row r is prod_k views[I[r, k], R[r, k], :n], where
    n = N - min(R[:, -1]) is the widest overlap in the batch."""
    n = views.shape[2] - int(R[:, -1].min())
    a = views[I[:, 0], R[:, 0], :n]
    for k in range(1, R.shape[1]):
        a *= views[I[:, k], R[:, k], :n]
    return a


def _rows(n, k, order):
    """Rows of k of the order positions to hold at once, at least one: at
    most CELLS cells of walks n long, and CELLS // order index cells at
    4 * k a row, so that the order levels of `_lag_tuples` share CELLS."""
    return max(1, CELLS // max(n, 4 * k * order))


def _chunks(last, rows):
    """Slices of batches by last lags, each of rows(L) rows, L being the
    last lag of its first row."""
    a = 0
    while a < len(last):
        b = a + rows(int(last[a]))
        yield slice(a, b)
        a = b


def _span(P):
    """max(P, 0) - min(P, 0) along the last axis: the range of each walk
    of prefixes P together with its leading 0."""
    return np.maximum(P.max(axis=-1), 0) - np.minimum(P.min(axis=-1), 0)


def _range_windows(P, value):
    """First (start, length) of each row of walks P, by start then length,
    with |P[start + length] - P[start]| = value, where value >= 1 is the
    range max - min of every row; raises ValueError otherwise.

    Such a window joins a minimum to a maximum.  The earlier of the first
    minimum and the first maximum is the first extreme of all, so the
    window starts there; every extreme of the other kind comes after it,
    so the window ends at the first of those."""
    lo, hi = P.argmin(axis=1), P.argmax(axis=1)
    rows = np.arange(len(P))
    if value < 1 or (P[rows, hi] - P[rows, lo] != value).any():
        raise ValueError(f"walk ranges differ from value {value}")
    return np.minimum(lo, hi), np.abs(hi - lo)


def _score(views, batches):
    """The largest walk range over all (I, R) batches, and one row
    (members, lags, start, M) for every lag tuple attaining it, (start, M)
    being the first window of its walk that attains it."""
    value, hits = -1, []
    for I, R in batches:
        P = _products(views, I, R).cumsum(axis=1, dtype=np.int32)
        spans = _span(P)
        v = int(spans.max())
        if v > value:
            value, hits = v, []
        if v == value:
            hit = spans == v
            hits.append(np.column_stack((
                I[hit], R[hit],
                *_range_windows(np.pad(P[hit], ((0, 0), (1, 0))), v))))
        del P, spans  # dropped before the filter allocates its next chunk
    return value, np.vstack(hits)


def _window(hit):
    """(member indices 1-based, D, M) of a `_score` row (idxs, rel,
    start, M), given as a list."""
    k = len(hit) // 2 - 1
    return (tuple(i + 1 for i in hit[:k]),
            tuple(hit[-2] + d for d in hit[k:-2]), hit[-1])


def _block_bounds(w, pc):
    """lb <= walk range <= ub of +-1 walks whose block k along the last
    axis has w <= 64 steps, pc of them -1, and so sums to w - 2 * pc.  The
    walk passes through every block-end prefix Q, and inside block k stays
    within (Q_k + Q_{k+1} +- w) / 2."""
    Q = (w - 2 * pc.astype(np.int16)).cumsum(axis=-1, dtype=np.int32)
    lb = _span(Q)
    Q += pc  # the top of block k, (Q_k + Q_{k+1} + w) / 2
    hi = np.maximum(Q.max(axis=-1), 0)
    Q -= w  # and its bottom, (Q_k + Q_{k+1} - w) / 2
    return lb, hi - np.minimum(Q.min(axis=-1), 0)


def _sign_words(views):
    """Each member's sign bits, packed once and unshifted into 2 *
    ceil(N / 64) + 2 words, entry j being bit j % 64 of word j // 64;
    the words past entry N are 0."""
    N = views.shape[2]
    return np.pad(np.packbits(views[:, 0] < 0, axis=1, bitorder="little"),
                  ((0, 0), (0, 8 * (2 * -(-N // 64) + 2) + -N // 8))
                  ).view("<u8")


def _lag_bounds(views, order):
    """For each block (I, R) of prefixes from `_lag_tuples` and each
    `_grid` chunk (d, a, bad) of its last position, (I[:a], R[:a], d, lb,
    ub): lb[j, p, i] <= walk range <= ub[j, p, i] of row p then member i
    at lag d[j], or -1 where bad.  The words of `_sign_words` are shifted
    once into a table that holds every lag's words; each prefix's words
    are XORed once, and `_block_bounds` reads popcounts of that XOR with
    member i's words at lag d[j]."""
    N, D = views.shape[2], len(views)
    nw = -(-N // 64)
    packed = _sign_words(views)
    # words[s, q, i]: member i's sign bits from entry 64q + s on, and
    # widths[s, q, k]: entries of block k inside the overlap at lag 64q + s
    s = np.arange(64, dtype=np.uint64)[:, None, None]
    shifted = (packed[:, :-1] >> s) | (packed[:, 1:] << (64 - s))
    words = np.moveaxis(sliding_window_view(shifted, nw, axis=2), 1, 2)
    widths = sliding_window_view(np.clip(
        N - np.arange(64)[:, None] - 64 * np.arange(2 * nw), 0, 64
    ).astype(np.uint8), nw, axis=1)
    for I, R in _lag_tuples(D, N, order):
        X = np.bitwise_xor.reduce(words[R & 63, R >> 6, I], axis=1)
        for d, a, bad in _grid(D, N, I, R, order):
            nk = -(-(N - d[0]) // 64)  # blocks of the longest overlap
            w = widths[d & 63, d >> 6, None, None, :nk]
            # gathered in its final shape: no second array this large
            x = words[np.broadcast_to(d[:, None] & 63, (len(d), a)),
                      d[:, None] >> 6, :, :nk]
            x ^= X[:a, None, :nk]
            x <<= 64 - w  # masks off the bits past the overlap
            x = np.bitwise_count(x)  # frees the words before the walks
            lb, ub = _block_bounds(w, x)
            del x  # held across the yield, it cost page faults per chunk
            lb[bad] = ub[bad] = -1
            yield I[:a], R[:a], d, lb, ub


def _draw_bounds(views, I, R):
    """lb[r] <= walk range <= ub[r] of draw r: the product over k of
    member I[r, k] at lag R[r, k], lags nondecreasing.  Sign bits
    are read from the words w of `_sign_words`: lag d = 64q + s reads
    (w[q + k] >> s) | (w[q + k + 1] << (64 - s)).  Draws go in chunks of
    at most CELLS words per stream."""
    N = views.shape[2]
    words = _sign_words(views)
    q, s = R >> 6, (R & 63).astype(np.uint8)
    lb, ub = np.empty((2, len(R)), dtype=np.int32)
    step = max(1, CELLS // -(-N // 64))  # ceil(N / 64) words a draw
    for r in range(0, len(R), step):
        c = slice(r, r + step)
        n = N - R[c, -1]  # the overlaps
        nk = -(-int(n.max()) // 64)
        rows = sliding_window_view(words, nk + 1, axis=1)
        x = np.zeros((len(n), nk), dtype=np.uint64)
        for k in range(R.shape[1]):
            a, sk = rows[I[c, k], q[c, k]], s[c, k, None]
            x ^= (a[:, :-1] >> sk) | (a[:, 1:] << (64 - sk))
        w = np.clip(n[:, None] - 64 * np.arange(nk), 0, 64).astype(np.uint8)
        lb[c], ub[c] = _block_bounds(w, np.bitwise_count(x << (64 - w)))
    return lb, ub


def _grid(D, N, I, R, order):
    """Every (member i, lag d) of the D distinct members that may extend a
    row of the block (I, R), sorted by last lag L, to position k of the
    order, in chunks (d, a, bad): lags d, the rows [:a] of last lag at
    most d[-1], and bad[j, p, i] where i may not follow row p at lag d[j].
    A member may not sit twice on one lag, so member i may follow at d >=
    L, or at d > L if it sits at L already.  The first lag is 0.  With lag
    d at a later position k, the order - k positions still to place have
    D * (N - d) - 1 (member, lag) pairs left, so a row completes only if d
    < N - (order - k) // D.  A chunk holds at most CELLS words, or one
    lag, each (lag, row, member) counting as the blocks of the chunk's
    longest overlap, at least 16, as the bounds of `_lag_bounds` outlive
    its words."""
    k = R.shape[1] + 1
    stop = N - (order - k) // D if k > 1 else 1
    L = R.max(axis=1, initial=0)
    # at[p, c]: the member in column c of row p if it sits at lag L, else
    # -1; none of them may sit at L again
    at = np.where(R == L[:, None], I, -1)
    first = L[:, None] + (at[:, :, None] == np.arange(D)).any(axis=1)
    lags = np.arange(stop + 1)
    A = np.searchsorted(L, lags, "right")  # rows of last lag at most d
    d0 = L[0]
    while d0 < stop:
        cap = CELLS // (max(-(-(N - d0) // 64), 16) * D)
        # it ends before (rows up to lag d) * (d - d0 + 1) passes cap
        j = lags[1:min(stop - d0, cap) + 1]
        e = d0 + max(1, np.count_nonzero(A[d0:d0 + len(j)] * j <= cap))
        a, d = A[e - 1], lags[d0:e]
        yield d, a, d[:, None, None] < first[:a]
        d0 = e


def _cells(I, R, d, keep, rows):
    """(I, R) batches, by `_chunks` of rows(L) rows, of the cells that
    keep marks in a `_grid` chunk: row p of (I, R) then member i at lag
    d[j], by lag, then row and member."""
    j, p, i = np.nonzero(keep)
    for c in _chunks(d[j], rows):
        yield (np.column_stack((I[p[c]], i[c])),
               np.column_stack((R[p[c]], d[j[c]])))


def _extend(D, N, I, R, order):
    """Batches of `_rows` admissible extensions of the rows (I, R) by one
    (member, lag) from `_grid`, sorted by last lag."""
    k = R.shape[1] + 1
    for d, a, bad in _grid(D, N, I, R, order):
        yield from _cells(I, R, d, ~bad, lambda L: _rows(0, k, order))


def _lag_tuples(D, N, order):
    """Blocks (I, R), sorted by last lag, of every admissible tuple I[r]
    of the D distinct members at its nondecreasing lag tuple R[r] from 0,
    each once, less the last position, which `_lag_bounds` adds.
    `_extend` adds each position from `_grid`, starting from one row of no
    positions.  Depth first, so each position holds one block of rows."""
    empty = np.zeros((1, 0), dtype=np.intp)
    levels = [iter([(empty, empty)])]
    while levels:
        rows = next(levels[-1], None)
        if rows is None:
            levels.pop()
        elif rows[1].shape[1] < order - 1:
            levels.append(_extend(D, N, *rows, order))
        else:
            yield rows


def _bounded(views, order):
    """(I, R) batches, by last lag, of the tuples whose upper bound from
    `_lag_bounds` reaches the best lower bound, from 0, below any walk
    range, to the end of the next chunk.  Ties are kept, so every
    achieving tuple is scored."""
    N, best = views.shape[2], 0
    for (I, R, d, lb, ub), ahead in pairwise(
            chain(_lag_bounds(views, order), [None])):
        best = max(best, lb.max(), ahead[3].max() if ahead else 0)
        yield from _cells(I, R, d, ub >= best,
                          lambda L: _rows(N - L, order, order))


def _exact(views, order):
    """Value and lexicographically smallest witness over every admissible
    tuple of the distinct members `views` at every lag tuple, of which the
    engine scores those `_bounded` keeps."""
    value, hits = _score(views, _bounded(views, order))
    return value, min(map(_window, hits.tolist()))


def _sampled(views, I, R):
    """Value over the admissible draws (I[r], R[r]), scoring only those
    whose upper bound reaches the best lower bound (ties kept), and the
    witness of the smallest achieving draw."""
    lb, ub = _draw_bounds(views, I, R)
    keep = np.flatnonzero(ub >= lb.max())
    keep = keep[np.argsort(R[keep, -1], kind="stable")]
    N, k = views.shape[2], R.shape[1]
    value, hits = _score(views, ((I[keep[c]], R[keep[c]]) for c in _chunks(
        R[keep, -1], lambda L: _rows(N - L, k, k))))
    return value, _window(min(hits.tolist()))


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

    def class_walks(b):
        """Row c: the prefix sums of residue class c of step b."""
        m = -(-N // b)
        return np.cumsum(pad[: m * b].reshape(m, b), axis=0).T

    value, b_star = -1, None
    for b in range(1, N + 1):
        if -(-N // b) <= value:
            break
        v = int(_span(class_walks(b)).max())
        if v > value:
            value, b_star = v, b

    # a window from step i of class c's walk, from its leading 0, starts
    # at a = c + 1 + (i - 1) * b_star
    P = np.pad(class_walks(b_star), ((0, 0), (1, 0)))
    c = np.flatnonzero(_span(P) == value)
    i, t = _range_windows(P[c], value)
    a, t = min(zip((c + 1 + (i - 1) * b_star).tolist(), t.tolist()))
    return MeasureResult("W", None, value, (a, b_star, t),
                         elapsed=time.perf_counter() - t0)


def _check_order(E: BinarySequence, order: int):
    if order < 2:
        raise ValueError("correlation order must be >= 2")
    if order >= E.n:
        raise ValueError("correlation order must be below the length")


def _check_exact(name: str, order: int, steps, budget: int):
    """Refuse exact `name` above MAX_ORDER before steps(), its step count,
    is evaluated, as math.comb takes seconds at orders near N = 10^6;
    then refuse it when that count passes the work budget.  The message
    gives the count as a power of 2: the count can pass the 4 300 digits
    that Python converts to a string."""
    if order > MAX_ORDER:
        raise BudgetExceeded(f"exact {name} is above order {MAX_ORDER}")
    if (n := steps()) > budget:
        raise BudgetExceeded(f"exact {name} needs 2^{log2(n):.1f} steps "
                             f"(budget {budget}); use the sampled estimator")


def correlation(E: BinarySequence, order: int,
                budget: int = DEFAULT_BUDGET,
                threads: int = 1) -> MeasureResult:
    """Exact C_l(E), computed as Phi_l of the one-member family {E}.

    The sum over n = 1..M with lags D is a window sum of the product
    sequence with relative lags d_i - d_1, so the walk range of each lag
    tuple is exact; the engine scores those that the block bounds of
    `_bounded` cannot rule out.  The witness (D, M) is the
    lexicographically smallest.
    Refuses orders above MAX_ORDER, and then when (number of lag tuples)
    * N exceeds the work budget.  threads is accepted and ignored.
    """
    t0 = time.perf_counter()
    _check_order(E, order)
    _check_exact(f"C_{order}", order,
                 lambda: comb(E.n - 1, order - 1) * E.n, budget)
    value, (_, D, M) = _exact(_views([E]), order)
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


def _check_samples(name: str, samples: int, N: int, budget: int):
    """Refuse a sampled run before any draw unless 1 <= samples and the
    samples * N steps of scoring every draw fit the work budget."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples * N > budget:
        raise BudgetExceeded(f"sampled {name} of {samples} draws needs "
                             f"{samples * N} steps (budget {budget})")


def correlation_sampled(E: BinarySequence, order: int, samples: int,
                        seed: int = DEFAULT_SEED,
                        budget: int = DEFAULT_BUDGET) -> MeasureResult:
    """Lower bound on C_l from `samples` uniformly drawn lag tuples, drawn
    first and then scored exactly over all windows by the engine, which
    skips the draws that `_draw_bounds` rules out.  The witness is the
    first window of the smallest achieving drawn lag tuple.
    Deterministic for a fixed seed; exact when samples reaches the
    number of lag tuples, which `correlation` then computes.  Refuses
    when samples * N exceeds the work budget, which also bounds that
    exact pass."""
    t0 = time.perf_counter()
    _check_order(E, order)
    N = E.n
    _check_samples(f"C_{order}", samples, N, budget)
    if samples >= comb(N - 1, order - 1):
        exact = correlation(E, order, budget)
        value, (D, M) = exact.value, exact.witness
    else:
        rng = SplitMix64(seed)
        R = np.array([(0,) + rng.lag_tuple(N, order)
                      for _ in range(samples)], dtype=np.intp)
        value, (_, D, M) = _sampled(_views([E]), np.zeros_like(R), R)
    return MeasureResult("C", order, value, (D, M), method="sampled",
                         samples=samples, seed=seed,
                         elapsed=time.perf_counter() - t0)


def _check_family(family, order: int):
    """Validate a family for Phi_order; returns rep, rep[i] being the
    index of member i's first equal member.  The exact engine runs on
    those first equal members only: swapping a member of a tuple for its
    first equal one keeps the product and the admissibility and lowers
    the index tuple, so the value is unchanged and the smallest witness
    already uses first equal members."""
    if not family:
        raise ValueError("empty family")
    if order < 1:
        raise ValueError("order must be >= 1")
    N = family[0].n
    if any(s.n != N for s in family):
        raise ValueError("family members must share one length")
    arrays = [s.array() for s in family]
    rep = [next(j for j, b in enumerate(arrays) if np.array_equal(a, b))
           for a in arrays]
    # equal sequences must not share a lag, so each distinct member
    # offers N (member, lag) pairs to a tuple
    distinct = len(set(rep))
    if order > distinct * N:
        raise ValueError(
            f"no admissible Phi_{order} tuple: order exceeds {distinct} "
            f"distinct member(s) x length {N}")
    return rep


def cross_correlation(family, order: int,
                      budget: int = DEFAULT_BUDGET) -> MeasureResult:
    """Exact Phi_l of a family: max |V_l| over all l-tuples of members
    (with repetition) and nondecreasing lag tuples, excluding choices
    where two equal sequences share a lag.  The engine scores those that
    the block bounds of `_bounded` cannot rule out, in batches that span
    member tuples, over the distinct members only (see `_check_family`).
    The witness (member indices 1-based, D, M) is lexicographically
    smallest.  Refuses orders above MAX_ORDER, and then when m^l *
    C(N + l - 2, l - 1) * N exceeds the work budget, m counting every
    member of the family.
    """
    t0 = time.perf_counter()
    family = list(family)
    rep = _check_family(family, order)
    N = family[0].n
    _check_exact(f"Phi_{order}", order, lambda: len(family)**order
                 * comb(N + order - 2, order - 1) * N, budget)
    firsts = sorted(set(rep))
    value, (idxs, D, M) = _exact(_views([family[i] for i in firsts]), order)
    return MeasureResult("Phi", order, value,
                         (tuple(firsts[i - 1] + 1 for i in idxs), D, M),
                         elapsed=time.perf_counter() - t0)


def cross_correlation_sampled(family, order: int, samples: int,
                              seed: int = DEFAULT_SEED,
                              budget: int = DEFAULT_BUDGET) -> MeasureResult:
    """Lower bound on Phi_l from uniformly drawn (member tuple, lag tuple)
    pairs, drawn first and then scored exactly over all windows by the
    engine, which skips the draws that `_draw_bounds` rules out; draws
    that break the distinct-lag rule are redrawn.  The witness is the
    first window of the smallest achieving draw, and the result is
    deterministic for a fixed seed.  Raises BudgetExceeded before any
    draw when samples * N exceeds the work budget, and after MAX_REDRAWS
    rejected draws in a row, which happens only when admissible tuples
    are very rare (an order close to the distinct members times N)."""
    t0 = time.perf_counter()
    family = list(family)
    rep = _check_family(family, order)
    m, N = len(family), family[0].n
    _check_samples(f"Phi_{order}", samples, N, budget)
    rng = SplitMix64(seed)
    draws = []
    for _ in range(samples):
        for _ in range(MAX_REDRAWS):
            idxs = tuple(rng.below(m) for _ in range(order))
            rel = (0,) + tuple(sorted(rng.below(N)
                                      for _ in range(order - 1)))
            # equal members share a lag iff two (rep, lag) pairs coincide
            if len({(rep[i], d) for i, d in zip(idxs, rel)}) == order:
                break
        else:
            raise BudgetExceeded(
                f"sampled Phi_{order}: {MAX_REDRAWS} draws in a row "
                f"broke the distinct-lag rule, so admissible tuples are "
                f"too rare to sample; use the exact method "
                f"(cross_correlation, --method exact)")
        draws.append((idxs, rel))
    I, R = np.array(draws, dtype=np.intp).transpose(1, 0, 2)
    value, witness = _sampled(_views(family), I, R)
    return MeasureResult("Phi", order, value, witness, method="sampled",
                         samples=samples, seed=seed,
                         elapsed=time.perf_counter() - t0)


def oracle_well_distribution(E: BinarySequence) -> MeasureResult:
    """Direct triple loop over the definition of W; tests only."""
    if E.n > _ORACLE_LIMIT:
        raise ValueError(f"oracle limited to N <= {_ORACLE_LIMIT}")
    N = E.n
    value, witness = -1, None
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
    value, witness = -1, None
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
