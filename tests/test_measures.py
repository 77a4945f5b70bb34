"""Measure engines: exact values, witnesses, oracles, sampling."""

from bisect import bisect_right
from itertools import (combinations, combinations_with_replacement, islice,
                       product)
from math import comb, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legseq import measures
from legseq.constructions import BinarySequence, construct_single
from legseq.ff import Poly, is_prime
from legseq.tables import example_triple
from legseq.measures import (DEFAULT_SEED, BudgetExceeded, SplitMix64,
                             _range_windows, correlation, correlation_sampled,
                             cross_correlation,
                             cross_correlation_sampled, evaluate_corr_witness,
                             evaluate_cross_witness, evaluate_w_witness,
                             oracle_correlation, oracle_well_distribution,
                             well_distribution)

seq_strategy = st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=40) \
    .map(lambda v: BinarySequence(tuple(v)))


def rand_seq(rng, n):
    return BinarySequence(tuple(int(v) for v in rng.choice((-1, 1), size=n)))


def brute_cross(family, order):
    return brute_cross_witness(family, order)[0]


def brute_cross_witness(family, order):
    """Definitional Phi oracle: enumerate member tuples, nondecreasing D
    and window lengths M directly, in lexicographic order, and keep the
    first maximum.  Returns (value, witness), the witness (member indices
    1-based, D, M) being the lexicographically smallest."""
    N = family[0].n
    m = len(family)
    best, witness = -1, None
    for idxs in product(range(m), repeat=order):
        for D in combinations_with_replacement(range(N), order):
            bad = any(
                family[idxs[i]].values == family[idxs[j]].values
                and D[i] == D[j]
                for i in range(order) for j in range(i + 1, order))
            if bad:
                continue
            s = 0
            for M in range(1, N - D[-1] + 1):
                prod = 1
                for i, d in zip(idxs, D):
                    prod *= family[i][M + d - 1]
                s += prod
                if abs(s) > best:
                    best = abs(s)
                    witness = (tuple(i + 1 for i in idxs), D, M)
    return best, witness


def walk_range(values):
    """max - min of the prefix walk of values, with its leading 0."""
    s = lo = hi = 0
    for v in values:
        s += v
        lo, hi = min(lo, s), max(hi, s)
    return hi - lo


def reference_products(arrays, rel):
    n = len(arrays[0]) - rel[-1]
    a = arrays[0][:n]
    for arr, d in zip(arrays[1:], rel[1:]):
        a = a * arr[d: n + d]
    return a


def reference_scan(arrays, tuples):
    """The per-tuple exact loop that the batched engine replaced: one
    product, cumsum and range per (idxs, rel) in enumeration order, then
    the smallest (indices 1-based, D, M) over the achieving tuples.
    Returns (value, witness, achieving)."""
    value, achieving = -1, []
    for idxs, rel in tuples:
        P = np.cumsum(reference_products([arrays[i] for i in idxs], rel))
        v = max(int(P.max()), 0) - min(int(P.min()), 0)
        if v > value:
            value, achieving = v, [(idxs, rel)]
        elif v == value:
            achieving.append((idxs, rel))
    witness = None
    for idxs, rel in achieving:
        a = reference_products([arrays[i] for i in idxs], rel)
        start, M = reference_first_window(np.concatenate([[0], np.cumsum(a)]),
                                          value)
        cand = (tuple(i + 1 for i in idxs), tuple(start + d for d in rel), M)
        witness = cand if witness is None else min(witness, cand)
    return value, witness, achieving


def reference_correlation(E, order):
    """Exact C_l by the per-tuple loop over strictly increasing lags."""
    value, (_, D, M), achieving = reference_scan([E.array()], (
        ((0,) * order, (0,) + lags)
        for lags in combinations(range(1, E.n), order - 1)))
    return value, (D, M), achieving


def reference_cross(family, order):
    """Exact Phi_l by the per-tuple loop over member tuples and
    nondecreasing lags, skipping equal members on one lag."""
    def admissible(idxs, rel):
        return not any(family[idxs[i]].values == family[idxs[j]].values
                       and rel[i] == rel[j]
                       for i in range(order) for j in range(i + 1, order))

    tuples = ((idxs, (0,) + rel)
              for idxs in product(range(len(family)), repeat=order)
              for rel in combinations_with_replacement(range(family[0].n),
                                                       order - 1))
    return reference_scan([s.array() for s in family],
                          (t for t in tuples if admissible(*t)))


def batch_rows(rows, N):
    """Patch the engine's cell cap so a batch holds `rows` lag tuples of
    length-N members; None keeps the default cap."""
    cells = measures.CELLS if rows is None else rows * N
    return mock.patch.object(measures, "CELLS", cells)


def reference_first_window(prefix, value):
    """Smallest (start, length) with |prefix[start+length] - prefix[start]|
    equal to value, by start then length, for any value; None when no
    window attains it.  A dict-and-bisect search that shares no code with
    the engine's finder."""
    levels = {}
    for i, v in enumerate(prefix):
        levels.setdefault(int(v), []).append(i)
    for i in range(len(prefix) - 1):
        base = int(prefix[i])
        best_j = None
        for target in (base + value, base - value):
            idxs = levels.get(target)
            if not idxs:
                continue
            k = bisect_right(idxs, i)
            if k < len(idxs) and (best_j is None or idxs[k] < best_j):
                best_j = idxs[k]
        if best_j is not None:
            return i, best_j - i
    return None


def reference_well_distribution(E):
    """Unpruned W: the range of every residue class of every step
    b = 1..N, then the smallest (b, a, t) witness.  O(N^2)."""
    e = E.array()
    N = E.n

    def class_walks(b):
        m = -(-N // b)
        pad = np.zeros(m * b, dtype=np.int64)
        pad[:N] = e
        return np.vstack([np.zeros((1, b), dtype=np.int64),
                          np.cumsum(pad.reshape(m, b), axis=0)])

    per_b = {}
    for b in range(1, N + 1):
        P = class_walks(b)
        per_b[b] = int((P.max(axis=0) - P.min(axis=0)).max())
    value = max(per_b.values())
    b_star = min(b for b, v in per_b.items() if v == value)
    P = class_walks(b_star)
    best = None
    for c in range(b_star):
        k = (N - c + b_star - 1) // b_star
        hit = reference_first_window(P[: k + 1, c], value)
        if hit is not None:
            i, t = hit
            cand = (c + 1 + (i - 1) * b_star, t)
            best = cand if best is None else min(best, cand)
    a, t = best
    return value, (a, b_star, t)


def random_legendre_seq(rng, lo, hi):
    """Legendre sequence of a random polynomial of degree 1..4 modulo a
    random prime in [lo, hi]."""
    p = int(rng.integers(lo, hi))
    while not is_prime(p):
        p += 1
    deg = int(rng.integers(1, 5))
    coeffs = [int(c) for c in rng.integers(0, p, size=deg)] \
        + [int(rng.integers(1, p))]
    return construct_single(Poly.make(coeffs, p))


# --- witness finder --------------------------------------------------------


def test_range_window_matches_reference_search(rng):
    # batches of walks with zero tails of random lengths, which repeat
    # the last prefix, as the engine's and W's rows do
    for _ in range(200):
        n = int(rng.integers(1, 61))
        steps = rng.choice((-1, 1), size=(30, n))
        steps[np.arange(n) >= rng.integers(1, n + 1, size=(30, 1))] = 0
        P = np.pad(np.cumsum(steps, axis=1), ((0, 0), (1, 0)))
        spans = P.max(axis=1) - P.min(axis=1)
        for value in np.unique(spans).tolist():
            rows = P[spans == value]
            start, length = _range_windows(rows, value)
            for row, s, t in zip(rows, start.tolist(), length.tolist()):
                assert (s, t) == reference_first_window(row, value)


def test_range_window_short_and_unattained():
    assert [w.tolist() for w in _range_windows(
        np.array([[0, 1, 0, -1, -1, -1], [0, -1, 0, 1, 0, -1]]), 2)] \
        == [[1, 1], [2, 2]]
    # fewer than two points, a value no window reaches, or one row short
    for P, value in (([[5]], 0), ([[0, 0]], 0), ([[0, 1, 0]], 2),
                     ([[0, 1, 0, -1], [0, 1, 0, 1]], 2)):
        with pytest.raises(ValueError):
            _range_windows(np.array(P), value)


def test_range_window_refuses_value_below_range():
    with pytest.raises(ValueError):
        _range_windows(np.array([[0, 1, 2, 1]]), 1)


# --- well-distribution -----------------------------------------------------


def test_w_all_ones():
    res = well_distribution(BinarySequence((1, 1, 1, 1)))
    assert res.value == 4
    assert res.witness == (0, 1, 4)  # (a, b, t)


def test_w_alternating():
    res = well_distribution(BinarySequence((1, -1, 1, -1)))
    assert res.value == 2
    # b=2 picks out the +1 entries; a = 1 - b is the least admissible start
    assert res.witness == (-1, 2, 2)


def test_w_witness_reevaluates(rng):
    for _ in range(30):
        E = rand_seq(rng, int(rng.integers(4, 50)))
        res = well_distribution(E)
        a, b, t = res.witness
        assert evaluate_w_witness(E, a, b, t) == res.value


def test_w_matches_oracle(rng):
    for _ in range(40):
        E = rand_seq(rng, int(rng.integers(4, 40)))
        assert well_distribution(E).value == oracle_well_distribution(E).value


def test_w_witness_is_lex_smallest(rng):
    for _ in range(20):
        E = rand_seq(rng, int(rng.integers(4, 30)))
        fast = well_distribution(E)
        slow = oracle_well_distribution(E)
        # oracle tracks the same (b, a, t) ordering
        a, b, t = fast.witness
        oa, ob, ot = slow.witness
        assert (b, a, t) == (ob, oa, ot)


@given(seq_strategy)
@settings(max_examples=40)
def test_w_invariant_under_negation_and_reversal(E):
    v = well_distribution(E).value
    assert well_distribution(-E).value == v
    rev = BinarySequence(E.values[::-1])
    assert well_distribution(rev).value == v


def test_w_pruned_matches_unpruned_scan_short():
    # every sequence up to length 10, where a class one term longer than
    # N // b decides the value, e.g. (+1, -1, +1) at b = 2
    for n in range(1, 11):
        for vals in product((-1, 1), repeat=n):
            E = BinarySequence(vals)
            res = well_distribution(E)
            assert (res.value, res.witness) \
                == reference_well_distribution(E)


def test_w_pruned_matches_unpruned_scan_random(rng):
    for _ in range(6):
        E = rand_seq(rng, int(rng.integers(200, 3001)))
        res = well_distribution(E)
        assert (res.value, res.witness) == reference_well_distribution(E)


def test_w_pruned_matches_unpruned_scan_legendre(rng):
    for _ in range(6):
        E = random_legendre_seq(rng, 200, 3000)
        res = well_distribution(E)
        assert (res.value, res.witness) == reference_well_distribution(E)


def test_w_threads_agree(rng):
    for _ in range(10):
        E = rand_seq(rng, int(rng.integers(10, 80)))
        a = well_distribution(E, threads=1)
        b = well_distribution(E, threads=3)
        assert (a.value, a.witness) == (b.value, b.witness)


# --- correlation -----------------------------------------------------------


def test_c2_all_ones():
    res = correlation(BinarySequence((1,) * 5), 2)
    assert res.value == 4
    assert res.witness == ((0, 1), 4)


def test_c2_alternating():
    # lag-1 products are all -1
    res = correlation(BinarySequence((1, -1, 1, -1, 1)), 2)
    assert res.value == 4


def test_corr_rejects_bad_order():
    E = BinarySequence((1, -1, 1, -1))
    with pytest.raises(ValueError):
        correlation(E, 1)
    with pytest.raises(ValueError):
        correlation(E, 4)


def test_corr_budget_refusal():
    E = BinarySequence((1, -1) * 20)
    with pytest.raises(BudgetExceeded):
        correlation(E, 3, budget=100)


def test_corr_witness_reevaluates(rng):
    for order in (2, 3):
        for _ in range(20):
            E = rand_seq(rng, int(rng.integers(order + 2, 40)))
            res = correlation(E, order)
            D, M = res.witness
            assert evaluate_corr_witness(E, D, M) == res.value


def test_corr_matches_oracle(rng):
    for _ in range(25):
        E = rand_seq(rng, int(rng.integers(5, 30)))
        for order in (2, 3):
            fast = correlation(E, order)
            slow = oracle_correlation(E, order)
            assert fast.value == slow.value
            assert fast.witness == slow.witness


@given(seq_strategy)
@settings(max_examples=40)
def test_corr_invariant_under_negation(E):
    assert correlation(E, 2).value == correlation(-E, 2).value


@given(seq_strategy)
@settings(max_examples=40)
def test_corr_bounded_by_length(E):
    assert 0 < correlation(E, 2).value <= E.n


def test_corr_threads_agree(rng):
    for _ in range(10):
        E = rand_seq(rng, int(rng.integers(8, 60)))
        for order in (2, 3):
            a = correlation(E, order, threads=1)
            b = correlation(E, order, threads=4)
            assert (a.value, a.witness) == (b.value, b.witness)


# --- sampled correlation ---------------------------------------------------


def test_sampled_deterministic(rng):
    E = rand_seq(rng, 200)
    a = correlation_sampled(E, 2, 50, seed=99)
    b = correlation_sampled(E, 2, 50, seed=99)
    assert (a.value, a.witness) == (b.value, b.witness)


def test_sampled_lower_bounds_exact(rng):
    for _ in range(15):
        E = rand_seq(rng, int(rng.integers(10, 60)))
        exact = correlation(E, 2).value
        for seed in (1, 2, DEFAULT_SEED):
            assert correlation_sampled(E, 2, 5, seed=seed).value <= exact


def test_sampled_exhaustion_equals_exact(rng):
    E = rand_seq(rng, 20)
    exact = correlation(E, 2)
    res = correlation_sampled(E, 2, 10_000)  # covers all 19 lag tuples
    assert res.value == exact.value
    assert res.method == "sampled"


def test_sampled_witness_reevaluates(rng):
    E = rand_seq(rng, 120)
    res = correlation_sampled(E, 3, 40, seed=7)
    D, M = res.witness
    assert evaluate_corr_witness(E, D, M) == res.value


# --- cross-correlation -----------------------------------------------------


def test_phi_constant_opposite_pair():
    F = BinarySequence((1,) * 4)
    G = BinarySequence((-1,) * 4)
    res = cross_correlation([F, G], 2)
    assert res.value == 4
    assert res.witness == ((1, 2), (0, 0), 4)


def test_phi_order_one_is_max_prefix_abs():
    F = BinarySequence((1, 1, -1, 1, 1))
    res = cross_correlation([F], 1)
    # max |sum of a window| of the single member
    assert res.value == 3
    assert res.value <= well_distribution(F).value


def test_phi_matches_brute_force(rng):
    for _ in range(12):
        N = int(rng.integers(6, 11))
        fam = [rand_seq(rng, N) for _ in range(3)]
        for order in (1, 2):
            assert cross_correlation(fam, order).value \
                == brute_cross(fam, order)


def test_phi_single_repeated_member_matches_correlation(rng):
    # family {F} at order 2: lags must differ, so Phi_2 = C_2
    for _ in range(10):
        F = rand_seq(rng, int(rng.integers(8, 20)))
        assert cross_correlation([F], 2).value == correlation(F, 2).value


def test_phi_witness_reevaluates(rng):
    for _ in range(10):
        N = int(rng.integers(6, 14))
        fam = [rand_seq(rng, N) for _ in range(2)]
        res = cross_correlation(fam, 2)
        idxs, D, M = res.witness
        assert evaluate_cross_witness(fam, idxs, D, M) == res.value


def test_phi_validation():
    with pytest.raises(ValueError):
        cross_correlation([], 2)
    with pytest.raises(ValueError):
        cross_correlation([BinarySequence((1, 1))], 0)
    with pytest.raises(ValueError):
        cross_correlation(
            [BinarySequence((1, 1)), BinarySequence((1, 1, 1))], 2)
    with pytest.raises(BudgetExceeded):
        cross_correlation([BinarySequence((1, -1) * 64)] * 4, 4, budget=10)


def test_phi_sampled_deterministic_and_bounded(rng):
    fam = [rand_seq(rng, 30) for _ in range(3)]
    exact = cross_correlation(fam, 2).value
    a = cross_correlation_sampled(fam, 2, 25, seed=5)
    b = cross_correlation_sampled(fam, 2, 25, seed=5)
    assert (a.value, a.witness) == (b.value, b.witness)
    assert a.value <= exact
    idxs, D, M = a.witness
    assert evaluate_cross_witness(fam, idxs, D, M) == a.value


def test_phi_sampled_respects_distinct_lag_rule(rng):
    # two identical members: drawn witnesses must never share a lag
    F = rand_seq(rng, 16)
    fam = [F, BinarySequence(F.values)]
    res = cross_correlation_sampled(fam, 2, 60, seed=3)
    idxs, D, M = res.witness
    assert evaluate_cross_witness(fam, idxs, D, M) == res.value


# --- witness evaluators reject malformed input -----------------------------


def test_witness_evaluator_validation():
    E = BinarySequence((1, -1, 1, -1))
    with pytest.raises(ValueError):
        evaluate_w_witness(E, 0, 2, 3)  # runs past N
    with pytest.raises(ValueError):
        evaluate_corr_witness(E, (1, 0), 2)  # not increasing
    with pytest.raises(ValueError):
        evaluate_corr_witness(E, (0, 2), 3)  # M + d_l > N
    with pytest.raises(ValueError):
        evaluate_cross_witness([E, E], (1, 2), (1, 1), 2)  # shared lag


def test_oracle_size_limits():
    big = BinarySequence((1,) * 65)
    with pytest.raises(ValueError):
        oracle_well_distribution(big)
    with pytest.raises(ValueError):
        oracle_correlation(big, 2)


# --- tie-breaks --------------------------------------------------------------


def test_phi_witness_matches_brute_force(rng):
    # up to 3 members drawn from 2 sequences, so repeated members are common
    for _ in range(25):
        N = int(rng.integers(1, 11))
        pool = [rand_seq(rng, N) for _ in range(2)]
        fam = [pool[int(i)] for i in rng.integers(0, 2, rng.integers(1, 4))]
        distinct = len({s.values for s in fam})
        for order in (1, 2, 3):
            if order > distinct * N:
                continue
            res = cross_correlation(fam, order)
            assert (res.value, res.witness) == brute_cross_witness(fam, order)


def seq_of(signs):
    return BinarySequence(tuple(1 if c == "+" else -1 for c in signs))


def test_sampled_c_tie_picks_smallest_lags():
    # each seed draws two lag tuples of the largest range, the larger
    # first: seed 12 lag 4 before lag 1, of range 7, and at order 3 seed
    # 38 lags (4, 11) before (2, 14), of range 5, which the engine also
    # scores first, as its last lag is smaller
    for signs, order, seed in (("++-+---+-++-+--+++-+-", 2, 12),
                               ("++----+-+++--+-+++-++", 3, 38)):
        E, samples = seq_of(signs), 8
        rng = SplitMix64(seed)
        draws = [rng.lag_tuple(E.n, order) for _ in range(samples)]
        ranges = [walk_range(prod(E[i + d] for d in (0,) + lags)
                             for i in range(E.n - lags[-1]))
                  for lags in draws]
        ties = [lags for lags, v in zip(draws, ranges) if v == max(ranges)]
        assert len(ties) >= 2 and ties[0] != min(ties)
        if order == 3:
            assert min(ties, key=lambda lags: lags[-1]) != min(ties)
        res = correlation_sampled(E, order, samples, seed=seed)
        D, M = res.witness
        assert res.value == max(ranges)
        assert tuple(d - D[0] for d in D[1:]) == min(ties)
        assert evaluate_corr_witness(E, D, M) == res.value


def test_sampled_phi_tie_picks_smallest_draw():
    # distinct members, so a draw is rejected only when one member
    # repeats on one lag.  Each seed draws two ties of the largest range,
    # the larger first: seed 12 members (1, 0) at lags (0, 5) before
    # members (0, 0) at lags (0, 7), of range 2, and seed 2 members
    # (0, 1) at lags (0, 6) before the same members at lags (0, 3), of
    # range 3
    fam = [seq_of("+--+-++-+"), seq_of("-++--+-++")]
    samples, order, m, N = 6, 2, 2, 9
    for seed in (12, 2):
        rng = SplitMix64(seed)
        draws = []
        while len(draws) < samples:
            idxs = tuple(rng.below(m) for _ in range(order))
            rel = (0,) + tuple(sorted(rng.below(N)
                                      for _ in range(order - 1)))
            if not (idxs[0] == idxs[1] and rel[0] == rel[1]):
                draws.append((idxs, rel))
        ranges = [walk_range(fam[i][n + a] * fam[j][n + b]
                             for n in range(N - b))
                  for (i, j), (a, b) in draws]
        ties = [d for d, v in zip(draws, ranges) if v == max(ranges)]
        assert len(ties) >= 2 and ties[0] != min(ties)
        res = cross_correlation_sampled(fam, order, samples, seed=seed)
        idxs, D, M = res.witness
        assert res.value == max(ranges)
        assert (tuple(i - 1 for i in idxs), tuple(d - D[0] for d in D)) \
            == min(ties)
        assert evaluate_cross_witness(fam, idxs, D, M) == res.value


# --- batched engine against the per-tuple loop -------------------------------


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_engine_matches_per_tuple_loop_correlation(data):
    order = data.draw(st.sampled_from([2, 3]))
    vals = data.draw(st.lists(st.sampled_from([-1, 1]),
                              min_size=order + 1, max_size=300))
    rows = data.draw(st.sampled_from([1, 7, None]))
    E = BinarySequence(tuple(vals))
    with batch_rows(rows, E.n):
        res = correlation(E, order)
        phi = cross_correlation([E], order)
    value, witness, _ = reference_correlation(E, order)
    assert (res.value, res.witness) == (value, witness)
    assert phi.value == res.value and phi.witness[1:] == res.witness


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_engine_matches_per_tuple_loop_cross(data):
    N = data.draw(st.integers(1, 14))
    pool = data.draw(st.lists(
        st.lists(st.sampled_from([-1, 1]), min_size=N, max_size=N),
        min_size=1, max_size=3))
    fam = [BinarySequence(tuple(pool[i])) for i in data.draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=1, max_size=3))]
    order = data.draw(st.integers(1, 4))
    distinct = len({s.values for s in fam})
    rows = data.draw(st.sampled_from([1, 5, None]))
    if order > distinct * N:
        return
    with batch_rows(rows, N):
        res = cross_correlation(fam, order)
    value, witness, _ = reference_cross(fam, order)
    assert (res.value, res.witness) == (value, witness)


def test_engine_ties_across_batches():
    # lags 2 and 4 both reach 8, and lag 4, in the later batch, has the
    # smaller witness
    E = seq_of("+-+-+-+--++--++-")
    value, witness, achieving = reference_correlation(E, 2)
    assert [rel for _, rel in achieving] == [(0, 2), (0, 4)]
    assert witness == ((0, 4), 12)
    for rows in (1, None):
        with batch_rows(rows, E.n):
            res = correlation(E, 2)
        assert (res.value, res.witness) == (value, witness)


def test_engine_skips_member_tuple_with_every_lag_masked():
    # at N = 1 every lag is 0, so (F, F) has no admissible lag tuple
    F, G = BinarySequence((1,)), BinarySequence((-1,))
    res = cross_correlation([F, F, G], 2)
    value, witness, _ = reference_cross([F, F, G], 2)
    assert (res.value, res.witness) == (value, witness) == (1, ((1, 3),
                                                              (0, 0), 1))


# --- the lag-tuple enumerator ------------------------------------------------


def reference_lag_tuples(eq, N, order):
    """A reference enumerator that shares no code with `_lag_tuples`: each
    member tuple in lexicographic order with its admissible nondecreasing
    lag tuples starting with 0, from combinations_with_replacement, as
    (I, R) batches of at most max(1, CELLS // N) rows of one member
    tuple."""
    step = max(1, measures.CELLS // N)
    for idxs in product(range(len(eq)), repeat=order):
        R = np.array([(0,) + rel for rel in combinations_with_replacement(
            range(N), order - 1)], dtype=np.intp)
        for i, j in combinations(range(order), 2):
            if eq[idxs[i]][idxs[j]]:
                R = R[R[:, i] != R[:, j]]
        for r in range(0, len(R), step):
            yield np.broadcast_to(idxs, R[r:r + step].shape), R[r:r + step]


def lag_bound_chunks(family, order):
    """(I, R, lb, ub) of each chunk of `_lag_bounds`, over the candidate
    (member tuple, lag tuple) rows of upper bound at least 0, the
    filter's best before any pruning, after checking that each block of
    prefixes from `_lag_tuples` is nonempty, sorted by last lag and
    within its row cap, and that each chunk holds at most CELLS words or
    one lag."""
    N = family[0].n
    eq = [[a.values == b.values for b in family] for a in family]
    for I, R in measures._lag_tuples(eq, N, order):
        assert 1 <= len(R) <= measures._rows(0, max(1, order - 1), order)
        assert (np.diff(R.max(axis=1, initial=0)) >= 0).all()
    for I, R, d, lb, ub in measures._lag_bounds(measures._views(family), eq,
                                                order):
        assert len(d) == 1 or ub.size * -(-(N - d[0]) // 64) \
            <= measures.CELLS
        j, p, i = np.nonzero(ub >= 0)
        yield (np.column_stack((I[p], i)), np.column_stack((R[p], d[j])),
               lb[j, p, i], ub[j, p, i])


def assert_enumerates_each_admissible_tuple_once(family, order):
    """The filter's candidates before pruning are the reference's
    (member tuple, lag tuple) rows, each exactly once."""
    rows = [row for I, R, _, _ in lag_bound_chunks(family, order)
            for row in zip(map(tuple, I.tolist()), map(tuple, R.tolist()))]
    eq = [[a.values == b.values for b in family] for a in family]
    expected = [row for I, R in reference_lag_tuples(eq, family[0].n, order)
                for row in zip(map(tuple, I.tolist()), map(tuple, R.tolist()))]
    assert sorted(rows) == sorted(expected)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lag_tuples_enumerate_each_admissible_tuple_once(data):
    N = data.draw(st.integers(1, 12))
    fam = sign_family(data, N)
    order = data.draw(st.integers(1, 4))
    cells = data.draw(st.sampled_from([1, 64, measures.CELLS]))
    with mock.patch.object(measures, "CELLS", cells):
        assert_enumerates_each_admissible_tuple_once(fam, order)


@pytest.mark.parametrize("cells", [1, 64, measures.CELLS])
@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("shape", ["FG", "FGF", "GFF"])
def test_lag_tuples_keep_distant_equal_members_apart(rng, shape, order,
                                                      cells):
    # two distinct members offer the member tuple (F, G, F), whose lags
    # (d, d, d) put F twice on one lag two positions apart: the random
    # family of the hypothesis test above has two distinct members only
    # sometimes
    N = int(rng.integers(2, 9))
    F = rand_seq(rng, N)
    G = -F
    fam = [{"F": F, "G": G}[c] for c in shape]
    with mock.patch.object(measures, "CELLS", cells):
        assert_enumerates_each_admissible_tuple_once(fam, order)


@pytest.mark.parametrize("cells", [1, 64, measures.CELLS])
def test_lag_tuples_at_the_edges(cells):
    F, G = BinarySequence((1, -1)), BinarySequence((-1, -1))
    with mock.patch.object(measures, "CELLS", cells):
        # at N = 1 every lag is 0, so (F, F) has no admissible lag tuple
        for order in (1, 2):
            assert_enumerates_each_admissible_tuple_once(
                [BinarySequence((1,)), BinarySequence((1,)),
                 BinarySequence((-1,))], order)
        # members (F, G, F) at lags (0, 0, 0) put F twice on one lag,
        # two positions apart
        assert_enumerates_each_admissible_tuple_once([F, G], 3)
        rows = [(i, r) for I, R, _, _ in lag_bound_chunks([F, G], 3)
                for i, r in zip(I.tolist(), R.tolist())]
        assert ([0, 1, 0], [0, 0, 0]) not in rows
        assert ([0, 1, 0], [0, 0, 1]) in rows
        # the last lag runs up to N - 1
        for order in (1, 2, 3, 4):
            assert_enumerates_each_admissible_tuple_once([F, G, F], order)


def test_lag_tuples_hold_one_bounded_block_per_level(rng):
    # exact C_9 at N = 40 has 6.1e7 lag tuples, whose first 8 positions
    # take 1.5e7 rows: depth first, the filter's first batches come after
    # one block per level of prefixes past the first, each member at lag 0
    seen, extend = [], measures._extend

    def spy(*args):
        for block in extend(*args):
            seen.append((block[1].shape[1], len(block[1])))
            yield block

    views = measures._views([rand_seq(rng, 40)])
    with mock.patch.object(measures, "_extend", spy):
        batches = islice(measures._bounded(views, [[True]], 9), 200)
        assert sum(1 for _ in batches) == 200
    assert {k for k, _ in seen} == set(range(2, 9))
    assert all(rows <= measures._rows(0, k, 9) for k, rows in seen)
    assert len(seen) < 1000


def test_orders_close_to_the_most_admissible_finish(rng):
    # C_39 at N = 40 has only 39 lag tuples, but 2^39 strictly increasing
    # prefixes: a prefix is extended only while its remaining positions
    # still fit before lag N - 1
    E = rand_seq(rng, 40)
    for order in (39, 38):
        res, ref = correlation(E, order), oracle_correlation(E, order)
        assert (res.value, res.witness) == (ref.value, ref.witness)
    # two distinct members offer two (member, lag) pairs per lag, so
    # Phi_6 at N = 3 puts both members on every lag
    fam = [seq_of("+-+"), seq_of("++-"), seq_of("+-+")]
    for order in (6, 5):
        res = cross_correlation(fam, order)
        assert (res.value, res.witness) == brute_cross_witness(fam, order)


def test_exact_order_above_max_order_refused():
    # the budget admits C_1025 at N = 1026, which has only 1025 lag tuples
    E = BinarySequence((1, -1) * 513)
    with pytest.raises(BudgetExceeded):
        correlation(E, measures.MAX_ORDER + 1)


def scanned_batches(fn):
    """(rows, width n, sum of the rows' own overlaps N - d_last) of every
    batch that `_products` multiplies out during fn()."""
    seen, products = [], measures._products

    def spy(views, I, R):
        N = views.shape[2]
        seen.append((len(R), N - int(R[:, -1].min()),
                     int((N - R[:, -1]).sum())))
        return products(views, I, R)

    with mock.patch.object(measures, "_products", spy):
        fn()
    return seen


def test_batches_scan_each_rows_own_overlap(rng):
    # rows of one batch share nearly one last lag, so the batch's width
    # is close to each row's own overlap, and no batch passes the row cap
    E = rand_seq(rng, 300)
    fam = [rand_seq(rng, 40) for _ in range(3)]
    for fn in (lambda: correlation(E, 3), lambda: cross_correlation(fam, 3)):
        seen = scanned_batches(fn)
        assert sum(r * n for r, n, _ in seen) \
            <= 1.25 * sum(own for _, _, own in seen)
        assert max(r for r, _, _ in seen) <= measures._rows(0, 3, 3)


# --- block bounds of the last lag -------------------------------------------


def unfiltered_exact(family, order):
    """Exact (value, witness) of Phi_order from the reference lag stream,
    as before the block filter: every member tuple and every admissible
    lag tuple is scored."""
    views = measures._views(family)
    eq = [[a.values == b.values for b in family] for a in family]
    value, hits = measures._score(
        views, reference_lag_tuples(eq, family[0].n, order))
    return value, min(map(measures._window, hits.tolist()))


def reference_walk_ranges(family, I, R):
    """Walk range of each row r, with its leading 0: the product over k
    of member I[r, k] from entry R[r, k] on, over the overlap
    N - R[r, -1]."""
    N = family[0].n
    A = np.array([s.values for s in family], dtype=np.int8)
    t = np.arange(N)
    steps = np.prod(A[I[:, :, None], np.minimum(R[:, :, None] + t, N - 1)],
                    axis=1, dtype=np.int8)
    steps[t >= N - R[:, -1:]] = 0
    P = np.cumsum(steps, axis=1, dtype=np.int32)
    return np.maximum(P.max(axis=1), 0) - np.minimum(P.min(axis=1), 0)


def assert_lag_bounds_enclose(family, order):
    """lb <= walk range <= ub for every (prefix, last member, last lag)
    that `_lag_bounds` bounds."""
    for I, R, lb, ub in lag_bound_chunks(family, order):
        r = reference_walk_ranges(family, I, R)
        bad = (lb > r) | (r > ub)
        assert not bad.any(), (I[bad][0], R[bad][0])


lengths = st.one_of(st.integers(1, 700),
                    st.sampled_from([63, 64, 65, 127, 128, 129, 640]))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_block_bounds_enclose_every_walk_range(data):
    N = data.draw(lengths)
    x, y = (data.draw(st.lists(st.sampled_from([-1, 1]),
                               min_size=N, max_size=N)) for _ in range(2))
    assert_lag_bounds_enclose(
        [BinarySequence(tuple(x)), BinarySequence(tuple(y))], 2)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lag_bounds_enclose_every_walk_range(data):
    # orders up to 4 at short lengths, and the word edges at the orders
    # whose chunks stay few under a small cell cap
    cells = data.draw(st.sampled_from([1, 64, measures.CELLS]))
    N = data.draw(st.one_of(st.integers(1, 12), st.sampled_from(
        [63, 64, 65, 127, 128, 129])))
    fam = sign_family(data, N)
    order = data.draw(st.integers(
        1, 4 if N <= 12 else 3 if cells == measures.CELLS else 2))
    with mock.patch.object(measures, "CELLS", cells):
        assert_lag_bounds_enclose(fam, order)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_filter_matches_unfiltered_exact(data):
    # exact C_3 up to N = 300, and Phi_3 and Phi_4 up to N = 40 with
    # repeated members, lengths that the oracles cannot reach
    if data.draw(st.booleans()):
        N = data.draw(st.integers(4, 300))
        E = BinarySequence(tuple(data.draw(st.lists(
            st.sampled_from([-1, 1]), min_size=N, max_size=N))))
        res = correlation(E, 3)
        value, (_, D, M) = unfiltered_exact([E], 3)
        assert (res.value, res.witness) == (value, (D, M))
    else:
        N = data.draw(st.integers(1, 40))
        fam = sign_family(data, N)
        order = data.draw(st.sampled_from([3, 4]))
        assume(order <= len({s.values for s in fam}) * N)
        res = cross_correlation(fam, order)
        assert (res.value, res.witness) == unfiltered_exact(fam, order)


def test_exact_c3_at_a_table_prime():
    # example 1's f at p = 2003: the block bounds leave fewer than 1% of
    # the 2 003 001 lag tuples to score, and the value and witness are
    # those of the engine that scored every one
    E = construct_single(example_triple(1, 2003).f)
    res = []
    seen = scanned_batches(lambda: res.append(correlation(E, 3)))
    assert (res[0].value, res[0].witness) == (184, ((49, 161, 318), 1556))
    assert evaluate_corr_witness(E, *res[0].witness) == 184
    assert sum(rows for rows, _, _ in seen) < comb(2002, 2) // 100


def test_block_filter_matches_unfiltered_stream():
    # N = 2503 = 39 * 64 + 7 ends in a partial word; the family repeats E
    E = construct_single(Poly.make((1, 1, 0, 1), 2503))
    F = construct_single(Poly.make((2, 0, 1), 2503))
    res = correlation(E, 2)
    value, (_, D, M) = unfiltered_exact([E], 2)
    assert (res.value, res.witness) == (value, (D, M))
    res = cross_correlation([E, F, E], 2)
    assert (res.value, res.witness) == unfiltered_exact([E, F, E], 2)


def test_exact_filter_keeps_tied_bounds():
    # a constant product walks straight, so lb = ub for every lag tuple,
    # and the achieving ones sit exactly on the best lower bound
    E = BinarySequence((1,) * 130)
    for order in (2, 3, 4):
        res = correlation(E, order)
        assert (res.value, res.witness) \
            == (131 - order, (tuple(range(order)), 131 - order))
    fam = [BinarySequence((1,) * 70), BinarySequence((-1,) * 70)]
    for order in (2, 3):
        res = cross_correlation(fam, order)
        assert (res.value, res.witness) == unfiltered_exact(fam, order)


# --- sampled block bounds ----------------------------------------------------


def unfiltered_sampled(family, order, samples, seed, corr=False):
    """Sampled (value, witness) as before the block filter: the draws of
    correlation_sampled (corr) or of cross_correlation_sampled, the
    latter redrawn while a pair of equal members shares a lag, and every
    draw scored by the engine."""
    views = measures._views(family)
    eq = [[a.values == b.values for b in family] for a in family]
    m, N = len(family), family[0].n
    rng = SplitMix64(seed)

    def draw():
        if corr:
            return (0,) * order, (0,) + rng.lag_tuple(N, order)
        idxs = tuple(rng.below(m) for _ in range(order))
        return idxs, (0,) + tuple(sorted(rng.below(N)
                                         for _ in range(order - 1)))

    draws = []
    for _ in range(samples):
        idxs, rel = draw()
        while any(eq[idxs[i]][idxs[j]] and rel[i] == rel[j]
                  for i, j in combinations(range(order), 2)):
            idxs, rel = draw()
        draws.append((np.array([idxs]), np.array([rel])))
    value, hits = measures._score(views, draws)
    return value, measures._window(min(hits.tolist()))


def word_edge_lags(N):
    """Lags below N, often at d mod 64 in {0, 1, 63}."""
    return st.one_of(st.integers(0, N - 1), st.sampled_from(
        [d for d in range(N) if d % 64 in (0, 1, 63)]))


def sign_family(data, N):
    """1 to 3 members of length N drawn from a pool of 2, so repeated
    members are common."""
    pool = [data.draw(st.lists(st.sampled_from([-1, 1]), min_size=N,
                               max_size=N)) for _ in range(2)]
    return [BinarySequence(tuple(pool[i])) for i in data.draw(
        st.lists(st.integers(0, 1), min_size=1, max_size=3))]


def partial_word_pair():
    """Legendre sequences of length 2503 = 39 * 64 + 7, which ends in a
    partial word."""
    return (construct_single(Poly.make((1, 1, 0, 1), 2503)),
            construct_single(Poly.make((2, 0, 1), 2503)))


def assert_draw_bounds_enclose(fam, draws):
    I, R = (np.array(x, dtype=np.intp) for x in zip(*draws))
    lb, ub = measures._draw_bounds(measures._views(fam), I, R)
    for r, (idxs, rel) in enumerate(draws):
        n = fam[0].n - rel[-1]
        walk = np.prod([fam[i].array()[d:d + n] for i, d in zip(idxs, rel)],
                       axis=0)
        assert lb[r] <= walk_range(walk.tolist()) <= ub[r], (idxs, rel)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_draw_bounds_enclose_every_walk_range(data):
    N = data.draw(lengths)
    fam = sign_family(data, N)
    order = data.draw(st.integers(1, 4))
    draws = data.draw(st.lists(st.tuples(
        st.lists(st.integers(0, len(fam) - 1), min_size=order,
                 max_size=order),
        st.lists(word_edge_lags(N), min_size=order, max_size=order).map(
            sorted)), min_size=1, max_size=8))
    cells = data.draw(st.sampled_from([1, 64, measures.CELLS]))
    with mock.patch.object(measures, "CELLS", cells):
        assert_draw_bounds_enclose(fam, draws)


def test_draw_bounds_enclose_legendre_walks(rng):
    # half of the lags sit at d mod 64 in {0, 1, 63}
    E, F = partial_word_pair()
    edges = [d for d in range(2503) if d % 64 in (0, 1, 63)]
    for order in (1, 2, 3, 4):
        draws = [(rng.integers(0, 3, order).tolist(), sorted(
            rng.choice(edges, order).tolist() if r % 2 else
            rng.integers(0, 2503, order).tolist())) for r in range(20)]
        assert_draw_bounds_enclose([E, F, E], draws)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_sampled_filter_matches_unfiltered_draws(data):
    N = data.draw(lengths)
    fam = sign_family(data, N)
    order = data.draw(st.integers(1, 4))
    samples = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, 2**64 - 1))
    assume(order <= len({s.values for s in fam}) * N)
    res = cross_correlation_sampled(fam, order, samples, seed=seed)
    assert (res.value, res.witness) \
        == unfiltered_sampled(fam, order, samples, seed)
    if 2 <= order < N and samples < comb(N - 1, order - 1):
        res = correlation_sampled(fam[0], order, samples, seed=seed)
        value, (_, D, M) = unfiltered_sampled(fam[:1], order, samples, seed,
                                              corr=True)
        assert (res.value, res.witness) == (value, (D, M))


def test_sampled_filter_keeps_tied_bounds():
    # a constant product walks straight, so lb = ub for every draw, and
    # the best draws sit exactly on the best lower bound
    E = BinarySequence((1,) * 130)
    F = BinarySequence((-1,) * 130)
    for order in (2, 3, 4):
        res = correlation_sampled(E, order, 20, seed=order)
        value, (_, D, M) = unfiltered_sampled([E], order, 20, order,
                                              corr=True)
        assert (res.value, res.witness) == (value, (D, M))
        res = cross_correlation_sampled([E, F], order, 20, seed=order)
        assert (res.value, res.witness) \
            == unfiltered_sampled([E, F], order, 20, order)


def test_sampled_redraw_matches_pairwise_rule(rng):
    # equal members at different indices may not share a lag either
    A, B = rand_seq(rng, 6), rand_seq(rng, 6)
    for fam in ([A, A], [A, B, A], [A, A, A]):
        for order, seed in product((2, 3), range(4)):
            res = cross_correlation_sampled(fam, order, 30, seed=seed)
            assert (res.value, res.witness) \
                == unfiltered_sampled(fam, order, 30, seed)


def test_sampled_filter_matches_unfiltered_draws_n2503():
    E, F = partial_word_pair()  # the family repeats E
    for order in (2, 3, 4):
        res = correlation_sampled(E, order, 60, seed=order)
        value, (_, D, M) = unfiltered_sampled([E], order, 60, order,
                                              corr=True)
        assert (res.value, res.witness) == (value, (D, M))
        res = cross_correlation_sampled([E, F, E], order, 60, seed=order)
        assert (res.value, res.witness) \
            == unfiltered_sampled([E, F, E], order, 60, order)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_c2_invariant_under_reversal(data):
    N = data.draw(st.integers(3, 1000))
    E = BinarySequence(tuple(data.draw(st.lists(
        st.sampled_from([-1, 1]), min_size=N, max_size=N))))
    assert correlation(E, 2).value \
        == correlation(BinarySequence(E.values[::-1]), 2).value
