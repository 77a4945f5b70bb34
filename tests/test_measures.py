"""Measure engines: exact values, witnesses, oracles, sampling."""

from bisect import bisect_right
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legseq.constructions import BinarySequence, construct_single
from legseq.ff import Poly, is_prime
from legseq.measures import (DEFAULT_SEED, BudgetExceeded, _range_window,
                             correlation, correlation_sampled,
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
    """Definitional Phi oracle: enumerate member tuples, nondecreasing D
    and window lengths M directly."""
    N = family[0].n
    m = len(family)
    best = -1
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
                best = max(best, abs(s))
    return best


def reference_first_window(prefix, value):
    """Smallest (start, length) with |prefix[start+length] - prefix[start]|
    equal to value, by start then length, for any value; None when no
    window attains it.  The dict-and-bisect search that _range_window
    replaced."""
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
    for _ in range(3000):
        n = int(rng.integers(0, 61))
        walk = np.concatenate([[0], np.cumsum(rng.choice((-1, 1), size=n))])
        walk = walk[: int(rng.integers(0, n + 2))]  # empty and 1-point too
        span = int(walk.max() - walk.min()) if len(walk) else 0
        for value in (span, span + 1, span + 3):
            assert _range_window(walk, value) \
                == reference_first_window(walk, value)


def test_range_window_short_and_unattained():
    empty = np.zeros(0, dtype=np.int64)
    assert _range_window(empty, 0) is None
    assert _range_window(np.array([5]), 0) is None
    assert _range_window(np.array([0, 1, 0]), 2) is None
    assert _range_window(np.array([0, 1, 0, -1]), 2) == (1, 2)
    assert _range_window(np.array([0, -1, 0, 1, 0, -1]), 2) == (1, 2)


def test_range_window_refuses_value_below_range():
    with pytest.raises(ValueError):
        _range_window(np.array([0, 1, 2, 1]), 1)


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
