"""Sequence constructions and the file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legseq.constructions import (BinarySequence, PolyTriple,
                                  build_theorem2_polys, closed_form_element,
                                  construct_combined, construct_single,
                                  construct_triple)
from legseq.ff import Poly, QnrSet, is_prime, legendre, parse_poly

SMALL_PRIMES = [p for p in range(3, 3000) if is_prime(p)]


def triple(f, g, h, p):
    return PolyTriple(parse_poly(f, p), parse_poly(g, p), parse_poly(h, p))


def test_single_p7_linear():
    seq = construct_single(Poly.x(7))
    assert seq.values == (1, 1, -1, 1, -1, -1, 1)
    assert seq.meta["p"] == 7


def test_single_p3_square():
    assert construct_single(Poly.make((0, 0, 1), 3)).values == (1, 1, 1)


def test_single_zero_rule():
    # p | f(n) forces e_n = +1 even when nearby symbols are -1
    f = parse_poly("x-3", 7)  # root at n=3
    seq = construct_single(f)
    assert seq[3 - 1] == 1


def test_single_rejects_constant():
    with pytest.raises(ValueError):
        construct_single(Poly.make((2,), 7))


def test_single_matches_legendre_definition():
    p = 499
    f = parse_poly("x^3+x+1", p)
    seq = construct_single(f)
    for n in range(1, p + 1):
        s = legendre(f(n), p)
        assert seq[n - 1] == (s if s else 1)


def test_triple_p7_example():
    t = triple("x", "x+1", "x+3", 7)
    assert construct_triple(t).values == (1, -1, 1, 1, -1, 1, 1)


def test_triple_branch_precedence():
    # at n with f(n) = 0 the +1 branch wins even though h picks g
    t = triple("x-2", "x+1", "x+3", 7)
    seq = construct_triple(t)
    assert seq[2 - 1] == 1


@given(st.integers(0, 10**6))
@settings(max_examples=30)
def test_f_equals_g_reduces_to_single(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.choice([11, 13, 101, 199, 499]))
    f = Poly.make([int(c) for c in rng.integers(0, p, 4)] + [1], p)
    h = Poly.make([int(c) for c in rng.integers(0, p, 3)] + [1], p)
    t = PolyTriple(f, f, h)
    assert construct_triple(t).values == construct_single(f).values


def test_f_equals_h_with_qnr_multiple_gives_all_ones():
    # g = n*h with n a non-residue: both branches emit +1
    p = 13
    h = parse_poly("x^2+x+3", p)
    for n in (2, 5, 6):  # QNRs mod 13
        g = h.scale(n)
        seq = construct_triple(PolyTriple(h, g, h))
        assert set(seq.values) == {1}


# --- differential tests against the per-n loop ------------------------------


def reference_single(f, n):
    """e_n by the per-n loop the vectorized construction replaced."""
    return legendre(f(n), f.p) or 1


def reference_triple(t, n):
    """The triple's e_n by the per-n loop: p | f(n)g(n) wins, then h(n)
    selects f (symbol 0 or +1) or g (symbol -1)."""
    p = t.p
    fv, gv = t.f(n), t.g(n)
    if fv == 0 or gv == 0:
        return 1
    return legendre(fv, p) if legendre(t.h(n), p) >= 0 else legendre(gv, p)


def random_poly(draw_int, p, degree):
    return Poly.make([draw_int(0, p - 1) for _ in range(degree)]
                     + [draw_int(1, p - 1)], p)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_constructions_match_per_n_loop(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES))

    def draw_int(lo, hi):
        return data.draw(st.integers(lo, hi))

    f, g, h = (random_poly(draw_int, p, data.draw(st.integers(1, 6)))
               for _ in range(3))
    t = PolyTriple(f, g, h)
    ns = range(1, p + 1)
    single = construct_single(f)
    trip = construct_triple(t)
    assert single.values == tuple(reference_single(f, n) for n in ns)
    assert trip.values == tuple(reference_triple(t, n) for n in ns)
    H = construct_single(h)
    assert construct_combined(single, trip, H).values == tuple(
        a if s == 1 else b
        for a, b, s in zip(single.values, trip.values, H.values))


def test_constructions_match_per_n_loop_above_2_32():
    # at p = 1000003 the Horner products acc * n reach about 10^12
    p = 1000003
    rng = np.random.default_rng(20261020)

    def draw_int(lo, hi):
        return int(rng.integers(lo, hi + 1))

    t = PolyTriple(*(random_poly(draw_int, p, d) for d in (3, 4, 2)))
    single, trip = construct_single(t.f), construct_triple(t)
    for n in rng.integers(1, p + 1, 2000).tolist():
        assert single[n - 1] == reference_single(t.f, n)
        assert trip[n - 1] == reference_triple(t, n)


def test_closed_form_examples():
    t = triple("x", "x+1", "x+3", 7)
    assert closed_form_element(t, 1) == 1  # h(1)=4 is a QR: f-branch
    with pytest.raises(ValueError):
        closed_form_element(t, 7)  # f(7) = 0 mod 7


def test_closed_form_branch_selection():
    p = 13
    t = triple("x^2+1", "x^2+2", "x^2+3", p)
    for n in range(1, p + 1):
        fv, gv, hv = t.f(n), t.g(n), t.h(n)
        if fv == 0 or gv == 0 or hv == 0:
            continue
        want = legendre(fv, p) if legendre(hv, p) == 1 else legendre(gv, p)
        assert closed_form_element(t, n) == want


@pytest.mark.parametrize("p", [11, 101, 499])
def test_closed_form_matches_construction_exhaustively(p):
    t = triple("x^2+1", "x^2+3x+1", "x^3-1", p)
    seq = construct_triple(t)
    for n in range(1, p + 1):
        if t.f(n) == 0 or t.g(n) == 0:
            continue
        if t.h(n) == 0:
            continue
        assert closed_form_element(t, n) == seq[n - 1]


def test_combined_examples():
    F = BinarySequence((1, 1))
    G = BinarySequence((-1, -1))
    H = BinarySequence((1, -1))
    assert construct_combined(F, G, H).values == (1, -1)
    assert construct_combined(F, G, BinarySequence((1, 1))).values == F.values
    with pytest.raises(ValueError):
        construct_combined(F, G, BinarySequence((1, 1, 1)))


def test_theorem2_builder_examples():
    p = 13
    t1 = build_theorem2_polys(QnrSet.make([2], p), QnrSet.make([5], p),
                              QnrSet.make([6], p))
    assert t1.f == parse_poly("x^2+11", p)
    t2 = build_theorem2_polys(QnrSet.make([2, 5], p), QnrSet.make([5], p),
                              QnrSet.make([6], p))
    assert t2.f == parse_poly("x^4+6x^2+10", p)


@pytest.mark.parametrize("p,elems", [(13, [2, 5]), (101, [2, 8, 26])])
def test_theorem2_polys_are_even(p, elems):
    s = QnrSet.make(elems, p)
    t = build_theorem2_polys(s, s, s)
    f = t.f
    # f(x) = f(-x): only even powers appear
    assert all(c == 0 for i, c in enumerate(f.coeffs) if i % 2 == 1)
    for x in range(p):
        assert f(x) == f(p - x if x else 0)


@pytest.mark.parametrize("p", [13, 101, 499])
def test_theorem2_sequence_symmetry(p):
    # e_n = e_{p-n} for 1 <= n < p since every polynomial is even
    qnrs = [n for n in range(2, p) if legendre(n, p) == -1]
    A = QnrSet.make(qnrs[:2], p)
    B = QnrSet.make(qnrs[2:3], p)
    C = QnrSet.make(qnrs[3:4], p)
    seq = construct_triple(build_theorem2_polys(A, B, C))
    for n in range(1, p):
        assert seq[n - 1] == seq[p - n - 1]


def test_poly_triple_validation():
    with pytest.raises(ValueError):
        PolyTriple(Poly.x(7), Poly.x(11), Poly.x(7))
    with pytest.raises(ValueError):
        PolyTriple(Poly.x(7), Poly.make((3,), 7), Poly.x(7))
    t = triple("x^2+1", "x^3+1", "x+1", 7)
    assert t.max_degree == 3 and t.p == 7


# --- sequence container and file format ------------------------------------


def test_binary_sequence_validation():
    with pytest.raises(ValueError):
        BinarySequence(())
    with pytest.raises(ValueError):
        BinarySequence((1, 0, -1))


def test_file_format_round_trip(tmp_path):
    seq = construct_single(Poly.x(7))
    path = tmp_path / "seq.txt"
    seq.dump(path)
    text = path.read_text()
    assert text == "#LEGSEQ v1 p=7 n=7\n++-+--+\n"
    back = BinarySequence.load(path)
    assert back.values == seq.values
    assert back.meta["p"] == 7


def test_file_format_no_modulus_header():
    seq = BinarySequence((1, -1, 1))
    assert seq.dumps() == "#LEGSEQ v1 n=3\n+-+\n"
    assert BinarySequence.loads(seq.dumps()).meta == {}


def test_file_format_rejections():
    for text in ("", "no header\n++\n", "#LEGSEQ v1 n=3\n++\n",
                 "#LEGSEQ v1 n=3\n+0+\n", "#LEGSEQ v1 p=7\n++\n"):
        with pytest.raises(ValueError):
            BinarySequence.loads(text)


@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40))
def test_loads_dumps_identity(vals):
    seq = BinarySequence(tuple(vals))
    assert BinarySequence.loads(seq.dumps()).values == seq.values


def test_array_is_read_only_int8():
    seq = construct_single(Poly.x(7))
    a = seq.array()
    assert a.dtype == np.int8 and a is seq.array()
    with pytest.raises(ValueError):
        a[0] = -1
    assert seq.values == (1, 1, -1, 1, -1, -1, 1)


def test_getitem_returns_python_int():
    seq = BinarySequence([1] * 200)
    assert all(type(seq[i]) is int for i in (0, 99, -1))
    # a sum of np.int8 entries would wrap past 127
    assert sum(seq[i] for i in range(200)) == 200


@pytest.mark.parametrize("vals", [
    (1, -1, -1), [1, -1, -1], np.array([1, -1, -1]),
    np.array([1, -1, -1], dtype=np.int8)])
def test_accepts_tuple_list_and_ndarray(vals):
    seq = BinarySequence(vals)
    assert seq.values == (1, -1, -1)
    assert (-seq).values == (-1, 1, 1)
    assert seq.array().tolist() == [1, -1, -1]  # negation leaves seq alone


def test_input_is_copied_and_checked_before_narrowing():
    src = np.array([1, 1])
    seq = BinarySequence(src)
    src[0] = -1
    assert seq.values == (1, 1)
    with pytest.raises(ValueError):
        BinarySequence(np.array([1, 257]))  # 257 would narrow to int8 1
    with pytest.raises(ValueError):
        BinarySequence(np.ones((2, 2), dtype=np.int8))


def test_loads_rejects_non_ascii_body():
    with pytest.raises(ValueError, match="only '\\+' and '-'"):
        BinarySequence.loads("#LEGSEQ v1 n=3\n+é+\n")
