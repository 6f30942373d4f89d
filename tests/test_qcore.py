import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from qboson.qcore import (
    CompactFn,
    Partition,
    WeylVector,
    chamber_blocks,
    check_q,
    cluster_decompose,
    cluster_weights,
    cq_weight,
    cq_weight_inv,
    negative_binomial_tail,
    partitions_of,
    q_factorial,
    q_pochhammer,
    string_points,
    weyl_vectors_in_box,
)


def test_check_q_validation():
    assert check_q(0.5) == 0.5
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="open interval"):
            check_q(bad)


def test_weyl_vector_ordering():
    WeylVector((3, 1, 1, -2))
    with pytest.raises(ValueError):
        WeylVector((1, 2))
    with pytest.raises(ValueError):
        WeylVector(())


def test_cluster_decompose_worked_example():
    assert cluster_decompose(WeylVector((2, 1, -2, -2, -2))) == ((0, 1), (1, 2), (2, 5))


def test_cluster_decompose_trivial_cases():
    assert cluster_decompose(WeylVector((5, 5))) == ((0, 2),)
    assert cluster_decompose(WeylVector((3, 2, 1))) == ((0, 1), (1, 2), (2, 3))
    assert cluster_decompose(WeylVector((7,))) == ((0, 1),)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=8))
@settings(max_examples=1000, deadline=None)
def test_cluster_roundtrip(values):
    # the spans tile 0..k in order, hold equal coordinates, and split
    # exactly where neighbouring coordinates differ, so n is rebuilt from
    # one value per span
    n = WeylVector(tuple(sorted(values, reverse=True)))
    spans = cluster_decompose(n)
    assert spans[0][0] == 0 and spans[-1][1] == n.k
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    for start, stop in spans:
        assert start < stop and len(set(n.coords[start:stop])) == 1
    assert all(n.coords[a[1] - 1] != n.coords[b[0]] for a, b in zip(spans, spans[1:]))
    assert tuple(n.coords[start] for start, stop in spans for _ in range(start, stop)) == n.coords


def test_q_pochhammer_values():
    assert q_pochhammer(123.4, 0.5, 0) == 1
    assert q_pochhammer(0.5, 0.5, 2) == pytest.approx(0.375)
    # (q; q)_n = n!_q (1-q)^n
    q = 0.37
    for n in range(6):
        assert q_pochhammer(q, q, n) == pytest.approx(q_factorial(n, q) * (1 - q) ** n)


@given(st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_q_pochhammer_splitting(m, n):
    rng = np.random.default_rng(m * 17 + n)
    a = complex(rng.normal(), rng.normal())
    q = 0.6
    lhs = q_pochhammer(a, q, m + n)
    rhs = q_pochhammer(a, q, m) * q_pochhammer(q**m * a, q, n)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_q_factorial_values():
    assert q_factorial(0, 0.5) == 1
    assert q_factorial(2, 0.5) == pytest.approx(1.5)
    # inversion: c!_{1/q} = q^{-c(c-1)/2} c!_q, checked through the product form
    q = 0.5
    for c in range(1, 8):
        direct = 1.0
        for j in range(1, c + 1):
            direct *= (1 - (1 / q) ** j) / (1 - 1 / q)
        assert direct == pytest.approx(q ** (-c * (c - 1) / 2) * q_factorial(c, q))


def test_cq_weight_values():
    q = 0.5
    assert cq_weight(WeylVector((7,)), q) == pytest.approx(-1.0)
    assert cq_weight(WeylVector((5, 5)), q) == pytest.approx(3.0)
    assert cq_weight(WeylVector((3, 2, 1)), q) == pytest.approx(-8.0)
    n = WeylVector((4, 4, 1))
    assert cq_weight(n, q) * cq_weight_inv(n, q) == pytest.approx(1.0)


def test_cq_weight_reflection_invariance():
    rng = np.random.default_rng(0)
    q = 0.43
    for _ in range(200):
        k = int(rng.integers(1, 8))
        coords = tuple(sorted(rng.integers(-6, 7, size=k).tolist(), reverse=True))
        n = WeylVector(coords)
        assert cq_weight(n.reflect(), q) == pytest.approx(cq_weight(n, q))


def test_factorial_cluster_weight():
    # q None is the plain-factorial weight, the q -> 1 analogue of C_q
    assert cq_weight(WeylVector((2, 2, 0)), None) == pytest.approx(-2.0)
    assert cq_weight(WeylVector((1,)), None) == pytest.approx(-1.0)


def test_cluster_weights_match_the_scalar_weights():
    rng = np.random.default_rng(1)
    for k in range(1, 7):
        ns = -np.sort(-rng.integers(-3, 4, size=(50, k)), axis=1)
        for q in (0.43, None):
            want = [cq_weight(WeylVector(tuple(row)), q) for row in ns.tolist()]
            assert cluster_weights(ns, q) == pytest.approx(want, rel=1e-14)


def test_partitions_reverse_lex_order():
    assert [p.parts for p in partitions_of(1)] == [(1,)]
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(5)) == 7
    # partition numbers p(k)
    for k, pk in ((1, 1), (2, 2), (4, 5), (6, 11), (8, 22), (10, 42)):
        assert len(partitions_of(k)) == pk
    # strictly descending in reverse-lexicographic order
    parts = [p.parts for p in partitions_of(7)]
    assert parts == sorted(parts, reverse=True)


def test_partition_multiplicities():
    lam = Partition((3, 2, 2, 1))
    assert lam.size == 8 and lam.length == 4
    assert lam.multiplicities() == {3: 1, 2: 2, 1: 1}


def test_string_points():
    lam = Partition((3,))
    assert string_points([2], lam, 0.5) == (2, 1, 0.5)
    ones = Partition((1, 1, 1))
    w = (0.3 + 1j, -2.0, 5.5)
    assert string_points(w, ones, 0.5) == tuple(map(complex, w))
    with pytest.raises(ValueError):
        string_points([0.0], lam, 0.5)
    with pytest.raises(ValueError):
        string_points([1.0, 0.5], Partition((2, 1)), 0.5)  # q-orbit collision


def test_string_points_distinct_random():
    rng = np.random.default_rng(1)
    q = 0.47
    for _ in range(200):
        k = int(rng.integers(1, 6))
        for lam in partitions_of(k):
            w = rng.uniform(0.5, 2.0, lam.length) * np.exp(1j * rng.uniform(0, 6.28, lam.length))
            pts = string_points(list(w), lam, q)
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert abs(pts[i] - pts[j]) > 1e-12


def test_weyl_box_enumeration():
    states = list(weyl_vectors_in_box(2, -1, 1))
    assert [s.coords for s in states] == [
        (-1, -1), (0, -1), (0, 0), (1, -1), (1, 0), (1, 1)
    ]
    # size C(hi - lo + k, k)
    assert len(list(weyl_vectors_in_box(3, -2, 2))) == math.comb(4 + 3, 3)
    # chamber_blocks: the same states in the same order, as the rows of one
    # block per value of n_1
    for k, lo, hi in ((1, -2, 3), (2, -1, 1), (3, -2, 2), (4, 0, 3), (2, 3, 2)):
        expected = [n.coords for n in weyl_vectors_in_box(k, lo, hi)]
        blocks = list(chamber_blocks(k, lo, hi))
        assert [set(b[:, 0].tolist()) for b in blocks] == [{top} for top in range(lo, hi + 1)]
        assert [tuple(r) for b in blocks for r in b.tolist()] == expected


def test_compact_fn():
    f = CompactFn({WeylVector((1, 0)): 2.0, WeylVector((0, 0)): -1j})
    assert f(WeylVector((1, 0))) == 2.0
    assert f(WeylVector((5, 5))) == 0
    assert len(f) == 2
    with pytest.raises(ValueError):
        CompactFn({WeylVector((1,)): 1.0, WeylVector((1, 0)): 1.0})
    d = CompactFn.delta((2, 1))
    assert d(WeylVector((2, 1))) == 1.0


@pytest.mark.parametrize("k,rho,S", [(1, 0.15, 40), (2, 0.6, 200), (3, 0.3, 50), (4, 0.9, 10),
                                     (2, 0.05, 8), (3, 0.15, 70), (1, 0.7, 0)])
def test_negative_binomial_tail_is_the_regularized_beta(k, rho, S):
    # sum_{s > S} C(s+k-1, k-1) rho^s = I_rho(S+1, k) / (1-rho)^k
    exact = betainc(S + 1, k, rho) / (1.0 - rho) ** k
    assert negative_binomial_tail(k, rho, S) == pytest.approx(exact, rel=1e-14)
    # the partial sums it replaces, summed far past any rounding
    direct = math.fsum(math.comb(s + k - 1, k - 1) * rho**s for s in range(S + 1, S + 4000))
    assert negative_binomial_tail(k, rho, S) == pytest.approx(direct, rel=1e-12)


def test_negative_binomial_tail_below_zero_is_the_whole_series():
    for S in (-1, -3):
        assert negative_binomial_tail(3, 0.5, S) == pytest.approx(8.0, rel=1e-15)
