import functools
import inspect
import itertools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import contours
from qboson.contours import (
    QuadratureSpec,
    _grid_chunks,
    grid_nodes_weights,
    integrate,
    nested_contours,
    single_gamma,
    string_circle,
)
from qboson.eigenfunctions import EigenFamily, eigen_eval, eigen_eval_grid
from qboson.plancherel import (
    composition_table,
    inverse_J,
    inverse_J_batch,
    mu_weight,
    mu_weight_appendix,
    mu_weight_vandermonde,
    mu_density_grid,
    nested_kernel_grid,
    pairing_spatial,
    residue_expand_nested,
    residue_expand_sum,
    residue_weight_determinant,
    residue_weight_direct,
    transform_F_grid,
)
from qboson.qcore import CompactFn, Partition, WeylVector, partitions_of, weyl_vectors_in_box
from qboson.checks.plancherel_checks import _monomial_basis
from qboson.registry import REGISTRY, run_check

Q = 0.5
SPEC = QuadratureSpec(128)


def _transform_at(f, z):
    """The forward transform at one spectral point: a one-node grid."""
    return complex(transform_F_grid(f, [np.asarray(v) for v in z], Q))


def test_transform_F_delta_and_zero():
    n = WeylVector((2, 0))
    z = [0.4 + 0.3j, 1.6 - 0.2j]
    f = CompactFn.delta(n)
    assert _transform_at(f, z) == pytest.approx(
        eigen_eval(EigenFamily("qboson-right", Q), z, n))
    assert _transform_at(CompactFn({(0, 0): 0.0}), z) == 0


def test_transform_F_half_stationary_geometric_series():
    # k = 1 truncated half-stationary data approaches -(1-z)/(z - alpha/q)
    alpha, z = 0.1, 0.8 + 0.1j
    target = -(1 - z) / (z - alpha / Q)
    prev_err = None
    for depth in (10, 20, 40):
        f = CompactFn({WeylVector((n,)): (1 - alpha / Q) ** (-n) for n in range(1, depth + 1)})
        err = abs(_transform_at(f, [z]) - target)
        ratio = abs((1 - z) / (1 - alpha / Q))
        assert err <= 2.0 * ratio**depth + 1e-14  # geometric tail, roundoff floor
        if prev_err is not None:
            assert err < prev_err + 1e-14
        prev_err = err


def test_mu_weight_values():
    assert mu_weight(Partition((1,)), [0.7 + 0.2j], Q) == pytest.approx(1.0)
    assert mu_weight(Partition((2,)), [1.0], Q) == pytest.approx(-(1 - Q) / (1 + Q))
    w = 0.9 - 0.4j
    assert mu_weight(Partition((2,)), [w], Q) == pytest.approx(-w * (1 - Q) / (1 + Q))


def test_mu_weight_singular_input():
    # lam = (1,1) with w2 = q w1 makes the determinant blow up
    with pytest.raises(ValueError):
        mu_weight(Partition((1, 1)), [1.0, Q], Q)


def test_mu_forms_agree():
    rng = np.random.default_rng(0)
    for k in range(1, 7):
        for lam in partitions_of(k):
            w = rng.normal(1, 0.2, lam.length) + 1j * rng.normal(0, 0.2, lam.length)
            a = mu_weight(lam, list(w), Q)
            b = mu_weight_appendix(lam, list(w), Q)
            c = mu_weight_vandermonde(lam, list(w), Q)
            g = complex(mu_density_grid(lam, [np.asarray(v) for v in w], string_circle(Q)))
            assert abs(a - b) <= 1e-12 * (1 + abs(a))
            assert abs(a - c) <= 1e-12 * (1 + abs(a))
            assert abs(a - g) <= 1e-12 * (1 + abs(a))


def _literal_cauchy(lam, ws, shift):
    """Matrices [1/(s_i - w_j)] at every node of the broadcast grid ws, with
    s_i = shift(w_i, lam_i), stacked along the leading axes."""
    ell = lam.length
    grid = np.broadcast_arrays(*ws)
    s = [shift(grid[i], lam.parts[i]) for i in range(ell)]
    return np.stack([np.stack([1.0 / (s[i] - grid[j]) for j in range(ell)], -1)
                     for i in range(ell)], -2)


@settings(max_examples=30)
@given(
    q=st.sampled_from([0.1, 0.5, 0.9]),
    m=st.integers(3, 4),
    radius=st.floats(0.002, 0.02),
    spacing=st.floats(0.2, 0.6),
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=5, max_size=5),
)
def test_mu_density_grid_matches_literal_determinant(q, m, radius, spacing, phases):
    # Axis j carries m nodes on a small circle about 1 + j * spacing * i, so
    # every s_i - w_j stays away from 0.  The references are literal
    # determinants in floating point, whose own rounding grows with the
    # condition number of the matrix (at q = 0.1 rows with equal parts are
    # nearly equal); that rounding, cond * eps * |ref|, is added to the
    # tolerance.
    theta = 2 * math.pi * np.arange(m) / m
    axes = [1 + 1j * spacing * j + radius * np.exp(1j * (theta + phases[j])) for j in range(5)]
    eps = np.finfo(float).eps
    for k in range(1, 6):
        for lam in partitions_of(k):
            ell = lam.length
            mult = math.prod(math.factorial(c) for c in lam.multiplicities().values())
            ws = [axes[j].reshape([m if a == j else 1 for a in range(ell)]) for j in range(ell)]
            grid_q = mu_density_grid(lam, ws, string_circle(q))
            grid_sd = mu_density_grid(lam, ws, string_circle(None))
            assert grid_q.shape == grid_sd.shape == (m,) * ell
            mats_q = _literal_cauchy(lam, ws, lambda w, part: w * q**part)
            mats_sd = _literal_cauchy(lam, ws, lambda w, part: w + part)
            ref_q = np.array([mu_weight(lam, [axes[j][i] for j, i in enumerate(idx)], q)
                              for idx in np.ndindex(*grid_q.shape)]).reshape(grid_q.shape)
            ref_sd = np.linalg.det(mats_sd) / mult
            for got, ref, mats in ((grid_q, ref_q, mats_q), (grid_sd, ref_sd, mats_sd)):
                tol = 1e-12 * (1 + abs(ref)) + np.linalg.cond(mats) * eps * abs(ref)
                assert np.all(abs(got - ref) <= tol), (lam, np.max(abs(got - ref) / tol))


def test_cauchy_determinant_form_of_string_free_measure():
    # the k-ones measure equals the squared-Vandermonde Cauchy form
    rng = np.random.default_rng(1)
    for k in (2, 3):
        lam = Partition(tuple([1] * k))
        w = rng.normal(0, 1.2, k) + 1j * rng.normal(0, 1.2, k)
        direct = mu_weight(lam, list(w), Q)
        num = 1.0
        for a in range(k):
            for b in range(a + 1, k):
                num *= (w[a] - w[b]) ** 2
        den = 1.0
        for a in range(k):
            for b in range(k):
                if a != b:
                    den *= w[a] - Q * w[b]
        expect = (-1) ** (k * (k - 1) // 2) / math.factorial(k) * num / den
        assert abs(direct - expect) <= 1e-12 * (1 + abs(expect))


def test_residue_weights():
    rng = np.random.default_rng(2)
    w0 = 0.9 + 0.1j
    assert residue_weight_direct(Partition((2,)), [w0], Q) == pytest.approx(
        -w0 * (1 - Q) / (1 + Q))
    # plain product case, no strings
    lam = Partition((1, 1))
    w = [1.3 + 0.2j, 0.4 - 0.7j]
    plain = 1.0
    for i in range(2):
        for j in range(2):
            if i != j:
                plain *= (w[i] - w[j]) / (w[i] - Q * w[j])
    assert residue_weight_direct(lam, w, Q) == pytest.approx(plain)
    for k in range(1, 5):
        for lam in partitions_of(k):
            ws = rng.normal(1, 0.3, lam.length) + 1j * rng.normal(0, 0.3, lam.length)
            a = residue_weight_direct(lam, list(ws), Q)
            b = residue_weight_determinant(lam, list(ws), Q)
            assert abs(a - b) <= 1e-10 * (1 + abs(b))


def test_inverse_J_k1_residues():
    cs = nested_contours(1, Q, r_k=0.3)
    one = lambda zs: zs[0] * 0 + 1.0
    for n in range(-2, 3):
        v = inverse_J(one, WeylVector((n,)), cs, SPEC)
        assert v == pytest.approx(-1.0 if n == 0 else 0.0, abs=1e-12)
    for m in (-2, 1, 3):
        G = lambda zs, _m=m: (1.0 - zs[0]) ** _m
        for n in range(-3, 4):
            v = inverse_J(G, WeylVector((n,)), cs, SPEC)
            assert v == pytest.approx(-1.0 if n == m else 0.0, abs=1e-12)


def _nested_reference(G, n, cs):
    """The nested inverse transform at one n, its integrand built pointwise
    and integrated by `contours.integrate`: the reference for the batches."""
    def integrand(zs):
        out = nested_kernel_grid(zs, cs) * G(zs)
        for j, z in enumerate(zs):
            out = out * (1.0 - z) ** (-n.coords[j] - 1)
        return out

    return integrate(cs, integrand, SPEC).value


def test_inverse_J_modes_agree_k2():
    x = WeylVector((2, -1))
    G = lambda zs: eigen_eval_grid(EigenFamily("qboson-right", Q), list(zs), x)
    csn = nested_contours(2, Q, r_k=0.3)
    ys = [WeylVector((2, -1)), WeylVector((1, 0)), WeylVector((3, -2))]
    ref = [_nested_reference(G, y, csn) for y in ys]
    assert abs(ref[0] - 1.0) < 1e-9  # Psi^r_x transforms back to delta_x
    for cs in (csn, single_gamma(Q, k=2), string_circle(Q, radius=0.3)):
        batch = inverse_J_batch(G, ys, cs, SPEC)[0]
        assert np.abs(batch - ref).max() < 1e-9, cs.family


def test_inverse_J_batch_matches_scalar():
    x = WeylVector((1, 0))
    G = lambda zs: eigen_eval_grid(EigenFamily("qboson-right", Q), list(zs), x)
    cs = nested_contours(2, Q, r_k=0.3)
    ns = list(weyl_vectors_in_box(2, -2, 2))
    batch = inverse_J_batch(G, ns, cs, SPEC)[0]
    for n, v in zip(ns, batch):
        s = _nested_reference(G, n, cs)
        assert abs(v - s) < 1e-10 * (1 + abs(s))
        assert abs(inverse_J(G, n, cs, SPEC) - v) < 1e-12 * (1 + abs(v))


def test_dispatch_rejects_circle_count_mismatch():
    G = lambda zs: zs[0] * 0 + 1.0
    states = list(weyl_vectors_in_box(2, -1, 1))
    for cs in (nested_contours(3, Q, r_k=0.3), single_gamma(Q, k=1)):
        with pytest.raises(ValueError, match="one circle per particle"):
            composition_table(states, cs, SPEC)
        with pytest.raises(ValueError, match="one circle per particle"):
            inverse_J_batch(G, states, cs, SPEC)


def test_dispatch_rejects_empty_state_list():
    G = lambda zs: zs[0] * 0 + 1.0
    for cs in (nested_contours(1, Q, r_k=0.3), single_gamma(Q, k=1),
               string_circle(Q, radius=0.3)):
        with pytest.raises(ValueError, match="at least one state"):
            composition_table([], cs, SPEC)
        with pytest.raises(ValueError, match="at least one state"):
            inverse_J_batch(G, [], cs, SPEC)


def _inverse_J_case():
    """G = the right eigenfunction at x: its inverse transform is delta_x."""
    x = WeylVector((2, -1))
    G = lambda zs: eigen_eval_grid(EigenFamily("qboson-right", Q), list(zs), x)
    ys = [x, WeylVector((1, 0)), WeylVector((3, -2)), WeylVector((0, 0))]
    return G, ys, np.array([1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("mode, m", [("nested", 128), ("single-gamma", 256), ("expanded", 128)])
def test_inverse_J_half_grid_difference_matches_a_separate_half_run(mode, m):
    # d is |I_M - I_half|, the half grid being every second node of the M
    # grid; a separate run at M/2 puts its nodes at other phases, which
    # moves its value only by the error at M/2, at these M far below
    # 1e-12.  A wrong 2^axes scaling of a grid would be off by about 1.
    G, ys, _ = _inverse_J_case()
    cs = {"nested": nested_contours(2, Q, r_k=0.3), "single-gamma": single_gamma(Q, k=2),
          "expanded": string_circle(Q, radius=0.3)}[mode]
    values, d, _ = inverse_J_batch(G, ys, cs, QuadratureSpec(m))
    coarse = inverse_J_batch(G, ys, cs, QuadratureSpec(m // 2))[0]
    assert abs(values[0]) > 0.5
    np.testing.assert_allclose(d, np.abs(values - coarse), rtol=0, atol=1e-12)


def test_inverse_J_estimate_extrapolates_only_above_the_rounding_bound():
    G, ys, exact = _inverse_J_case()
    cs = nested_contours(2, Q, r_k=0.3)
    # 32 nodes: d, what doubling from 16 changed, is far above rounding, and
    # the planner's estimate is its geometric extrapolation d^2/|value|
    plan = contours.plan_nodes(lambda spec: inverse_J_batch(G, ys[:1], cs, spec), 0.0, 32)
    values, d, rounding = inverse_J_batch(G, ys[:1], cs, QuadratureSpec(32))
    assert d[0] > 1e6 * rounding[0]
    assert plan.estimates[0] == pytest.approx(d[0] * d[0] / abs(values[0]), rel=1e-15)
    assert plan.estimates[0] < 1e-3 * d[0]
    # 256 nodes: converged, so d is rounding and stands unextrapolated; the
    # rounding bound covers the error against the exact delta_x (on the
    # single circle about 0, |1 - z| runs from 0.5 to 2.5, so the bound
    # must take the smallest base under a negative exponent)
    for circles in (cs, single_gamma(Q, k=2)):
        plan = contours.plan_nodes(lambda spec: inverse_J_batch(G, ys, circles, spec), 0.0, 256)
        values, d, rounding = inverse_J_batch(G, ys, circles, QuadratureSpec(256))
        assert np.all((d > 0) & (d < 100 * rounding)), circles.family
        assert np.array_equal(plan.estimates, d)
        assert np.all(np.abs(values - exact) <= rounding), circles.family


def test_geometric_estimate_rule():
    # the planner's value-scaled step at its second count: d^2/|value|,
    # capped at d, and d itself at a zero value or within 100 rounding bounds
    d = np.array([1e-6, 1e-6, 1e-6, 1e-6, 1e-6])
    values = np.array([1.0, -0.5j, 0.0, 1e-8, 1.0])
    rounding = np.array([1e-16, 1e-16, 1e-16, 1e-16, 1.01e-8])
    plan = contours.plan_nodes(lambda spec: (values, d, rounding), 0.0, ceiling=32)
    np.testing.assert_allclose(plan.estimates, [1e-12, 2e-12, 1e-6, 1e-6, 1e-6], rtol=1e-15)


def test_pairing_spatial_identities():
    rng = np.random.default_rng(4)
    from qboson.eigenfunctions import reflect_map

    assert pairing_spatial(CompactFn.delta((1, 0)), CompactFn.delta((1, 0))) == 1
    assert pairing_spatial(CompactFn.delta((1, 0)), CompactFn.delta((0, 0))) == 0
    for _ in range(30):
        k = int(rng.integers(1, 4))
        def rand_fn():
            pts = {}
            for _ in range(4):
                c = tuple(sorted(rng.integers(-3, 4, size=k).tolist(), reverse=True))
                pts[WeylVector(c)] = complex(rng.normal(), rng.normal())
            return CompactFn(pts)

        f, g = rand_fn(), rand_fn()
        # reflection invariance
        assert abs(pairing_spatial(reflect_map(f), reflect_map(g))
                   - pairing_spatial(f, g)) < 1e-12
        # h, 1/h gauge invariance
        h = {n: complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
             for n in set(f.support()) | set(g.support())}
        fh = CompactFn({n: v * h[n] for n, v in f.items()})
        gh = CompactFn({n: v / h[n] for n, v in g.items()})
        assert abs(pairing_spatial(fh, gh) - pairing_spatial(f, g)) < 1e-12


def test_composition_tables_are_identities():
    for k in (1, 2):
        states = list(weyl_vectors_in_box(k, -3, 3))
        I = np.eye(len(states))
        for cs in (nested_contours(k, Q, r_k=0.3), single_gamma(Q, k=k),
                   string_circle(Q, radius=0.3)):
            T = composition_table(states, cs, SPEC)
            assert np.abs(T - I).max() < 1e-7, cs.family


def test_right_right_table_matches_single_gamma_integral():
    # B[i, j] against contours.integrate of dmu_(1^k) prod 1/base
    # Psi^r_x Psi^r_y over single_gamma, with Psi^r from eigen_eval_grid
    # rather than the table's per-permutation contraction
    fam = EigenFamily("qboson-right", Q)
    for k, lo, hi in ((1, -3, 3), (2, -1, 2)):
        states = list(weyl_vectors_in_box(k, lo, hi))
        cs = single_gamma(Q, k=k)
        B = composition_table(states, cs, SPEC, side="right")
        assert np.abs(B - B.T).max() < 1e-12
        lam = Partition((1,) * k)
        for i, x in enumerate(states):
            for j, y in enumerate(states):
                def integrand(zs, x=x, y=y):
                    out = mu_density_grid(lam, zs, cs)
                    for z in zs:
                        out = out / (1.0 - z)
                    return out * eigen_eval_grid(fam, list(zs), x) * eigen_eval_grid(fam, list(zs), y)

                ref = integrate(cs, integrand, SPEC).value
                assert abs(B[i, j] - ref) < 1e-10 * (1 + abs(ref)), (x, y)
    with pytest.raises(ValueError, match="nested mode pairs with the left eigenfunction only"):
        composition_table(states, nested_contours(2, Q, r_k=0.3), SPEC, side="right")


def test_completeness_both_expansions():
    # a random compact function is reproduced by the string expansion in
    # both orderings (left-with-transform and right-with-left-pairing);
    # the second follows by the reflection conjugation, exercised here by
    # composing tables rather than re-deriving
    rng = np.random.default_rng(5)
    k = 2
    states = list(weyl_vectors_in_box(k, -2, 2))
    idx = {n: i for i, n in enumerate(states)}
    T = composition_table(states, string_circle(Q, radius=0.3), SPEC)
    vec = np.array([complex(rng.normal(), rng.normal()) for _ in states])
    # forward expansion reproduces f
    recon = T.T @ vec
    assert np.abs(recon - vec).max() < 1e-7
    # conjugated identity (R C)^{-1} K (R C) = Id
    from qboson.generators import StateBox, cluster_weight_diagonal, reflection_permutation
    from qboson.generators import GeneratorKind

    box = StateBox(k, -2, 2)
    perm = reflection_permutation(box)
    C = cluster_weight_diagonal(GeneratorKind("bwd", "qboson", Q), box)
    Rm = np.zeros_like(T.real)
    Rm[np.arange(len(perm)), perm] = 1.0
    RC = Rm @ np.diag(C)
    K = T.T  # K[y, x] = (J F delta_x)(y)
    conj = np.linalg.inv(RC) @ K @ RC
    assert np.abs(conj - np.eye(len(states))).max() < 1e-6


RESIDUE_Q = 0.25
# two F with a simple pole at 1 in each variable, so that both residue
# integrals are of order 1: for an entire F both vanish
RESIDUE_FS = [lambda zs, c=c: functools.reduce(operator.mul,
                                               [np.exp(c * (z - 1.0)) / (z - 1.0) for z in zs])
              for c in (0.1j, -0.1)]


def _residue_nested_contours(k):
    """The margin 4 and string radius 0.1 make both residue sides converge
    by 32 nodes per axis."""
    return nested_contours(k, RESIDUE_Q, r_k=0.1, margin=4.0)


def _residue_sides(k):
    """Both residue-expansion sides at k for `RESIDUE_FS`."""
    q, Fs = RESIDUE_Q, RESIDUE_FS
    cs = _residue_nested_contours(k)
    return {"nested": lambda spec: residue_expand_nested(Fs, cs, spec),
            "sum": lambda spec: residue_expand_sum(Fs, k, string_circle(q, radius=0.1), spec)}


def test_residue_expansion_small():
    # the pole at 1 keeps both sides of order 1, so their agreement is not
    # the vacuous 0 = 0 of an entire F; both sides walk the evaluation-mode
    # dispatch and `contours.half_grid_sums`, which the naive grid sums
    # below check on the nested side, and this diffs the string expansion
    # against it
    for k in (1, 2, 3, 4):
        sides = _residue_sides(k)
        (nested, _, _), (total, _, _) = (sides[side](QuadratureSpec(32))
                                         for side in ("nested", "sum"))
        assert np.all(np.abs(nested) > 0.1)
        assert np.abs(nested - total).max() <= 1e-12, k


def _naive_grid_sum(cs, m, integrand):
    """The product trapezoid rule written out on the whole meshgrid of
    `grid_nodes_weights`, without `_grid_chunks` or `half_grid_sums`: the
    full sum and |full - 2^k times the sum over every second node|."""
    nodes, weights = grid_nodes_weights(cs, QuadratureSpec(m))
    zs = np.meshgrid(*nodes, indexing="ij")
    W = functools.reduce(operator.mul, np.meshgrid(*weights, indexing="ij"))
    terms = W * integrand(zs)
    full = terms.sum()
    return full, abs(full - 2**cs.k * terms[(slice(None, None, 2),) * cs.k].sum())


def _naive_kernel(zs, q):
    """prod_{A<B} (z_A - z_B)/(z_A - q z_B), pair by pair."""
    out = np.ones(zs[0].shape, dtype=complex)
    for a in range(len(zs)):
        for b in range(a + 1, len(zs)):
            out *= (zs[a] - zs[b]) / (zs[a] - q * zs[b])
    return out


# 1 << 21 holds every grid of these tests in one slab; 512 cuts the k = 3
# grids into slabs of 2 along axis 0
@pytest.mark.parametrize("budget", [1 << 21, 512])
@pytest.mark.parametrize("m", [16, 32])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_residue_expand_nested_matches_a_naive_grid_sum(k, m, budget, monkeypatch):
    monkeypatch.setattr(contours, "CHUNK_ELEMENTS", budget)
    q, cs = RESIDUE_Q, _residue_nested_contours(k)
    values, estimates, _ = residue_expand_nested(RESIDUE_FS, cs, QuadratureSpec(m))
    for F, value, estimate in zip(RESIDUE_FS, values, estimates):
        ref, ref_estimate = _naive_grid_sum(cs, m, lambda zs: _naive_kernel(zs, q) * F(zs))
        assert abs(ref) > 0.1
        assert abs(value - ref) <= 1e-13 * (1 + abs(ref))
        assert abs(estimate - ref_estimate) <= 1e-13 * (1 + abs(ref))


@pytest.mark.parametrize("budget", [1 << 21, 512])
@pytest.mark.parametrize("m", [16, 32])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_integrate_matches_a_naive_grid_sum(k, m, budget, monkeypatch):
    monkeypatch.setattr(contours, "CHUNK_ELEMENTS", budget)
    cs = nested_contours(k, Q, r_k=0.3)

    def integrand(zs):
        return functools.reduce(operator.mul, [np.exp(z) / (1.0 - z) ** (j + 2)
                                               for j, z in enumerate(zs)])

    res = integrate(cs, integrand, QuadratureSpec(m))
    ref, ref_estimate = _naive_grid_sum(cs, m, integrand)
    assert abs(ref) > 0.1
    assert abs(res.value - ref) <= 1e-13 * (1 + abs(ref))
    assert abs(res.error_estimate - ref_estimate) <= 1e-13 * (1 + abs(ref))


def test_residue_expand_nested_raises_on_a_nonfinite_F():
    # F is infinite on the first node of axis 0; summed, it would be nan
    cs, spec = nested_contours(2, 0.5, r_k=0.2), QuadratureSpec(16)
    node = grid_nodes_weights(cs, spec)[0][0][0]

    def F(zs):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (zs[0] - node)

    with pytest.raises(FloatingPointError, match="non-finite"):
        residue_expand_nested([F], cs, spec)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("side", ["nested", "sum"])
def test_residue_estimates_match_a_separate_half_run(k, side):
    # The embedded estimate is |I_M - I_half|, the half grid being every
    # second node of the M grid; a separate run at M/2 puts its nodes at
    # other phases, which moves its value only by the error at M/2, here
    # far below 1e-12.  A wrong 2^axes scaling of a grid would be off by
    # the order of the values.
    evaluate = _residue_sides(k)[side]
    m = 64
    values, estimates, _ = evaluate(QuadratureSpec(m))
    coarse = evaluate(QuadratureSpec(m // 2))[0]
    assert np.all(np.abs(values) > 0.5)
    np.testing.assert_allclose(estimates, np.abs(values - coarse), rtol=0, atol=1e-12)


@pytest.mark.parametrize("side", ["nested", "sum"])
def test_plan_nodes_on_residue_sides(side):
    evaluate = _residue_sides(3)[side]
    direct = {m: evaluate(QuadratureSpec(m)) for m in (16, 32, 64, 128)}
    replay = lambda spec: direct[spec.nodes]
    # the planner's estimate at each count, from the side's own d and rounding
    planned = {m: contours.plan_nodes(replay, 0.0, ceiling=m) for m in direct}
    worst = {m: np.max(plan.estimates) for m, plan in planned.items()}
    for m, plan in planned.items():
        values, d, _ = direct[m]
        # extrapolation only lowers d, and the estimate covers the error
        # against the 128-node values
        assert np.all(plan.estimates <= d)
        if m < 128:
            assert np.all(np.abs(values - direct[128][0]) <= plan.estimates + 1e-14), m
    for target in (1e-3, 1e-8, 1e-13, 0.0):
        plan = contours.plan_nodes(evaluate, target, ceiling=128)
        # the smallest power of two >= 16 whose estimate meets the target,
        # or the ceiling when none does
        assert plan.nodes == min((m for m in direct if worst[m] <= target), default=128)
        # plan_nodes only chooses M: its values are the side's own, bit for bit
        assert np.array_equal(plan.values, direct[plan.nodes][0])
        assert np.array_equal(plan.estimates, planned[plan.nodes].estimates)
    # at a ceiling below the converged count it returns the ceiling's
    # evaluation with that evaluation's estimate
    plan = contours.plan_nodes(evaluate, worst[32] / 2, ceiling=32)
    assert plan.nodes == 32
    assert np.array_equal(plan.values, direct[32][0])
    assert np.array_equal(plan.estimates, planned[32].estimates)


def test_chunked_grids_match_one_chunk(monkeypatch):
    # Budgets: one slab for every grid here, the default, and 512 nodes,
    # which cuts every grid of three or four axes into slabs of 2 nodes
    # along axis 0.  k = 4 with 16 nodes per axis for integrate and both
    # residue sides; k = 3 with 16 nodes for inverse_J_batch and the
    # left-left and right-right composition tables in the nested,
    # single-circle and string-product modes; and the solver's k = 3
    # nested inverse transform at 128 nodes, a grid of 2^21 nodes, which the
    # default budget cuts too.
    k, spec = 4, QuadratureSpec(16)
    cs = nested_contours(k, Q, r_k=0.3, margin=0.3)
    Fs = [lambda zs, c=c: np.exp(sum((z - 1.0) * c for z in zs)) for c in (0.3, -0.7)]
    x = WeylVector((1, 0, -1))
    G = lambda zs: eigen_eval_grid(EigenFamily("qboson-right", Q), list(zs), x)
    states = list(weyl_vectors_in_box(3, -1, 1))
    modes = [nested_contours(3, Q, r_k=0.3), single_gamma(Q, k=3), string_circle(Q, radius=0.3)]
    solver = nested_contours(3, Q, r_k=0.3)

    def integrand(zs):
        return nested_kernel_grid(zs, cs) * np.exp(sum(zs))

    def evaluate(budget):
        monkeypatch.setattr(contours, "CHUNK_ELEMENTS", budget)
        res = integrate(cs, integrand, spec)
        values = [*residue_expand_nested(Fs, cs, spec), *residue_expand_sum(
            Fs, k, string_circle(Q, radius=0.3), spec), [res.value], [res.error_estimate]]
        for mode in modes:
            values += [*inverse_J_batch(G, states, mode, spec),
                       composition_table(states, mode, spec).ravel()]
            if mode.family != "nested":
                values.append(composition_table(states, mode, spec, side="right").ravel())
        values += inverse_J_batch(G, states, solver, QuadratureSpec(128))
        slabs = (len(list(_grid_chunks(cs, spec))),
                 len(list(_grid_chunks(solver, QuadratureSpec(128)))))
        return values, slabs

    default = contours.CHUNK_ELEMENTS
    one, one_slabs = evaluate(1 << 30)
    assert one_slabs == (1, 1)
    for budget, slabs in ((default, (1, 8)), (512, (8, 64))):
        cut, cut_slabs = evaluate(budget)
        assert cut_slabs == slabs
        for a, b in zip(one, cut):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12 * (1 + np.abs(a).max()))


@pytest.mark.parametrize("budget", [contours.CHUNK_ELEMENTS, 512])
def test_composition_table_expands_once_per_y_permutation(budget, monkeypatch):
    # The slabs' contractions (and the partitions', in the string mode) are
    # summed per y-permutation before the x-side walk: one expand per
    # distinct sigma, however many slabs the 16^3 grid is cut into (1 at
    # the default budget, 8 at 512).
    monkeypatch.setattr(contours, "CHUNK_ELEMENTS", budget)
    calls = []
    inner = EigenFamily.expand

    def counted(self, R):
        calls.append(R.shape)
        return inner(self, R)

    monkeypatch.setattr(EigenFamily, "expand", counted)
    states = list(weyl_vectors_in_box(3, -1, 1))
    for cs, expands in ((nested_contours(3, Q, r_k=0.3), 1), (single_gamma(Q, k=3), 1),
                        (string_circle(Q, radius=0.3), 6)):
        calls.clear()
        composition_table(states, cs, QuadratureSpec(16))
        assert len(calls) == expands, cs.family


@pytest.mark.parametrize("m", [16, 32, 64, 128])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_grid_slabs_keep_the_budget_and_start_at_even_nodes(k, m):
    # Every slab holds at most CHUNK_ELEMENTS nodes, except at the two-row
    # floor on axis 0 (k = 4 from M = 64: slabs of 2 M^3 nodes), and starts
    # at an even axis-0 node, as the embedded half-grid estimate needs.
    cs, spec = nested_contours(k, Q, r_k=0.3), QuadratureSpec(m)
    axis0 = grid_nodes_weights(cs, spec)[0][0]
    start = 0
    for zs, W in _grid_chunks(cs, spec):
        rows = zs[0].size
        assert W.shape == (rows,) + (m,) * (k - 1)
        assert W.size <= contours.CHUNK_ELEMENTS or rows == 2
        assert start % 2 == 0
        assert np.array_equal(zs[0].ravel(), axis0[start:start + rows])
        start += rows
    assert start == m
    floor = 2 * m ** (k - 1) > contours.CHUNK_ELEMENTS
    assert floor == (k == 4 and m >= 64)


def _planned_quadrature(report):
    return [side for legs in report.params["quadrature"].values() for side in legs.values()]


def test_residue_expansion_plans_at_most_32_nodes_at_its_defaults():
    # a count, not a timer: both sides of every leg stop doubling by 32
    # nodes per axis, with their estimate within tolerance / 100
    r = run_check("residue-expansion")
    assert r.passed
    sides = _planned_quadrature(r)
    assert len(sides) == 8
    for side in sides:
        assert side["nodes"] <= 32
        assert math.isfinite(side["estimate"]) and side["estimate"] <= r.tolerance / 100


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_residue_expansion_across_q(q):
    # the string circle shrinks with q, so it stays valid where the fixed
    # 0.3 circle overlapped its own q-image (q >= 7/13)
    r = run_check("residue-expansion", q=q)
    assert r.passed
    assert r.params["string_radius"] == min(0.3, 0.6 * (1 - q) / (1 + q))
    for side in _planned_quadrature(r):
        assert side["estimate"] <= r.tolerance / 100


def test_plancherel_forward_records_one_string_circle_per_expanded_row():
    # the expanded mode integrates on one small string circle, so each of
    # its rows records that circle alone, not a nested system around it
    used = run_check("plancherel-forward", box_radius=1, nodes=32).params["contours"]
    expanded = {label: circles for label, circles in used.items() if "expanded" in label}
    assert expanded == {"k=1 expanded": [[1.0, 0.0, 0.3]], "k=2 expanded": [[1.0, 0.0, 0.3]],
                        "k=3 expanded q=0.25": [[1.0, 0.0, 0.5]]}


# The five checks of T = I, at knobs small enough for a quick run.
IDENTITY_TABLE_CHECKS = {
    "plancherel-forward": {"box_radius": 1, "nodes": 32},
    "biorthogonality-spatial": {"box_radius": 1, "nodes": 32},
    "eps-plancherel": {"nodes": 32},
    "sd-plancherel": {"nodes": 32},
    "sd-biorthogonality": {"nodes": 32},
}


@pytest.mark.parametrize("check", IDENTITY_TABLE_CHECKS)
def test_identity_tables_name_the_worst_entry_and_each_rows_contours(check):
    # one row per leg: the report names the worst entry (x, y) of the worst
    # leg, and params["contours"] holds the circles of every leg under its label
    r = run_check(check, **IDENTITY_TABLE_CHECKS[check])
    label, x, y = re.fullmatch(r"(.+) worst x=(\(.*\)) y=(\(.*\))",
                               r.params["worst_case"]).groups()
    contours = r.params["contours"]
    assert label in contours and len(contours) == r.params["comparisons"]
    assert all(len(circles) >= 1 and all(len(c) == 3 for c in circles)
               for circles in contours.values())


def test_identity_tables_hold_a_diagonal_entry_to_the_same_gate(monkeypatch):
    # T = I but for 1.5 tolerance on one diagonal entry: |T - 1| / 2 would
    # pass as a relative error, T - 1 against 0 fails
    import qboson.checks

    def near_identity(states, cs, spec, side="left"):
        T = np.eye(len(states), dtype=complex)
        T[1, 1] += 1.5e-6
        return T

    monkeypatch.setattr(qboson.checks, "composition_table", near_identity)
    r = run_check("plancherel-forward", box_radius=1, nodes=32, tolerance=1e-6)
    assert not r.passed
    assert r.abs_err == r.rel_err == pytest.approx(1.5e-6)
    assert r.params["worst_case"] == "k=1 nested worst x=(0,) y=(0,)"


@pytest.mark.parametrize("q", [0.25, 0.5])
def test_plancherel_forward_gives_every_row_its_own_contours(q):
    # at q = 0.25 the k = 3 nested leg at the given q runs at the same q as
    # the frozen k = 3 legs, and still needs a label of its own
    r = run_check("plancherel-forward", q=q, box_radius=1, nodes=32)
    contours = r.params["contours"]
    assert r.params["comparisons"] == len(contours) == 10
    assert f"k=3 nested given q={q}" in contours and "k=3 nested q=0.25" in contours


def test_identity_tables_refuse_a_repeated_label():
    from qboson.checks import identity_tables
    from qboson.report import Accumulator

    cs = nested_contours(1, 0.5, r_k=0.3)
    legs = [("k=1", cs, 1, 0, 0), ("k=1 again", cs, 1, 0, 0), ("k=1", cs, 1, -1, 0)]
    acc = Accumulator("t", {}, 0)
    with pytest.raises(ValueError, match=r"share the labels \['k=1'\]"):
        identity_tables(acc, legs, 16, 1e-6)
    assert acc.count == 0  # refused before any table is built


def test_monomial_basis_is_every_small_chamber_point_in_order():
    for k in (1, 2, 3):
        for d in range(6):
            want = sorted(m for m in itertools.product(range(-d, d + 1), repeat=k)
                          if list(m) == sorted(m, reverse=True) and sum(map(abs, m)) <= d)
            assert _monomial_basis(k, d) == want


# The checks whose transform tables go through EigenFamily.expand.
ROUTED_CHECKS = ["plancherel-forward", "plancherel-pairing", "biorthogonality-spatial",
                 "orthogonality-spectral", "eps-orthogonality", "eps-plancherel",
                 "sd-plancherel", "sd-biorthogonality"]


@pytest.mark.parametrize("check,q", [
    (check, q) for check in ROUTED_CHECKS
    for q in ((0.1, 0.3, 0.5) if "q" in inspect.signature(REGISTRY[check].fn).parameters
              else (None,))
])
def test_routed_checks_pass_across_q(check, q):
    report = run_check(check, **({} if q is None else {"q": q}))
    assert report.passed, report.summary_line()
