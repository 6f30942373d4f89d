import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from qboson.eigenfunctions import EigenFamily, eigen_eval
from qboson.generators import (
    GeneratorKind,
    StateBox,
    boundary_residual,
    cluster_weight_diagonal,
    dense_exponential_transition,
    extended_apply,
    free_apply,
    generator_apply,
    matrix_on_box,
    poisson_terms_needed,
    reflection_permutation,
    uniformized_exponential,
    uniformized_transition,
)
from qboson.qcore import WeylVector, cluster_decompose

Q = 0.5


def test_backward_single_cluster():
    # two particles together: one rate 1 - q^2, the lower particle moves
    calls = []

    def f(n):
        calls.append(n.coords)
        return {(0, -1): 5.0, (0, 0): 2.0}.get(n.coords, 0.0)

    gk = GeneratorKind("bwd", "qboson", Q)
    v = generator_apply(gk, f, WeylVector((0, 0)))
    assert v == pytest.approx((1 - Q**2) * (5.0 - 2.0))


def test_forward_single_particle():
    gk = GeneratorKind("fwd", "qboson", Q)
    f = lambda n: {(1,): 3.0, (0,): 1.0}.get(n.coords, 0.0)
    # rate 1-q in, rate 1-q out
    assert generator_apply(gk, f, WeylVector((0,))) == pytest.approx((1 - Q) * (3.0 - 1.0))


def test_cfwd_is_conjugated_forward():
    from qboson.qcore import cq_weight

    rng = np.random.default_rng(0)
    for eps in (1.0, 0.4):
        for _ in range(60):
            k = int(rng.integers(1, 5))
            coords = tuple(sorted(rng.integers(-4, 5, size=k).tolist(), reverse=True))
            n = WeylVector(coords)
            table = {}

            def f(m):
                if m not in table:
                    table[m] = complex(*np.random.default_rng(hash(m.coords) % 2**32).normal(size=2))
                return table[m]

            gkc = GeneratorKind("cfwd", "qboson", Q, eps)
            gkf = GeneratorKind("fwd", "qboson", Q, eps)
            lhs = generator_apply(gkc, f, n)
            # C_q A^fwd C_q^{-1}
            g = lambda m: f(m) / cq_weight(m, Q)
            rhs = cq_weight(n, Q) * generator_apply(gkf, g, n)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_free_apply_one_particle_eigen():
    z = 0.35 + 0.1j
    u = lambda c: (1 - z) ** (-c[0])
    gk = GeneratorKind("free-bwd", "qboson", Q)
    v = free_apply(gk, u, (3,))
    assert v == pytest.approx((Q - 1) * z * u((3,)))


def test_free_equals_interacting_on_chamber():
    # when the boundary conditions hold, free and interacting agree
    rng = np.random.default_rng(1)
    z = [0.4 + 0.2j, 1.7 - 0.4j, -0.6 + 0.9j]
    fam = EigenFamily("qboson-left", Q)
    import itertools

    def u(coords):
        total = 0.0 + 0.0j
        for perm in itertools.permutations(range(3)):
            term = 1.0 + 0.0j
            for j in range(3):
                term *= (1 - z[perm[j]]) ** (-coords[j])
            for b in range(3):
                for a in range(b + 1, 3):
                    term *= fam.scattering(z[perm[a]], z[perm[b]])
            total += term
        return total

    for _ in range(20):
        coords = tuple(sorted(rng.integers(-3, 4, size=3).tolist(), reverse=True))
        n = WeylVector(coords)
        a = free_apply(GeneratorKind("free-bwd", "qboson", Q), u, n)
        b = generator_apply(GeneratorKind("bwd", "qboson", Q), lambda m: u(m.coords), n)
        assert abs(a - b) <= 1e-11 * (1 + abs(a))


def test_boundary_residual_diagonal_requirement():
    gk = GeneratorKind("free-bwd", "qboson", Q)
    with pytest.raises(ValueError):
        boundary_residual(gk, lambda c: 1.0, 0, (2, 1))


def test_state_box_bounds_its_size_before_enumerating():
    assert StateBox(3, -5, 5).size == 286  # the largest box the test suite builds
    assert StateBox(1, 0, 1999).size == 2000
    with pytest.raises(ValueError, match="holds 2001 states"):
        StateBox(1, 0, 2000)
    # about 9e6 states: refused from the count alone, before any is built
    with pytest.raises(ValueError, match=r"k=2 on \[-4255, 6\] holds 9084453 states"):
        StateBox(2, -4255, 6)


def test_matrix_k1_lower_tridiagonal():
    box = StateBox(1, 0, 2)
    dense = matrix_on_box(GeneratorKind("bwd", "qboson", Q), box).dense()
    # states are (0,), (1,), (2,): acting on f, row n picks f(n-1) with
    # rate 1 - q, i.e. the subdiagonal in the ascending state order
    expect = np.array([
        [-(1 - Q), 0, 0],
        [(1 - Q), -(1 - Q), 0],
        [0, (1 - Q), -(1 - Q)],
    ])
    assert np.allclose(dense, expect)


def test_matrix_transpose_and_pt():
    box = StateBox(2, -2, 2)
    B = matrix_on_box(GeneratorKind("bwd", "qboson", Q), box).dense()
    F = matrix_on_box(GeneratorKind("fwd", "qboson", Q), box).dense()
    assert np.abs(B.T - F).max() < 1e-14
    perm = reflection_permutation(box)
    C = cluster_weight_diagonal(GeneratorKind("bwd", "qboson", Q), box)
    Rm = np.zeros_like(B)
    Rm[np.arange(len(perm)), perm] = 1.0
    RC = Rm @ np.diag(C)
    assert np.abs(B - RC @ F @ np.linalg.inv(RC)).max() < 1e-12


def test_forward_matrix_stochasticity():
    box = StateBox(2, -3, 3)
    A = matrix_on_box(GeneratorKind("fwd", "qboson", Q), box).dense()
    off = A - np.diag(np.diag(A))
    assert off.min() >= 0
    # a column is a source state: only the bottom edge n_k = lo jumps out
    bottom = np.array([n.coords[-1] == box.lo for n in box.states])
    sums = A.sum(axis=0)
    assert np.abs(sums[~bottom]).max() < 1e-13
    assert (sums[bottom] < -0.1).all()  # the bottom edge leaks


def test_uniformization_t0_and_poisson():
    gk = GeneratorKind("fwd", "qboson", Q)
    y = WeylVector((0,))
    box = StateBox(1, -20, 1)
    pmf = uniformized_transition(gk, 0.0, y, box)
    assert pmf[y] == pytest.approx(1.0)
    t = 0.8
    pmf = uniformized_transition(gk, t, y, box, tol=1e-13)
    lam = (1 - Q) * t
    for j in range(6):
        expect = math.exp(-lam) * lam**j / math.factorial(j)
        assert pmf[WeylVector((-j,))] == pytest.approx(expect, abs=1e-12)


def test_uniformization_mass_conservation():
    gk = GeneratorKind("fwd", "qboson", Q)
    y = WeylVector((1, 0))
    box = StateBox(2, -12, 2)
    pmf = uniformized_transition(gk, 0.5, y, box, tol=1e-12)
    assert sum(pmf.probs.values()) == pytest.approx(1.0, abs=1e-11)  # the box holds the mass


def test_uniformization_vs_dense_exponential():
    gk = GeneratorKind("fwd", "qboson", Q)
    y = WeylVector((1, 0))
    box = StateBox(2, -8, 2)  # 66 states
    a = uniformized_transition(gk, 0.7, y, box, tol=1e-13)
    b = dense_exponential_transition(gk, 0.7, y, box)
    worst = max(abs(a[n] - b[n]) for n in b.probs)
    assert worst < 1e-9


def test_uniformization_rejects_nonstochastic():
    with pytest.raises(ValueError):
        uniformized_transition(GeneratorKind("bwd", "qboson", Q), 1.0,
                               WeylVector((0,)), StateBox(1, -2, 2))
    with pytest.raises(ValueError):
        uniformized_transition(GeneratorKind("fwd", "sd"), 1.0,
                               WeylVector((0,)), StateBox(1, -2, 2))


def test_uniformization_rejects_a_moved_marked_point():
    # at eps != 1 the forward generator's columns do not sum to zero
    with pytest.raises(ValueError, match=r"\(eps = 1\)"):
        uniformized_transition(GeneratorKind("fwd", "qboson", Q, 0.7), 1.0,
                               WeylVector((0,)), StateBox(1, -2, 2))


def test_extended_apply_cases():
    # no equal coordinates: reduces to the plain free generator
    vals = {(2, 0): 1.0, (1, 0): 4.0, (2, -1): -2.0, (1, -1): 0.5}
    f = lambda c: vals.get(tuple(c), 0.0)
    lhs = extended_apply(f, (2, 0), Q)
    rhs = (1 - Q) * ((f((1, 0)) - f((2, 0))) + (f((2, -1)) - f((2, 0))))
    assert lhs == pytest.approx(rhs)
    # constant on a diagonal point: zero
    assert extended_apply(lambda c: 7.0, (3, 3), Q) == pytest.approx(0.0)


def test_extended_apply_eigenrelation_on_ties():
    z = [0.4 + 0.2j, -0.7 + 0.1j]
    fam = EigenFamily("qboson-left", Q)

    def psi_ext(coords):
        return eigen_eval(fam, z, WeylVector(tuple(sorted(coords, reverse=True))))

    for coords in ((1, 1), (0, 3), (3, 0)):
        lhs = extended_apply(psi_ext, coords, Q)
        rhs = (Q - 1) * sum(z) * psi_ext(coords)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_matrix_eigenvalue_on_interior_states():
    # matrix(bwd) applied to the left eigenfunction vector reproduces the
    # eigenvalue on states whose one-step stencil stays inside the box
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        box = StateBox(k, -5, 5)
        gk = GeneratorKind("bwd", "qboson", Q)
        M = matrix_on_box(gk, box).dense()
        z = rng.normal(1.4, 0.4, k) + 1j * rng.normal(0, 0.5, k)
        fam = EigenFamily("qboson-left", Q)
        vec = np.array([eigen_eval(fam, z, n) for n in box.states])
        out = M @ vec
        ev = (Q - 1) * z.sum()
        for i, n in enumerate(box.states):
            if n.coords[-1] > box.lo:  # interior: the lowered state stays inside
                assert abs(out[i] - ev * vec[i]) <= 1e-9 * (1 + abs(ev * vec[i]))


# Naive reference: the per-model generators written out by hand, as they
# stood before every kind and model was built from one row.  The row feeds
# both sides of pt-invariance and of every matrix-exponential oracle, so it
# is diffed against these.
def _bump(n, i, delta):
    """n with coordinate i shifted by delta; ValueError off the chamber."""
    c = list(n.coords)
    c[i] += delta
    return WeylVector(tuple(c))


def _ref_generator_apply(gk, f, n):
    q, eps = gk.q, gk.eps
    spans = cluster_decompose(n)
    out = 0.0 + 0.0j

    if gk.kind == "bwd":
        for head, stop in spans:
            c = stop - head
            tail = stop - 1  # the last particle of the cluster
            if gk.model == "sd":
                out += c * (f(_bump(n, tail, -1)) - f(n)) + 0.5 * c * (c - 1) * f(n)
            else:
                out += (1.0 - q**c) * (f(_bump(n, tail, -1)) - eps * f(n))
        return out

    if gk.kind == "cfwd":
        for head, stop in spans:
            c = stop - head
            if gk.model == "sd":
                out += c * (f(_bump(n, head, +1)) - f(n)) + 0.5 * c * (c - 1) * f(n)
            else:
                out += (1.0 - q**c) * (f(_bump(n, head, +1)) - eps * f(n))
        return out

    if gk.kind == "fwd":
        c_prev = 0  # size of the cluster to the left, 0 before the first
        for head, stop in spans:
            c = stop - head
            # the cluster to the left sits one step above this one
            merge = head > 0 and n.coords[head - 1] == n.coords[head] + 1
            if gk.model == "sd":
                rate_in = (c_prev + 1.0) if merge else 1.0
                out += rate_in * f(_bump(n, head, +1)) - c * f(n) + 0.5 * c * (c - 1) * f(n)
            else:
                rate_in = (1.0 - q ** (c_prev + 1)) if merge else (1.0 - q)
                out += rate_in * f(_bump(n, head, +1)) - eps * (1.0 - q**c) * f(n)
            c_prev = c
        return out

    raise ValueError(f"{gk.kind} is a free kind; use free_apply")


def _grad_bwd(u, coords, i, eps):
    lowered = coords[:i] + (coords[i] - 1,) + coords[i + 1 :]
    return u(lowered) - eps * u(coords)


def _grad_fwd(u, coords, i, eps):
    raised = coords[:i] + (coords[i] + 1,) + coords[i + 1 :]
    return u(raised) - eps * u(coords)


def _ref_free_apply(gk, u, n):
    coords = tuple(n.coords) if isinstance(n, WeylVector) else tuple(n)
    k = len(coords)
    scale = 1.0 if gk.model == "sd" else (1.0 - gk.q)
    grad = _grad_bwd if gk.kind == "free-bwd" else _grad_fwd
    if gk.kind not in ("free-bwd", "free-fwd"):
        raise ValueError(f"{gk.kind} is an interacting kind; use generator_apply")
    return scale * sum(grad(u, coords, i, gk.eps) for i in range(k))


def _ref_boundary_residual(gk, u, i, n):
    coords = tuple(n.coords) if isinstance(n, WeylVector) else tuple(n)
    if coords[i] != coords[i + 1]:
        raise ValueError("boundary residual is defined on the diagonal n_i = n_{i+1}")
    q, eps = gk.q, gk.eps
    if gk.kind == "free-bwd":
        gi = _grad_bwd(u, coords, i, eps)
        gi1 = _grad_bwd(u, coords, i + 1, eps)
        if gk.model == "sd":
            return gi - gi1 - u(coords)
        return gi - q * gi1
    if gk.kind == "free-fwd":
        gi = _grad_fwd(u, coords, i, eps)
        gi1 = _grad_fwd(u, coords, i + 1, eps)
        if gk.model == "sd":
            return u(coords) + gi - gi1
        return q * gi - gi1
    raise ValueError("boundary residuals are defined for the free kinds")


def _ref_matrix_on_box(gk, box):
    states = box.states
    idx = box.index()
    rows, cols, vals = [], [], []
    for j, src in enumerate(states):
        # Column j: coefficients of (A e_src)(target) for targets in the box.
        def e_src(m, _src=src):
            return 1.0 if m == _src else 0.0

        # Collect targets cheaply: A e_src is supported on src and its one-step
        # neighbours inside the chamber.
        targets = {src}
        for i in range(box.k):
            for d in (-1, +1):
                try:
                    targets.add(_bump(src, i, d))
                except ValueError:
                    pass
        for tgt in targets:
            if tgt not in idx:
                continue
            v = _ref_generator_apply(gk, e_src, tgt)
            if v != 0:
                rows.append(idx[tgt])
                cols.append(j)
                vals.append(complex(v))
    data = np.asarray(vals, dtype=complex)
    if not data.imag.any():
        data = data.real
    return sp.csr_matrix((data, (rows, cols)), shape=(box.size, box.size))


# The model cases of the checks: the q-Boson model at eps 1 and 0.4, and the
# semi-discrete model.
MODEL_CASES = [("qboson", Q, 1.0), ("qboson", Q, 0.4), ("sd", None, 1.0)]


@pytest.mark.parametrize("kind", ["bwd", "fwd", "cfwd"])
@pytest.mark.parametrize("model,q,eps", MODEL_CASES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_box_matrices_match_the_naive_reference_bit_for_bit(kind, model, q, eps, k):
    box = StateBox(k, -4, 4)
    gk = GeneratorKind(kind, model, q, eps)
    got = matrix_on_box(gk, box)
    want = _ref_matrix_on_box(gk, box)
    assert got.vals.dtype == want.dtype == np.float64
    assert np.array_equal(got.dense(), want.toarray())
    # the arrays hold the entries in the order a canonical CSR matrix stores them
    want.sort_indices()
    assert np.array_equal(got.rows, np.repeat(np.arange(box.size), np.diff(want.indptr)))
    assert np.array_equal(got.cols, want.indices)
    assert np.array_equal(got.vals, want.data)


def _scipy_absorbing(gk, box):
    """The box generator extended by one absorbing state, as the package
    built it for uniformized_transition before it exponentiated the box
    generator alone: a scipy CSR matrix with leak row -A.sum(axis=0)."""
    A = _ref_matrix_on_box(gk, box)
    A_abs = sp.vstack([A, -A.sum(axis=0)], format="csr")
    A_abs.resize(box.size + 1, box.size + 1)
    return A_abs


def _scipy_uniformized(gk, t, y, box, tol):
    """Uniformization on scipy CSR matrices, the loop as the package wrote it
    before its box matrices became numpy arrays."""
    idx = box.index()
    lam = float(box.k)
    P = sp.identity(box.size + 1, format="csr") + _scipy_absorbing(gk, box) / lam
    J = poisson_terms_needed(lam * t, tol)
    v = np.zeros(box.size + 1)
    v[idx[y]] = 1.0
    weight = math.exp(-lam * t)
    acc = weight * v
    used = weight
    for j in range(1, J + 1):
        v = P @ v
        weight *= lam * t / j
        acc += weight * v
        used += weight
    return acc, 1.0 - used


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("y,lo,t", [((0,), -12, 1.3), ((1, 0), -8, 0.7), ((1, 1), -7, 1.0),
                                    ((1, 0, 0), -5, 0.5), ((2, 1, -1), -4, 1.2)])
def test_uniformization_matches_a_scipy_csr_loop_bit_for_bit(q, y, lo, t):
    # the absorbing state's column is zero, so dropping it leaves every
    # in-box row the same entries, summed in the same order
    gk = GeneratorKind("fwd", "qboson", q)
    y = WeylVector(y)
    box = StateBox(y.k, lo, y.coords[0] + 1)
    pmf = uniformized_transition(gk, t, y, box, tol=1e-12)
    acc, tail = _scipy_uniformized(gk, t, y, box, 1e-12)
    assert pmf.probs == {n: float(acc[i]) for n, i in box.index().items() if acc[i] > 0.0}
    assert pmf.tail_bound == tail
    # the mass the reference's absorbing state collected is what left the box
    assert acc[box.size] > 0
    assert sum(pmf.probs.values()) + acc[box.size] == pytest.approx(1.0, abs=1e-11)


def test_uniformization_refuses_a_rate_below_an_exit_rate():
    A = matrix_on_box(GeneratorKind("bwd", "qboson", Q), StateBox(2, -2, 2))
    v = np.ones(A.size)
    uniformized_exponential(A, 1.0, v, 1.0, 1e-12)  # no exit rate exceeds 2 (1 - q) = 1
    with pytest.raises(ValueError, match="negative entry"):
        uniformized_exponential(A, 1.0, v, 0.5, 1e-12)


@pytest.mark.parametrize("kind,t", [("bwd", 400.0), ("fwd", 400.0), ("fwd", 2000.0)])
def test_uniformization_splits_a_long_time(kind, t):
    # e^{-rate t} underflows at rate * t = 800 and 4000; 2 and 6 steps of a
    # mean below 700 answer, within 1e-12 of scipy's expm entry by entry,
    # at values from 1e-12 down to 1e-85
    A = matrix_on_box(GeneratorKind(kind, "qboson", 0.95), StateBox(2, -1, 1))
    v = np.arange(1.0, A.size + 1)
    got, tail = uniformized_exponential(A, t, v, 2.0, 1e-12)
    want = expm(t * A.dense()) @ v
    assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()
    assert abs(tail) < 1e-12


def test_k4_uniformization_stays_sparse():
    # 1,820 states: a dense matrix would take 26 MB; the bincount products
    # hold a few arrays of the 7,735 entries, and the peak, about 2.3 MB, is
    # mostly the Python list the entries are generated into
    gk = GeneratorKind("fwd", "qboson", Q)
    y = WeylVector((0, 0, 0, 0))
    box = StateBox(4, -11, 1)
    box.index()  # the enumeration is the box's, cached, not the exponential's
    tracemalloc.start()
    try:
        pmf = uniformized_transition(gk, 0.05, y, box, tol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (box.size + 1) ** 2 * 8 / 5
    assert sum(pmf.probs.values()) == pytest.approx(1.0, abs=1e-11)  # the box holds the mass


def _random_points(rng, count):
    """Chamber points of k <= 5 particles with many ties and near-ties."""
    out = []
    for _ in range(count):
        k = int(rng.integers(1, 6))
        coords = [int(rng.integers(-3, 4))]
        for _ in range(k - 1):
            coords.append(coords[-1] - (0 if rng.random() < 0.5 else int(rng.integers(1, 3))))
        out.append(WeylVector(tuple(coords)))
    return out


def _random_function(rng):
    table = {}

    def f(m):
        key = tuple(m)
        if key not in table:
            table[key] = complex(*rng.normal(size=2))
        return table[key]

    return f


@pytest.mark.parametrize("model,q,eps", MODEL_CASES)
def test_pointwise_generators_match_the_naive_reference(model, q, eps):
    rng = np.random.default_rng(30)
    points = _random_points(rng, 300)
    assert max(stop - start for n in points for start, stop in cluster_decompose(n)) >= 3
    ties = 0
    for n in points:
        f = _random_function(rng)
        pairs = []
        for kind in ("bwd", "fwd", "cfwd"):
            gk = GeneratorKind(kind, model, q, eps)
            pairs.append((generator_apply(gk, f, n), _ref_generator_apply(gk, f, n)))
        for kind in ("free-bwd", "free-fwd"):
            gk = GeneratorKind(kind, model, q, eps)
            pairs.append((free_apply(gk, f, n.coords), _ref_free_apply(gk, f, n.coords)))
            for i in range(n.k - 1):
                if n.coords[i] == n.coords[i + 1]:
                    ties += 1
                    pairs.append((boundary_residual(gk, f, i, n),
                                  _ref_boundary_residual(gk, f, i, n)))
        for got, want in pairs:
            assert abs(got - want) <= 1e-13 * (1 + abs(want))
    assert ties > 100
