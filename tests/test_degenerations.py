import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qboson.degenerations
from qboson.contours import QuadratureSpec, nested_contours, sd_nested_contours
from qboson.degenerations import (
    SdeResult,
    admissible_F,
    c_eps,
    cauchy_littlewood_check,
    crl_relation_check,
    d_eps,
    deriv_matrices,
    hl_P,
    hl_Q,
    hl_dictionary_residuals,
    left_sources,
    oy_simulate,
    psi_cfwd_eps_derivative,
    psi_left_eps_derivative,
    sd_moment_formula,
    sd_moment_poisson_chain,
    spectral_orthogonality_sides,
)
from qboson.eigenfunctions import EigenFamily, eigen_eval
from qboson.plancherel import composition_table, mu_density_grid
from qboson.qcore import Partition, WeylVector, cq_weight, weyl_vectors_in_box
from qboson.registry import run_check

Q = 0.5


def test_c_eps_and_d_eps_values():
    assert c_eps(2, 1, 0.7, Q) == pytest.approx(Q)
    assert c_eps(1, 0, 0.9, Q) == pytest.approx(1.0)
    for k in (1, 2, 3, 5, 8):
        assert d_eps(k, k - 1, 0.31, Q) == pytest.approx((1 - Q**k) / (1 - Q))
    assert d_eps(3, 5, 1.0, Q) == 0.0


def test_c_eps_recurrence():
    for eps in (0.25, 1.0):
        for k in range(2, 9):
            for i in range(k):
                lhs = c_eps(k, i, eps, Q)
                rhs = (c_eps(k - 1, i - 1, eps, Q) * Q ** (k - i)
                       + c_eps(k - 1, i, eps, Q) * eps * (1 - Q ** (k - i - 1)))
                assert lhs == pytest.approx(rhs, abs=1e-14)


def test_d_eps_is_partial_sum_of_c_eps():
    for k in range(1, 7):
        for p in range(k):
            s = sum(c_eps(k - p + j, j, 0.61, Q) for j in range(p + 1))
            assert d_eps(k, p, 0.61, Q) == pytest.approx(s, rel=1e-12)


def test_deriv_expansion_exact():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        coords = tuple(sorted(rng.integers(-4, 5, size=k).tolist(), reverse=True))
        n = WeylVector(coords)
        eps = float(rng.uniform(0.2, 1.3))
        z = rng.normal(eps + 1.0, 0.4, k) + 1j * rng.normal(0, 0.6, k)
        fam_c = EigenFamily("eps-cfwd", Q, eps)
        d_sum = sum(e.value * eigen_eval(fam_c, z, e.target, validate=False)
                    for e in deriv_matrices(n, "right", eps, Q))
        assert abs(d_sum - psi_cfwd_eps_derivative(z, n, eps, Q)) < 1e-10 * (
            1 + abs(d_sum))
        fam_l = EigenFamily("eps-left", Q, eps)
        d_sum = sum(e.value * eigen_eval(fam_l, z, e.target, validate=False)
                    for e in deriv_matrices(n, "left", eps, Q))
        assert abs(d_sum - psi_left_eps_derivative(z, n, eps, Q)) < 1e-10 * (
            1 + abs(d_sum))


def test_crl_single_clusters_and_worked_case():
    # all clusters of size one: both sides reduce to (n-1)-type ratios
    r = crl_relation_check(WeylVector((4, 2, 0)), 0.3, Q)
    assert r["worst"] < 1e-13
    # the worked two-block configuration
    for a, b in ((2, 1), (3, 2), (1, 3)):
        n = WeylVector(tuple([5] * a + [4] * b))
        for eps in (0.3, 1.0):
            r = crl_relation_check(n, eps, Q)
            assert r["worst"] < 1e-12
    # explicit pair argument
    n = WeylVector((3, 3))
    m = WeylVector((2, 1))
    r = crl_relation_check(n, 0.5, Q, m=m)
    assert r["pairs"] == 1 and r["worst"] < 1e-12


def _box_left_sources(n, eps, q):
    """Reference for ``left_sources``: every m of a whole Weyl box around n
    whose left row at m+1 reaches n, found by building that row."""
    return {mm for mm in weyl_vectors_in_box(n.k, n.coords[-1] - n.k - 2, n.coords[0] + 1)
            if any(e.target == n for e in deriv_matrices(mm.shift(1), "left", eps, q))}


def _box_crl_relation_check(n, eps, q):
    """Reference for ``crl_relation_check``: targets from the box, values by
    first-match search of each row."""
    def value(src, tgt, side):
        for e in deriv_matrices(src, side, eps, q):
            if e.target == tgt:
                return e.value
        return 0.0

    targets = {e.target for e in deriv_matrices(n.shift(-1), "right", eps, q)}
    targets |= _box_left_sources(n, eps, q)
    worst = 0.0
    for mm in targets:
        lhs = value(n.shift(-1), mm, "right") / cq_weight(n, q)
        rhs = -value(mm.shift(1), n, "left") / cq_weight(mm.shift(1), q)
        worst = max(worst, abs(lhs - rhs))
    return {"worst": worst, "pairs": len(targets)}


def test_left_sources_equal_box_enumeration():
    for k in range(1, 5):
        for n in weyl_vectors_in_box(k, -2, 2):
            assert set(left_sources(n, 0.7, Q)) == _box_left_sources(n, 0.7, Q), n


@settings(max_examples=6)
@given(st.lists(st.integers(-2, 2), min_size=5, max_size=5).filter(lambda xs: len(set(xs)) < 5))
def test_left_sources_equal_box_enumeration_k5_ties(xs):
    n = WeylVector(tuple(sorted(xs, reverse=True)))
    assert set(left_sources(n, 0.7, Q)) == _box_left_sources(n, 0.7, Q)


def test_crl_relation_check_matches_box_version():
    # the eps-deriv-relation check's fixed states and this file's worked cases
    states = [(3,), (2, 2), (4, 4, 1), (5, 5, 5, 2, 2), (1, 0, 0, -1, -1),
              (4, 2, 0), (5, 5, 4), (5, 5, 5, 4, 4), (5, 4, 4, 4), (3, 3)]
    for coords in states:
        n = WeylVector(coords)
        for eps in (0.3, 1.0):
            assert crl_relation_check(n, eps, Q) == _box_crl_relation_check(n, eps, Q), coords


def test_eps_deriv_relation_work_count(monkeypatch):
    # the target search costs O(k^2) rows per state, not a box of them
    calls = 0
    inner = qboson.degenerations.deriv_matrices

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(qboson.degenerations, "deriv_matrices", counted)
    for seed in (0, 801, 901, 1001):
        calls = 0
        assert run_check("eps-deriv-relation", seed=seed).passed
        assert 0 < calls <= 2000, (seed, calls)


def test_hl_polynomial_base_cases():
    assert hl_P(WeylVector((3,)), [1.1 + 0.2j], Q) == pytest.approx((1.1 + 0.2j) ** 3)
    assert hl_P(WeylVector((1, 0)), [1.2, 0.7], Q) == pytest.approx(1.9)
    assert hl_P(WeylVector((1, 1)), [1.2, 0.7], Q) == pytest.approx(0.84)
    assert hl_Q(WeylVector((2,)), [1.3], Q) == pytest.approx((1 - Q) * 1.69)
    with pytest.raises(ValueError):
        hl_Q(WeylVector((1, 0)), [1.0, 2.0], Q)
    with pytest.raises(ValueError):
        hl_P(WeylVector((1, -1)), [1.0, 2.0], Q)


def test_hl_dictionary():
    rng = np.random.default_rng(1)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        n = WeylVector(tuple(sorted(rng.integers(0, 6, size=k).tolist(), reverse=True)))
        z = rng.uniform(0.5, 1.8, k) * np.exp(1j * rng.uniform(0, 6.28, k))
        rl, rr = hl_dictionary_residuals(n, list(z), Q)
        assert rr < 1e-12
        if not math.isnan(rl):
            assert rl < 1e-12


def test_cauchy_littlewood():
    r = cauchy_littlewood_check(1, Q, [0.3], [1.1], depth=60)
    assert abs(r["lhs"] - (1.1 - Q * 0.3) / (1.1 - 0.3)) < 1e-10
    r = cauchy_littlewood_check(2, Q, [0.2, 0.1], [1.0, 1.3], depth=40)
    assert abs(r["lhs"] - r["rhs"]) < 1e-8
    assert r["tail_bound"] < 1e-8
    with pytest.raises(ValueError):
        cauchy_littlewood_check(1, Q, [1.2], [1.0], depth=10)


def test_spectral_orthogonality_eps_family():
    for eps in (0.0, 0.5, 1.0):
        F = admissible_F(2, eps, [2, 3])
        G = lambda ws, _e=eps: (_e - ws[0]) ** 2 + 0.5 * (_e - ws[1])
        r = spectral_orthogonality_sides(F, G, eps, 2, Q)
        assert abs(r["lhs"] - r["rhs"]) <= 1e-9 + r["tail_bound"]
    # the k=1 order-2 case has the nonzero value -1
    F = admissible_F(1, 0.5, [2])
    G = lambda ws: ws[0] * 0 + 1.0
    r = spectral_orthogonality_sides(F, G, 0.5, 1, Q)
    assert r["rhs"] == pytest.approx(-1.0, abs=1e-10)
    assert abs(r["lhs"] - r["rhs"]) < 1e-10


def test_admissible_F_validation():
    with pytest.raises(ValueError):
        admissible_F(2, 0.5, [1, 2])
    with pytest.raises(ValueError):
        admissible_F(2, 0.5, [2])


def test_eps_pipeline_reduction_and_eigen():
    n = WeylVector((2, 0))
    z = [0.9 + 0.4j, -0.2 + 0.8j]
    from qboson.generators import GeneratorKind, generator_apply

    gk = GeneratorKind("bwd", "eps", Q, 0.5)
    psi = lambda m: eigen_eval(EigenFamily("eps-left", Q, 0.5), z, m)
    lhs = generator_apply(gk, psi, n)
    assert abs(lhs - (Q - 1) * sum(z) * psi(n)) < 1e-12
    with pytest.raises(ValueError, match="needs eps > 0"):
        run_check("eps-plancherel", q=Q, eps=0.0)


def test_eps_pipeline_plancherel_small():
    states = list(weyl_vectors_in_box(1, -2, 2))
    cs = nested_contours(1, Q, r_k=0.15, center=0.5)
    T = composition_table(states, cs, QuadratureSpec(128), Q, model="eps", eps=0.5)
    assert np.abs(T - np.eye(len(states))).max() < 1e-8


def test_sd_pipeline():
    w = [np.asarray(0.3 + 0.1j)]
    assert complex(mu_density_grid(Partition((1,)), w, Q, model="sd")) == pytest.approx(1.0)
    n = WeylVector((1, 0))
    z = [1.3 + 0.4j, -0.8 + 0.2j]
    from qboson.generators import GeneratorKind, generator_apply

    gk = GeneratorKind("bwd", "sd", Q)
    psi = lambda m: eigen_eval(EigenFamily("sd-left", Q), z, m)
    assert abs(generator_apply(gk, psi, n) - sum(v - 1 for v in z) * psi(n)) < 1e-12
    states = list(weyl_vectors_in_box(2, -2, 2))
    T = composition_table(states, sd_nested_contours(2), QuadratureSpec(128), Q, model="sd")
    assert np.abs(T - np.eye(len(states))).max() < 1e-9


def test_sd_moment_closed_forms():
    assert sd_moment_formula(WeylVector((1,)), 1.0) == pytest.approx(math.exp(-1), abs=1e-12)
    for n in (2, 3, 5):
        assert sd_moment_formula(WeylVector((n,)), 0.7) == pytest.approx(
            sd_moment_poisson_chain(n, 0.7), abs=1e-12)
    with pytest.raises(ValueError):
        sd_moment_formula(WeylVector((1, 0)), 1.0)


def test_oy_simulation_moments():
    res = oy_simulate(2, 1.0, 1e-3, 30_000, seed=21)
    assert np.all(res.Z > 0)
    e1, s1 = res.moment([1])
    assert abs(e1 - math.exp(-1)) < 4 * s1 + 2e-3  # 4 sigma plus O(h) bias allowance
    e2, s2 = res.moment([2])
    assert abs(e2 - math.exp(-1)) < 4 * s2 + 2e-3  # E Z(t,2) = t e^{-t} at t = 1
    e21, s21 = res.moment([2, 1])
    v = sd_moment_formula(WeylVector((2, 1)), 1.0).real
    assert abs(e21 - v) < 4 * s21 + 2e-3


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_sd_entry_points_reject_a_bad_t(t):
    with pytest.raises(ValueError, match="t must be a finite number >= 0"):
        sd_moment_formula(WeylVector((1,)), t)
    with pytest.raises(ValueError, match="t must be a finite number >= 0"):
        oy_simulate(2, t, 1e-3, 10, seed=0)


def test_oy_weak_error_shrinks_with_step():
    # first-order weak convergence observed on site 2 (site 1 is exact, so
    # its estimator carries no step bias at all)
    errs = []
    for h in (0.25, 0.05):
        biases = []
        for rep in range(4):
            res = oy_simulate(2, 1.0, h, 50_000, seed=100 + rep)
            e, _ = res.moment([2])
            biases.append(e - math.exp(-1.0))  # E Z(1, 2) = t e^{-t} at t = 1
        errs.append(abs(np.mean(biases)))
    assert errs[1] < errs[0]


def test_oy_trajectory_csv(tmp_path):
    path = tmp_path / "sde.csv"
    oy_simulate(3, 0.2, 1e-2, 50, seed=4, trajectory_csv=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,Z_1,Z_2,Z_3"
    assert len(lines) > 2


def _naive_oy_simulate(N, t, dt, paths, seed, trajectory_csv):
    """Reference sampler, written plainly: path-major state, one (paths, N) draw
    per step, masked births at every step."""
    rng = np.random.default_rng(seed)
    steps = max(1, int(round(t / dt)))
    h = t / steps
    sqh = math.sqrt(h)
    u = np.full((paths, N), -np.inf)
    u[:, 0] = 0.0
    log_h = math.log(h) if h > 0 else -np.inf
    snapshots = []
    for s in range(steps):
        xi = rng.standard_normal((paths, N))
        unew = np.empty_like(u)
        unew[:, 0] = u[:, 0] - 1.5 * h + sqh * xi[:, 0]
        for n_ in range(1, N):
            alive = np.isfinite(u[:, n_])
            with np.errstate(invalid="ignore"):
                ratio = np.exp(np.clip(u[:, n_ - 1] - u[:, n_], -700, 700))
                step_alive = u[:, n_] + (ratio - 1.5) * h + sqh * xi[:, n_]
            born = np.isfinite(u[:, n_ - 1]) & ~alive
            step_born = u[:, n_ - 1] + log_h
            unew[:, n_] = np.where(alive, step_alive, np.where(born, step_born, -np.inf))
        u = unew
        if s % max(1, steps // 64) == 0 or s == steps - 1:
            snapshots.append(((s + 1) * h, np.exp(u[0])))
    with open(trajectory_csv, "w") as fh:
        fh.write("time," + ",".join(f"Z_{i+1}" for i in range(N)) + "\n")
        for tt, row in snapshots:
            fh.write(f"{tt!r}," + ",".join(repr(float(v)) for v in row) + "\n")
    return np.exp(u)


OY_GRID = [(N, t, dt, 50, seed) for N in range(1, 6) for seed in (0, 7)
           for t, dt in ((0, 1e-3), (0.002, 1e-3), (0.05, 1e-3), (0.3, 0.01), (1, 0.5))]
# blocks of two steps ending in a one-step block; two blocks of 6553 and 47 steps
OY_BLOCKS = [(3, 0.051, 1e-3, 15_000, 3), (2, 6.6, 1e-3, 10, 5)]


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("N,t,dt,paths,seed", OY_GRID + OY_BLOCKS)
def test_oy_simulate_bit_equal_to_naive_loop(tmp_path, N, t, dt, paths, seed):
    want = _naive_oy_simulate(N, t, dt, paths, seed, tmp_path / "naive.csv")
    if not np.isfinite(want).all():
        # the scheme overflows on this grid point: the sampler says so
        with pytest.raises(ValueError, match="overflowed"):
            oy_simulate(N, t, dt, paths, seed=seed, trajectory_csv=str(tmp_path / "got.csv"))
        assert not (tmp_path / "got.csv").exists()
        return
    res = oy_simulate(N, t, dt, paths, seed=seed, trajectory_csv=str(tmp_path / "got.csv"))
    assert res.Z.shape == (paths, N) and res.Z.flags.c_contiguous
    assert res.Z.tobytes() == want.tobytes()
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "naive.csv").read_bytes()


def test_oy_simulate_joins_its_helper_thread(monkeypatch):
    before = threading.active_count()
    oy_simulate(2, 0.1, 1e-2, 20, seed=1)
    assert threading.active_count() == before
    with pytest.raises(ValueError, match="overflowed"):
        oy_simulate(5, 0.05, 1e-3, 3, seed=0)
    assert threading.active_count() == before
    real_step = qboson.degenerations._oy_euler_step

    def failing_step(u, xi, s, *rest):
        if s == 3:
            raise RuntimeError("step failed")
        real_step(u, xi, s, *rest)

    monkeypatch.setattr(qboson.degenerations, "_oy_euler_step", failing_step)
    with pytest.raises(RuntimeError, match="step failed"):
        oy_simulate(2, 0.1, 1e-3, 70_000, seed=1)  # one step per block
    assert threading.active_count() == before


def test_oy_simulate_concurrent_calls_are_seed_determined(tmp_path):
    # three calls at once, each with its own helper thread, on fewer cores
    # and with a short switch interval: every result must still equal the
    # serial reference of its seed
    args = (3, 0.051, 1e-3, 15_000)  # 26 blocks of at most two steps
    want = {seed: _naive_oy_simulate(*args, seed, tmp_path / f"{seed}.csv") for seed in (1, 2, 3)}
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=lambda sd=seed: got.__setitem__(
            sd, oy_simulate(*args, seed=sd).Z)) for seed in want]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert {seed: z.tobytes() for seed, z in got.items()} == {
        seed: z.tobytes() for seed, z in want.items()}


@pytest.mark.parametrize("N,paths", [(0, 10), (-1, 10), (2, 0), (2, -3)])
def test_oy_simulate_rejects_empty_systems(N, paths):
    with pytest.raises(ValueError, match="need N >= 1 sites and paths >= 1"):
        oy_simulate(N, 0.1, 1e-2, paths)


def test_monte_carlo_moment_needs_two_paths():
    res = oy_simulate(2, 0.1, 1e-2, 1, seed=0)
    with pytest.raises(ValueError, match="paths >= 2"):
        res.moment([1])
    one = SdeResult(Z=np.ones((2, 1)), t=0.0, dt=1.0, seed=0)
    assert one.moment([1]) == (1.0, 0.0)
