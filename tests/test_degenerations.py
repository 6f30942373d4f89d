import inspect
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qboson.degenerations
from qboson.checks.degeneration_checks import check_sd_moment
from qboson.contours import (
    Circle,
    ContourError,
    ContourSystem,
    QuadratureSpec,
    nested_contours,
    string_circle,
)
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
from qboson.dynamics import MomentSpec, mc_mean, moment_mc
from qboson.eigenfunctions import FAMILY_KINDS, EigenFamily, eigen_eval
from qboson.generators import GENERATOR_KINDS, GeneratorKind, generator_apply
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
        fam_c = EigenFamily("qboson-cfwd", Q, eps)
        d_sum = sum(v * eigen_eval(fam_c, z, m, validate=False)
                    for m, v in deriv_matrices(n, "right", eps, Q).items())
        assert abs(d_sum - psi_cfwd_eps_derivative(z, n, eps, Q)) < 1e-10 * (
            1 + abs(d_sum))
        fam_l = EigenFamily("qboson-left", Q, eps)
        d_sum = sum(v * eigen_eval(fam_l, z, m, validate=False)
                    for m, v in deriv_matrices(n, "left", eps, Q).items())
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


def _box_left_sources(n, eps, q):
    """Reference for ``left_sources``: every m of a whole Weyl box around n
    whose left row at m+1 reaches n, found by building that row."""
    return {mm for mm in weyl_vectors_in_box(n.k, n.coords[-1] - n.k - 2, n.coords[0] + 1)
            if n in deriv_matrices(mm.shift(1), "left", eps, q)}


def _box_crl_relation_check(n, eps, q):
    """Reference for ``crl_relation_check``: targets from the box, values
    read from each row."""
    def value(src, tgt, side):
        return deriv_matrices(src, side, eps, q).get(tgt, 0.0)

    targets = set(deriv_matrices(n.shift(-1), "right", eps, q))
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
    gk = GeneratorKind("bwd", "qboson", Q, 0.5)
    psi = lambda m: eigen_eval(EigenFamily("qboson-left", Q, 0.5), z, m)
    lhs = generator_apply(gk, psi, n)
    assert abs(lhs - (Q - 1) * sum(z) * psi(n)) < 1e-12
    with pytest.raises(ValueError, match="needs eps > 0"):
        run_check("eps-plancherel", q=Q, eps=0.0)


def test_eps_pipeline_plancherel_small():
    states = list(weyl_vectors_in_box(1, -2, 2))
    cs = nested_contours(1, Q, r_k=0.15, center=0.5)
    T = composition_table(states, cs, QuadratureSpec(128))
    assert np.abs(T - np.eye(len(states))).max() < 1e-8


def test_eps_is_used_wherever_it_is_accepted():
    # the eps-deformed system is the q-Boson family at its marked point eps:
    # the eigenfunction, the generator and the contours each read that eps
    eps, z = 0.7, [0.9 + 0.4j, -0.2 + 0.8j]

    def naive_left(m):
        # permutation (a, b) puts z_a at place 1 and z_b at place 2
        return sum((z[b] - Q * z[a]) / (z[b] - z[a])
                   * (eps - z[a]) ** (-m.coords[0]) * (eps - z[b]) ** (-m.coords[1])
                   for a, b in ((0, 1), (1, 0)))

    fam = EigenFamily("qboson-left", Q, eps)
    gk = GeneratorKind("bwd", "qboson", Q, eps)
    for coords in ((2, 0), (1, 1), (0, -3)):
        m = WeylVector(coords)
        ref = naive_left(m)
        assert abs(eigen_eval(fam, z, m) - ref) <= 1e-12 * (1 + abs(ref))
        lhs = generator_apply(gk, naive_left, m)
        assert abs(lhs - (Q - 1) * sum(z) * ref) <= 1e-12 * (1 + abs(ref))
    # circles about 1 of radius 0.3 exclude the marked point 0.2
    with pytest.raises(ContourError, match="does not contain the point 0.2"):
        ContourSystem((Circle(1.0, 0.3),), "nested", q=Q, eps=0.2)


def test_semi_discrete_refuses_a_marked_point():
    with pytest.raises(ValueError, match="no marked point"):
        EigenFamily("sd-left", eps=0.5)
    with pytest.raises(ValueError, match="no marked point"):
        GeneratorKind("bwd", "sd", eps=0.5)
    with pytest.raises(ContourError, match="no marked point"):
        ContourSystem((Circle(0j, 0.4),), "nested", q=None, eps=0.5)


def test_semi_discrete_refuses_a_q():
    # the semi-discrete model has no q: a constructor that took one would
    # give the same values for every q
    for side in ("left", "right", "cfwd"):
        with pytest.raises(ValueError, match="has no q"):
            EigenFamily(f"sd-{side}", Q)
    for kind in GENERATOR_KINDS:
        with pytest.raises(ValueError, match="has no q"):
            GeneratorKind(kind, "sd", Q)
    # a contour system reads its model from q: with a q, the semi-discrete
    # circles about 0 are q-Boson ones and miss that model's marked point 1
    for family, radius in (("nested", 0.4), ("string", 0.2)):
        with pytest.raises(ContourError, match="point 1.0"):
            ContourSystem((Circle(0j, radius),), family, q=Q)


def test_qboson_objects_need_q():
    # no hidden default: a q-Boson object without q is refused by name
    for kind in FAMILY_KINDS[:3]:
        with pytest.raises(ValueError, match="q is missing"):
            EigenFamily(kind)
    with pytest.raises(ValueError, match="q is missing"):
        GeneratorKind("bwd")
    # a contour system has no default q: None, the semi-discrete model,
    # must be asked for
    for circles, family in (((Circle(1.0, 0.3),), "nested"),
                            ((Circle(0j, 1.5),), "single"),
                            ((Circle(1.0, 0.1),), "string")):
        with pytest.raises(TypeError, match="'q'"):
            ContourSystem(circles, family)


def test_sd_pipeline():
    w = [np.asarray(0.3 + 0.1j)]
    g = mu_density_grid(Partition((1,)), w, string_circle(None, radius=0.2))
    assert complex(g) == pytest.approx(1.0)
    n = WeylVector((1, 0))
    z = [1.3 + 0.4j, -0.8 + 0.2j]
    gk = GeneratorKind("bwd", "sd")
    psi = lambda m: eigen_eval(EigenFamily("sd-left"), z, m)
    assert abs(generator_apply(gk, psi, n) - sum(v - 1 for v in z) * psi(n)) < 1e-12
    states = list(weyl_vectors_in_box(2, -2, 2))
    T = composition_table(states, nested_contours(2, None, r_k=0.4, margin=0.1),
                          QuadratureSpec(128))
    assert np.abs(T - np.eye(len(states))).max() < 1e-9


def test_sd_moment_closed_forms():
    assert sd_moment_formula(WeylVector((1,)), 1.0).value == pytest.approx(math.exp(-1), abs=1e-12)
    for n in (2, 3, 5):
        assert sd_moment_formula(WeylVector((n,)), 0.7).value == pytest.approx(
            sd_moment_poisson_chain(n, 0.7), abs=1e-12)
    with pytest.raises(ValueError):
        sd_moment_formula(WeylVector((1, 0)), 1.0)


def test_oy_simulation_moments():
    res = oy_simulate(2, 1.0, 1e-3, 30_000, seed=21)
    assert np.all(res.Z > 0)
    e1, s1 = res.moment([1])
    assert abs(e1 - math.exp(-1)) < 4 * s1
    e2, s2 = res.moment([2])
    assert abs(e2 - math.exp(-1)) < 4 * s2  # E Z(t,2) = t e^{-t} at t = 1
    e21, s21 = res.moment([2, 1])
    v = sd_moment_formula(WeylVector((2, 1)), 1.0).value.real
    assert abs(e21 - v) < 4 * s21


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_sd_entry_points_reject_a_bad_t(t):
    with pytest.raises(ValueError, match="t must be a finite number >= 0"):
        sd_moment_formula(WeylVector((1,)), t)
    with pytest.raises(ValueError, match="t must be a finite number >= 0"):
        oy_simulate(2, t, 1e-3, 10, seed=0)


def test_oy_coupled_step_bias_is_below_the_sd_moment_gate():
    # the same Brownian increments at h and h/2, in four chunks of 5e5 paths:
    # the mean difference of the gated observables bounds the step bias at
    # sd-moment's default dt
    h = inspect.signature(check_sd_moment).parameters["dt"].default
    rng = np.random.default_rng(3)
    observables = (lambda z: z[1], lambda z: z[0] * z[1], lambda z: z[1] ** 2)
    diffs = [[], [], []]
    for _ in range(4):
        coarse, fine = np.zeros((2, 500_000)), np.zeros((2, 500_000))
        coarse[0] = fine[0] = 1.0
        for _ in range(round(1.0 / h)):
            dB = rng.standard_normal((2, 500_000, 2)) * math.sqrt(h / 2)
            for half in dB:
                qboson.degenerations._oy_step(fine, np.exp(half - 1.5 * (h / 2)), h / 2)
            qboson.degenerations._oy_step(coarse, np.exp(dB.sum(axis=0) - 1.5 * h), h)
        for d, obs in zip(diffs, observables):
            d.append(obs(coarse) - obs(fine))
    for d in diffs:
        bias, se = mc_mean(np.concatenate(d))
        # 1.2e-3 is sd-moment's smallest standard error, at its 1e5 paths
        assert abs(bias) + 4 * se <= 1.2e-3 / 4


def test_oy_trajectory_csv(tmp_path):
    path = tmp_path / "sde.csv"
    oy_simulate(3, 0.2, 1e-2, 50, seed=4, trajectory_csv=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,Z_1,Z_2,Z_3"
    assert len(lines) > 2


def _shard_streams(paths, seed):
    """The fixed path layout written out: eight contiguous shards, shard i
    holding paths [paths i // 8, paths (i+1) // 8) and drawing from the i-th
    stream spawned from the seed."""
    seqs = np.random.SeedSequence(seed).spawn(8)
    return [(paths * i // 8, paths * (i + 1) // 8, np.random.default_rng(sq))
            for i, sq in enumerate(seqs)]


def _naive_oy_simulate(N, t, dt, paths, seed, trajectory_csv):
    """Reference sampler, written plainly: path-major state, one (paths, N)
    draw per step stacked from the shards' streams, sites stepped in turn."""
    shards = _shard_streams(paths, seed)
    steps = max(1, int(round(t / dt)))
    h = t / steps
    sqh = math.sqrt(h)
    z = np.zeros((paths, N))
    z[:, 0] = 1.0
    snapshots = []
    for s in range(steps):
        xi = np.concatenate([rng.standard_normal((hi - lo, N)) for lo, hi, rng in shards])
        g = np.exp(xi * sqh - 1.5 * h)
        znew = np.empty_like(z)
        znew[:, 0] = z[:, 0] * g[:, 0]
        for n_ in range(1, N):
            znew[:, n_] = (z[:, n_] + 0.5 * h * z[:, n_ - 1]) * g[:, n_] + 0.5 * h * znew[:, n_ - 1]
        z = znew
        if s % max(1, steps // 64) == 0 or s == steps - 1:
            snapshots.append(((s + 1) * h, z[0].copy()))
    with open(trajectory_csv, "w") as fh:
        fh.write("time," + ",".join(f"Z_{i+1}" for i in range(N)) + "\n")
        for tt, row in snapshots:
            fh.write(f"{tt!r}," + ",".join(repr(float(v)) for v in row) + "\n")
    return z


OY_GRID = [(N, t, dt, 50, seed) for N in range(1, 6) for seed in (0, 7)
           for t, dt in ((0, 1e-3), (0.002, 1e-3), (0.05, 1e-3), (0.3, 0.01), (1, 0.5))]
# fewer paths than shards (some shards empty, path 0 not in the first),
# counts not divisible by eight, equal shards of 1875, and 6600 steps
OY_SHARDS = [(3, 0.3, 0.01, 1, 2), (2, 0.05, 1e-3, 3, 0), (4, 0.3, 0.01, 7, 9),
             (2, 0.3, 0.01, 13, 1), (3, 0.051, 1e-3, 15_000, 3), (2, 6.6, 1e-3, 10, 5)]


@pytest.mark.parametrize("N,t,dt,paths,seed", OY_GRID + OY_SHARDS)
def test_oy_simulate_bit_equal_to_naive_loop(tmp_path, N, t, dt, paths, seed):
    want = _naive_oy_simulate(N, t, dt, paths, seed, tmp_path / "naive.csv")
    res = oy_simulate(N, t, dt, paths, seed=seed, trajectory_csv=str(tmp_path / "got.csv"))
    assert res.Z.shape == (paths, N) and res.Z.flags.c_contiguous
    assert np.isfinite(want).all() and res.Z.tobytes() == want.tobytes()
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "naive.csv").read_bytes()


def test_oy_simulate_joins_its_helper_thread(monkeypatch):
    before = threading.active_count()
    oy_simulate(2, 0.1, 1e-2, 20, seed=1)
    assert threading.active_count() == before
    assert np.isfinite(oy_simulate(5, 1.0, 1e-3, 3, seed=0).Z).all()
    assert threading.active_count() == before

    def failing_step(z, g, h):
        raise RuntimeError("step failed")

    monkeypatch.setattr(qboson.degenerations, "_oy_step", failing_step)
    with pytest.raises(RuntimeError, match="step failed"):
        oy_simulate(2, 0.1, 1e-3, 70_000, seed=1)  # every shard raises at its first step
    assert threading.active_count() == before


def test_oy_simulate_refuses_a_non_finite_state(monkeypatch, tmp_path):
    # no plain input overflows the integrator, so a step that writes inf
    # on site 5 stands in for one that does
    real_step = qboson.degenerations._oy_step

    def overflowing_step(z, g, h):
        real_step(z, g, h)
        z[4] = np.inf

    monkeypatch.setattr(qboson.degenerations, "_oy_step", overflowing_step)
    before = threading.active_count()
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"the exponential integrator overflowed: Z is not "
                                         r"finite on 3 of 3 paths, at sites \[5\]"):
        oy_simulate(5, 0.05, 1e-3, 3, seed=0, trajectory_csv=str(out))
    assert threading.active_count() == before and not out.exists()


def test_oy_simulate_concurrent_calls_are_seed_determined(tmp_path):
    # three calls at once, each with its own shard threads, on fewer cores
    # and with a short switch interval: every result must still equal the
    # serial reference of its seed
    args = (3, 0.051, 1e-3, 15_000)  # 51 steps of eight shards of 1875 paths
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


def test_samplers_do_not_depend_on_the_core_count(monkeypatch):
    # the shard layout is fixed, so one worker, two workers and an unknown
    # core count (one worker) give the same samples
    spec = MomentSpec(WeylVector((2, 1)), 0.5, "half-stationary", alpha=0.03, q=0.5)
    got = {}
    for cpus in (1, 2, None):
        monkeypatch.setattr(os, "cpu_count", lambda c=cpus: c)
        got[cpus] = (oy_simulate(3, 0.2, 1e-2, 1001, seed=8).Z.tobytes(),
                     moment_mc([spec], 5001, seed=9))
    assert got[1] == got[2] == got[None]


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
