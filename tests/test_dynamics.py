import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qboson import dynamics
from qboson.contours import ContourError, QuadratureSpec, plan_nodes
from qboson.dynamics import (
    MomentSpec,
    QTasepState,
    h0_build,
    identity_halfstat_transform,
    identity_mqinverse,
    identity_qbinomial,
    moment_formula,
    moment_mc,
    qboson_sample_ensemble,
    qtasep_sample_ensemble,
    sample_q_geometric,
    simulate,
    solve_evolution,
    solve_evolution_batch,
    transition_probability,
)
from qboson.generators import GeneratorKind, StateBox, uniformized_transition
from qboson.qcore import CompactFn, WeylVector, q_pochhammer, weyl_vectors_in_box

Q = 0.5


def test_moment_spec_validation():
    MomentSpec(WeylVector((2, 1)), 0.5, "step", q=Q)
    with pytest.raises(ValueError):
        MomentSpec(WeylVector((1, 0)), 0.5, "step", q=Q)  # n_k >= 1
    with pytest.raises(ValueError):
        MomentSpec(WeylVector((1,)), -1.0, "step", q=Q)
    with pytest.raises(ValueError):
        MomentSpec(WeylVector((2, 1)), 0.5, "half-stationary", alpha=0.3, q=Q)  # >= q^k
    with pytest.raises(ValueError):
        MomentSpec(WeylVector((1,)), 0.5, "step", alpha=0.1, q=Q)


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_every_time_entry_point_rejects_a_bad_t(t):
    # inf and nan used to pass a bare `t < 0` guard and came out as NaN
    y, x = WeylVector((1, 0)), WeylVector((0, -1))
    calls = [
        lambda: MomentSpec(WeylVector((1,)), t, "step", q=Q),
        lambda: simulate("qboson", y, t, 0, q=Q),
        lambda: solve_evolution("backward", "ode-oracle", CompactFn.delta(y), t, y, Q),
        lambda: transition_probability("spectral", y, x, t, Q),
        lambda: uniformized_transition(GeneratorKind("fwd", "qboson", Q), t, y,
                                       StateBox(2, -2, 1)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="t must be a finite number >= 0"):
            call()


def test_step_moment_k1_closed_form():
    for t in (0.2, 1.0, 2.5):
        spec = MomentSpec(WeylVector((1,)), t, "step", q=Q)
        assert moment_formula(spec).value == pytest.approx(math.exp((Q - 1) * t), abs=1e-12)


def test_moment_t0_is_one_for_step():
    for n in ((1,), (2, 1), (3, 2)):
        spec = MomentSpec(WeylVector(n), 0.0, "step", q=Q)
        assert moment_formula(spec).value == pytest.approx(1.0, abs=1e-10)


def test_half_moment_t0_geometric():
    spec = MomentSpec(WeylVector((1,)), 0.0, "half-stationary", alpha=0.1, q=Q)
    assert moment_formula(spec).value == pytest.approx(1.0 / (1.0 - 0.1 / Q), abs=1e-10)


def test_moment_string_radius_invariance():
    spec = MomentSpec(WeylVector((2, 1, 1)), 0.5, "half-stationary", alpha=0.1, q=Q)
    a = moment_formula(spec)
    assert a.radius == pytest.approx(0.6 * (1 - 0.1 / Q**3))
    b = moment_formula(spec, radius=0.05)
    assert b.radius == 0.05
    assert abs(a.value - b.value) < 1e-10


def test_moment_radius_past_the_pole_bound_raises():
    # the strings q^j w, j < 3, reach the pole alpha/q once the radius about 1
    # reaches 1 - alpha/q^3 = 0.2, below the q-image bound (1-q)/(1+q) = 1/3
    spec = MomentSpec(WeylVector((2, 1, 1)), 0.5, "half-stationary", alpha=0.1, q=Q)
    for radius in (0.2, 0.25):
        with pytest.raises(ContourError, match="reaches the pole"):
            moment_formula(spec, radius=radius)
    with pytest.raises(ContourError, match="string circle too large"):
        moment_formula(MomentSpec(WeylVector((2, 1, 1)), 0.5, "step", q=Q), radius=1 / 3)


def test_h0_build():
    f = h0_build("step", 2, 3, Q)
    assert f(WeylVector((2, 1))) == 1.0
    assert f(WeylVector((2, 0))) == 0.0
    assert f(WeylVector((2, -1))) == 0.0
    assert set(f.support()) == set(weyl_vectors_in_box(2, 1, 3))
    f = h0_build("half-stationary", 2, 3, Q, 0.1)
    assert f(WeylVector((2, 1))) == pytest.approx(2.6041666666666665)
    f0 = h0_build("half-stationary", 2, 3, Q, 0.0)
    fs = h0_build("step", 2, 3, Q, 0.3)  # step data ignores alpha
    for n in weyl_vectors_in_box(2, -1, 3):
        assert f0(n) == fs(n)
    with pytest.raises(ValueError, match="unknown initial data"):
        h0_build("flat", 2, 3, Q)
    with pytest.raises(ValueError):
        h0_build("half-stationary", 2, 3, Q, 0.3)


def test_simulate_qboson_trajectory():
    traj = simulate("qboson", WeylVector((1, 0)), 1.5, seed=42, q=Q)
    assert traj.events[0][0] == 0.0
    times = [t for t, _ in traj.events]
    assert times == sorted(times)
    for t, state in traj.events:
        assert tuple(sorted(state, reverse=True)) == state
    # same seed reproduces
    again = simulate("qboson", WeylVector((1, 0)), 1.5, seed=42, q=Q)
    assert again.events == traj.events


def test_simulate_t0():
    traj = simulate("qtasep", (-1, -2), 0.0, seed=1, q=Q)
    assert len(traj.events) == 1


def test_qtasep_state_validation():
    QTasepState((3, 1, 0))
    with pytest.raises(ValueError):
        QTasepState((1, 1))


def test_trajectory_csv(tmp_path):
    traj = simulate("qboson", WeylVector((0,)), 2.0, seed=3, q=Q)
    path = tmp_path / "traj.csv"
    traj.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,coord_1"
    assert len(lines) == len(traj.events) + 1


def test_single_particle_displacement_poisson():
    # q-Boson: one particle jumps left at rate 1-q
    rng = np.random.default_rng(7)
    t, paths = 1.2, 40_000
    x = qboson_sample_ensemble(WeylVector((0,)), Q, t, paths, rng)
    disp = -x[:, 0]
    lam = (1 - Q) * t
    assert abs(disp.mean() - lam) < 4 * math.sqrt(lam / paths)
    # q-TASEP: leading particle jumps right at rate 1 (infinite gap)
    x = qtasep_sample_ensemble(1, "step", 0.0, Q, t, paths, rng)
    disp = x[:, 0] + 1
    assert abs(disp.mean() - t) < 4 * math.sqrt(t / paths)


def test_qtasep_leader_jumps_at_rate_one():
    # the leader sees an infinite gap at every q, so its displacement is
    # Poisson(t); a gap cap would slow it to 1 - q^cap, visible at q near 1
    rng = np.random.default_rng(7)
    t, paths = 1.2, 100_000
    x = qtasep_sample_ensemble(1, "step", 0.0, 0.95, t, paths, rng)
    disp = x[:, 0] + 1
    assert abs(disp.mean() - t) < 4 * math.sqrt(t / paths)


@pytest.mark.parametrize("seed", [0, 1, 5, 42])
@pytest.mark.parametrize("q", [Q, 0.95])
def test_simulate_is_the_one_path_ensemble(q, seed):
    t = 4.0
    n0 = WeylVector((1, 1, 0))
    traj = simulate("qboson", n0, t, seed, q=q)
    x = qboson_sample_ensemble(n0, q, t, 1, np.random.default_rng(seed))
    assert traj.final_state() == tuple(x[0])
    traj = simulate("qtasep", (-1, -2, -3), t, seed, q=q)
    x = qtasep_sample_ensemble(3, "step", 0.0, q, t, 1, np.random.default_rng(seed))
    assert traj.final_state() == tuple(x[0])


def test_q_geometric_sampler_moments():
    rng = np.random.default_rng(8)
    alpha = 0.2
    draws = sample_q_geometric(alpha, Q, 200_000, rng)
    # E q^{-X} = 1/(1 - alpha/q) by the q-binomial theorem
    emp = np.mean(Q ** (-draws.astype(float)))
    assert abs(emp - 1 / (1 - alpha / Q)) < 0.02
    # pmf at 0: (alpha; q)_inf
    p0 = (draws == 0).mean()
    target = float(np.real(q_pochhammer(alpha, Q, 60)))
    assert abs(p0 - target) < 0.01


def test_moment_mc_matches_formula():
    spec = MomentSpec(WeylVector((2, 1)), 0.5, "step", q=Q)
    ((est, se),) = moment_mc([spec], 200_000, seed=11)
    v = moment_formula(spec).value.real
    assert abs(est - v) < 4 * se
    # variance shrinks like 1/paths
    ((_, se_small),) = moment_mc([spec], 50_000, seed=12)
    assert se < se_small


def _shard_observables(spec, paths, seed):
    """The observables of the eight shards of moment_mc's fixed layout, one
    shard after another, each with its own spawned stream."""
    streams = np.random.SeedSequence(seed).spawn(8)
    out = []
    for i, sq in enumerate(streams):
        x = qtasep_sample_ensemble(spec.N, spec.init, spec.alpha, spec.q, spec.t,
                                   paths * (i + 1) // 8 - paths * i // 8,
                                   np.random.default_rng(sq))
        part = np.ones(len(x))
        for ni in spec.n.coords:
            part = part * spec.q ** (x[:, ni - 1] + ni).astype(float)
        out.append(part)
    return out


def _sequential_moment_mc(spec, paths, seed):
    """moment_mc written plainly: each shard reduced to its count, mean and
    sum of squared deviations, merged in shard order by Chan, Golub and
    LeVeque's update."""
    n, mean, m2 = 0, 0.0, 0.0
    for part in _shard_observables(spec, paths, seed):
        if len(part) == 0:
            continue
        n_b, mean_b = len(part), float(part.mean())
        delta = mean_b - mean
        mean += delta * n_b / (n + n_b)
        m2 += float(((part - mean_b) ** 2).sum()) + delta * delta * n * n_b / (n + n_b)
        n += n_b
    return mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


@pytest.mark.parametrize("init,alpha,n,paths,seed", [
    ("step", 0.0, (2, 1), 4000, 3),
    ("half-stationary", 0.03, (2, 1), 4003, 4),
    ("half-stationary", 0.1, (1,), 5, 5),
    ("step", 0.0, (3, 1, 1), 2, 6),
])
def test_moment_mc_bit_equal_to_sequential_shards(init, alpha, n, paths, seed):
    spec = MomentSpec(WeylVector(n), 0.5, init, alpha=alpha, q=Q)
    ((mean, se),) = moment_mc([spec], paths, seed=seed)
    assert (mean, se) == _sequential_moment_mc(spec, paths, seed)
    # the merged shard statistics are those of all the paths at once, to rounding
    obs = np.concatenate(_shard_observables(spec, paths, seed))
    assert mean == pytest.approx(obs.mean(), rel=1e-14, abs=1e-300)
    assert se == pytest.approx(obs.std(ddof=1) / math.sqrt(len(obs)), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("init,alpha", [("step", 0.0), ("half-stationary", 0.05)])
def test_moment_mc_shares_one_ensemble(init, alpha):
    # the moments of one ensemble are those of one draw each, bit for bit
    specs = [MomentSpec(WeylVector(n), 0.5, init, alpha=alpha, q=Q) for n in ((2,), (2, 1), (2, 2))]
    assert moment_mc(specs, 3001, seed=7) == [moment_mc([s], 3001, seed=7)[0] for s in specs]


def test_moment_mc_refuses_specs_of_two_ensembles():
    specs = [MomentSpec(WeylVector((2,)), 0.5, q=Q), MomentSpec(WeylVector((1, 1)), 0.5, q=Q)]
    with pytest.raises(ValueError, match="must share N, init, alpha, q and t"):
        moment_mc(specs, 100)


@pytest.mark.parametrize("paths", [-1, 0, 1])
def test_moment_mc_needs_two_paths(paths):
    spec = MomentSpec(WeylVector((1,)), 0.5, "step", q=Q)
    with pytest.raises(ValueError, match="paths >= 2"):
        moment_mc([spec], paths)


def test_duality_triangle_half():
    spec = MomentSpec(WeylVector((2, 1)), 0.5, "half-stationary", alpha=0.1, q=Q)
    vf = moment_formula(spec).value
    f0 = h0_build("half-stationary", 2, 2, Q, 0.1)
    vb = solve_evolution("backward", "spectral", f0, 0.5, WeylVector((2, 1)), Q)
    vo = solve_evolution("backward", "ode-oracle", f0, 0.5, WeylVector((2, 1)), Q)
    assert abs(vf - vb) < 1e-8
    assert abs(vf - vo) < 1e-8
    ((est, se),) = moment_mc([spec], 150_000, seed=13)
    assert abs(est - vf.real) < 4 * se


def test_backward_solver_poisson_chain():
    f0 = CompactFn.delta(WeylVector((0,)))
    lam_t = (1 - Q) * 0.8
    for n in range(0, 4):
        v = solve_evolution("backward", "spectral", f0, 0.8, WeylVector((n,)), Q)
        assert v == pytest.approx(math.exp(-lam_t) * lam_t**n / math.factorial(n), abs=1e-11)
        vo = solve_evolution("backward", "ode-oracle", f0, 0.8, WeylVector((n,)), Q)
        assert vo == pytest.approx(v, abs=1e-11)


def test_transition_kernel_k1_poisson():
    y, t = WeylVector((0,)), 0.9
    lam_t = (1 - Q) * t
    for j in range(4):
        ps = transition_probability("spectral", y, WeylVector((-j,)), t, Q)
        pu = transition_probability("uniformization", y, WeylVector((-j,)), t, Q)
        expect = math.exp(-lam_t) * lam_t**j / math.factorial(j)
        assert ps == pytest.approx(expect, abs=1e-10)
        assert pu == pytest.approx(expect, abs=1e-10)
    assert transition_probability("spectral", y, y, 0.0, Q) == pytest.approx(1.0, abs=1e-10)


def _transition_oracle(y, x, q, t):
    """P(x at time t | y at time 0) from the q-Boson rates alone: each site
    with c particles sends its last one left at rate 1 - q^c.  Coordinates
    only decrease, so every path from y to x stays in the box x <= m <= y
    and the box's sub-generator, exponentiated, is exact."""
    ranges = [range(a, b + 1) for a, b in zip(x, y)]
    states = [m for m in itertools.product(*ranges)
              if all(m[i] >= m[i + 1] for i in range(len(m) - 1))]
    index = {m: i for i, m in enumerate(states)}
    L = np.zeros((len(states), len(states)))
    for m, i in index.items():
        for site in set(m):
            rate = 1.0 - q ** m.count(site)
            last = max(j for j, mj in enumerate(m) if mj == site)
            L[i, i] -= rate
            target = m[:last] + (site - 1,) + m[last + 1:]
            if target in index:
                L[i, index[target]] += rate
    return expm(t * L)[index[tuple(y)], index[tuple(x)]]


K3_TRANSITIONS = [
    ((2, 1, 1), (2, 1, 1), 0.221, 0.1),
    ((2, 1, -1), (0, 0, -2), 1.148, 0.1),
    ((2, 1, 0), (2, -1, -2), 0.428, 0.3),
    ((2, -1, -1), (1, -1, -1), 0.749, 0.3),
    ((2, 1, 0), (1, 0, -2), 1.475, 0.5),
    ((2, 1, -1), (0, -1, -2), 0.603, 0.5),
]


@pytest.mark.parametrize("y, x, t, q", K3_TRANSITIONS)
def test_planned_k3_transitions_match_the_matrix_exponential(y, x, t, q):
    v = transition_probability("spectral", WeylVector(y), WeylVector(x), t, q)
    exact = _transition_oracle(y, x, q, t)
    assert abs(v - exact) / (1.0 + abs(exact)) < 1e-9


def _spy_plans(monkeypatch):
    plans = []

    def spy(evaluate, target, ceiling):
        plans.append(plan_nodes(evaluate, target, ceiling))
        return plans[-1]

    monkeypatch.setattr(dynamics, "plan_nodes", spy)
    return plans


def test_spectral_transition_plans_its_nodes(monkeypatch):
    plans = _spy_plans(monkeypatch)
    y, x, t = WeylVector((2, 1, 0)), WeylVector((1, 1, -2)), 1.067
    v = transition_probability("spectral", y, x, t, Q)
    # the half-grid change from 32 to 64 nodes, squared on the value's
    # scale, is below the target: 64 nodes, not the 128 ceiling
    assert [p.nodes for p in plans] == [64]
    assert abs(v - _transition_oracle(y.coords, x.coords, Q, t)) < 1e-10
    # an explicit node count is kept, not planned
    fixed = solve_evolution_batch("forward", CompactFn.delta(y), t, [x], Q,
                                  quad=QuadratureSpec(32))
    assert len(plans) == 1
    assert abs(fixed[0] - v) > 1e-9  # 32 nodes are far from converged


# The planner's honesty on k <= 3 transitions, with the planned count where
# it is pinned: (1, -1, -2) -> (-1, -3, -3) went to 128 nodes under the
# value-scaled step alone, although 64 already met the target.
PLANNED_TRANSITIONS = [(y, x, t, q, None) for y, x, t, q in K3_TRANSITIONS] + [
    ((1, -1, -2), (-1, -3, -3), 0.455, 0.5, 64),
    ((2, 1, 0), (1, 1, -2), 1.067, 0.5, 64),
    ((1, 0), (0, -2), 0.8, 0.7, None),
    ((0,), (-3,), 0.9, 0.3, None),
]


@pytest.mark.parametrize("y, x, t, q, nodes", PLANNED_TRANSITIONS)
def test_planned_transitions_meet_the_target(y, x, t, q, nodes, monkeypatch):
    plans = _spy_plans(monkeypatch)
    v = transition_probability("spectral", WeylVector(y), WeylVector(x), t, q)
    exact = _transition_oracle(y, x, q, t)
    (plan,) = plans
    if nodes is not None:
        assert plan.nodes == nodes
    # every one of these meets the target by the ceiling, so a stop below it
    # and the ceiling alike must be within it
    assert np.max(plan.estimates) <= dynamics.MOMENT_TARGET
    assert abs(v - exact) / (1.0 + abs(exact)) <= dynamics.MOMENT_TARGET


def test_a_128_node_transition_holds_a_few_slabs_of_numpy_buffers(monkeypatch):
    # At 128 nodes per circle this transition's grid has 2^21 nodes.
    # tracemalloc sees numpy's buffers: walked in slabs of
    # contours.CHUNK_ELEMENTS = 2^18 nodes they peak near 21 MB; as one
    # 2^21-node slab they would peak near 130 MB.
    y, x, t = WeylVector((2, 1, -1)), WeylVector((0, -1, -2)), 0.603
    exact = _transition_oracle(y.coords, x.coords, Q, t)
    # planned, the differences show the geometric rate by 64 nodes
    plans = _spy_plans(monkeypatch)
    v = transition_probability("spectral", y, x, t, Q)  # also the warm-up: lazy imports and caches
    assert [p.nodes for p in plans] == [64]
    assert abs(v - exact) < 1e-10
    solve = lambda: solve_evolution_batch("forward", CompactFn.delta(y), t, [x], Q,
                                          quad=QuadratureSpec(128))[0]
    solve()
    tracemalloc.start()
    try:
        v = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plans) == 1  # an explicit node count is not planned
    assert peak < 40 * 2**20
    assert abs(v - exact) < 1e-12


@pytest.mark.parametrize("method", ["spectral", "uniformization"])
def test_transition_probability_rejects_particle_count_change(method):
    # the system conserves particles, so there is no such transition to price
    with pytest.raises(ValueError, match="the source has 2 and the target 1"):
        transition_probability(method, WeylVector((1, 0)), WeylVector((0,)), 0.5, Q)
    with pytest.raises(ValueError, match="the source has 1 and the target 3"):
        transition_probability(method, WeylVector((0,)), WeylVector((0, -1, -2)), 0.5, Q)


def test_qboson_marginals_match_uniformization():
    # total-variation distance between simulated and exact laws, k = 2
    rng = np.random.default_rng(9)
    y, t, paths = WeylVector((1, 0)), 0.6, 100_000
    x = qboson_sample_ensemble(y, Q, t, paths, rng)
    box = StateBox(2, -9, 2)
    pmf = uniformized_transition(GeneratorKind("fwd", "qboson", Q), t, y, box, tol=1e-12)
    counts: dict = {}
    for row in x:
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    tv = 0.0
    seen = set()
    for n, p in pmf.probs.items():
        emp = counts.get(n.coords, 0) / paths
        tv += abs(emp - p)
        seen.add(n.coords)
    for c, cnt in counts.items():
        if c not in seen:
            tv += cnt / paths
    tv *= 0.5
    # 5-sigma-equivalent bound on the expected TV fluctuation
    bound = 5.0 * 0.5 * sum(math.sqrt(p / paths) for p in pmf.probs.values())
    assert tv <= bound


def test_identity_dispatch_and_values():
    r = identity_mqinverse(m=2, q=Q, z=[2.0, 3.0])
    assert r.lhs == pytest.approx(3.0)
    r = identity_qbinomial(k=2, q=Q, alpha=0.1, z=[2.0, 3.0])
    assert r.lhs == pytest.approx(0.48)
    assert r.rhs == pytest.approx(0.48)
    r = identity_halfstat_transform(k=1, q=Q, alpha=0.05, z=[0.9], depth=100)
    assert r.lhs == pytest.approx(-0.125, abs=1e-12)
    assert r.rhs == pytest.approx(-0.125, abs=1e-12)
    assert r.tail_bound < 1e-12


def test_halfstat_divergence_detected():
    with pytest.raises(ValueError, match="diverges"):
        identity_halfstat_transform(1, Q, 0.3, [0.05], depth=10)


@pytest.mark.parametrize("q", [0.3, 0.7])
@pytest.mark.parametrize("cid", ["identity-qbinomial", "identity-halfstat-transform"])
def test_identity_checks_follow_q(cid, q):
    from qboson.registry import run_check

    r = run_check(cid, q=q)
    assert r.passed, r.summary_line()


@pytest.mark.parametrize("seed", [60, 79, 161])
def test_qbinomial_gate_is_its_rounding_model(seed, monkeypatch):
    """At these seeds the k = 5 sum cancels by ~1e6 and misses a bare 1e-10;
    the rounding model passes them, yet still fails a 1e-8 shift of alpha."""
    import dataclasses

    from qboson.checks import dynamics_checks
    from qboson.registry import run_check

    assert run_check("identity-qbinomial", seed=seed).passed

    def shifted(k, q, alpha, z):
        r = identity_qbinomial(k, q, alpha + (1e-8 if k == 5 else 0.0), z)
        return dataclasses.replace(r, rhs=identity_qbinomial(k, q, alpha, z).rhs)

    monkeypatch.setattr(dynamics_checks, "identity_qbinomial", shifted)
    rep = run_check("identity-qbinomial", seed=seed)
    assert not rep.passed and rep.params["worst_case"].startswith("k=5")


def test_time_weight_is_the_full_grid_exponential():
    # one exp per axis, multiplied by broadcasting, against the single exp of
    # the summed grid it replaced: equal up to a few roundings
    from qboson.dynamics import _time_weight

    rng = np.random.default_rng(3)
    zs = [(1.0 + 0.6 * np.exp(2j * np.pi * rng.random(16))).reshape(
        [16 if a == j else 1 for a in range(3)]) for j in range(3)]
    for q, t in ((0.5, 0.5), (0.1, 2.0), (0.9, 1.0)):
        ref = np.exp((q - 1.0) * t * (zs[0] + zs[1] + zs[2]))
        np.testing.assert_allclose(_time_weight(q, t)(zs), ref, rtol=1e-14, atol=0)
