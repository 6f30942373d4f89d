"""Evolution solvers, particle-system simulators, and duality moment formulas.

The q-Boson system is dual to q-TASEP through the observable
prod_i q^{x_{n_i}(t) + n_i}: its expectation solves the q-Boson backward
equation, whose spectral solution is a nested contour integral.  This
module provides that moment formula for step and half-stationary initial
data, evaluated as its string expansion on one small circle
(`string_moment`, shared with the semi-discrete moments), exact simulation
of both particle systems, the spectral solver of the backward/forward
equations and its matrix oracle, transition probabilities, and the
combinatorial identities that the half-stationary computation rests on.

Simulation is one vectorized Doob-Gillespie loop, `_gillespie`, given a
model's jump rates and jump: the ensembles run it over many paths, and
`simulate` runs it on one path and records every jump.  The matrix
oracle of both equations, `matrix_evolution_batch`, exponentiates a box
generator of `qboson.generators` once by uniformization, on the box that
holds every path its values read, so it needs no margin.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily: at import, not on the first draw

from qboson.contours import (
    ContourSystem,
    QuadResult,
    QuadratureSpec,
    default_nodes,
    nested_contours,
    plan_nodes,
    string_circle,
)
from qboson.eigenfunctions import EigenFamily, EigenTable, fsum_complex
from qboson.generators import (
    GeneratorKind,
    StateBox,
    matrix_on_box,
    uniformized_exponential,
)
from qboson.plancherel import inverse_J_batch, residue_expand_sum, transform_F_grid
from qboson.qcore import (
    CompactFn,
    WeylVector,
    chamber_blocks,
    check_q,
    check_time,
    cq_weight_inv,
    negative_binomial_tail,
    q_factorial,
    weyl_vectors_in_box,
)


@dataclass(frozen=True)
class QTasepState:
    """Strictly decreasing particle positions x_1 > x_2 > ... > x_N."""

    positions: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.positions, self.positions[1:]):
            if a <= b:
                raise ValueError("q-TASEP positions must be strictly decreasing")


@dataclass
class Trajectory:
    """Event log of one exact simulation run."""

    model: str
    seed: int
    events: list  # [(time, state tuple), ...] with strictly increasing times

    def final_state(self) -> tuple:
        return self.events[-1][1]

    def to_csv(self, path: str) -> None:
        k = len(self.events[0][1])
        with open(path, "w") as fh:
            fh.write("time," + ",".join(f"coord_{i+1}" for i in range(k)) + "\n")
            for t, state in self.events:
                fh.write(f"{t!r}," + ",".join(str(c) for c in state) + "\n")


@dataclass(frozen=True)
class MomentSpec:
    """Which q-TASEP moment to compute: E prod_i q^{x_{n_i}(t) + n_i}."""

    n: WeylVector
    t: float
    init: str = "step"  # or "half-stationary"
    alpha: float = 0.0
    q: float = 0.5  # perfbench/tests/test_tracer.py builds a MomentSpec without q

    def __post_init__(self):
        check_q(self.q)
        check_time(self.t)
        if self.n.coords[-1] < 1:
            raise ValueError("moment indices must satisfy n_k >= 1")
        if self.init not in ("step", "half-stationary"):
            raise ValueError(f"unknown initial data {self.init!r}")
        if self.init == "half-stationary":
            if not (0.0 <= self.alpha < self.q ** self.n.k):
                raise ValueError("half-stationary data needs 0 <= alpha < q^k")
        elif self.alpha != 0.0:
            raise ValueError("alpha only applies to half-stationary data")

    @property
    def k(self) -> int:
        return self.n.k

    @property
    def N(self) -> int:
        return self.n.coords[0]


# ---------------------------------------------------------------------------
# Exact simulation


def _gillespie(x: np.ndarray, t: float, rng: np.random.Generator, rates, jump,
               record: list | None = None) -> None:
    """Advance every row of the integer state array x (paths, N) to time t, in place.

    ``rates(xs)`` gives the jump rate of each coordinate of the rows xs, and
    ``jump(xs, chosen)`` the column that moves and its increment when
    coordinate ``chosen`` of each row fires.  All paths advance through
    synchronized vector steps but with their own exponential clocks, and a
    path retires once its clock passes t, so each row is an exact draw of
    the jump chain at time t.  ``record`` collects (jump times, new rows)
    of the paths that jumped, one entry per step.
    """
    now = np.zeros(len(x))
    active = np.ones(len(x), dtype=bool)
    while active.any():
        idx = np.nonzero(active)[0]
        xa = x[idx]
        r = rates(xa)
        now[idx] += rng.exponential(1.0, size=idx.size) / r.sum(axis=1)
        still = now[idx] < t
        active[idx[~still]] = False
        if not still.any():
            continue
        jdx = idx[still]
        cum = np.cumsum(r[still], axis=1)
        u = rng.uniform(0.0, 1.0, size=jdx.size) * cum[:, -1]
        col, inc = jump(xa[still], (u[:, None] >= cum).sum(axis=1))
        x[jdx, col] += inc
        if record is not None:
            record.append((now[jdx], x[jdx]))


def _qtasep_chain(q: float):
    """q-TASEP: particle i > 1 jumps right at rate 1 - q^gap, gap = x_{i-1} -
    x_i - 1, and the leader at rate 1."""

    def rates(xs):
        gaps = xs[:, :-1] - xs[:, 1:] - 1
        r = np.ones(xs.shape)
        if gaps.size:
            # one power per gap value present, not one per element
            r[:, 1:] = (1.0 - q ** np.arange(gaps.max() + 1))[gaps]
        return r

    return rates, lambda xs, chosen: (chosen, 1)


def _qboson_chain(q: float):
    """q-Boson, with the cluster rate split per particle: the particle with
    d same-site particles of smaller index carries (1-q) q^d, which sums to
    1 - q^c over a cluster of c.  The jump moves the last member of the
    chosen particle's cluster left, so coordinates stay ordered."""

    def rates(xs):
        depth = np.zeros_like(xs)
        for i in range(1, xs.shape[1]):
            same = xs[:, i] == xs[:, i - 1]
            depth[:, i] = np.where(same, depth[:, i - 1] + 1, 0)
        return (1.0 - q) * q**depth

    def jump(xs, chosen):
        mover = chosen.copy()
        for i in range(1, xs.shape[1]):
            extend = (mover == i - 1) & (xs[:, i] == xs[np.arange(xs.shape[0]), mover])
            mover = np.where(extend, i, mover)
        return mover, -1

    return rates, jump


def simulate(model: str, init, t: float, seed: int, q: float) -> Trajectory:
    """Exact Doob-Gillespie simulation of one trajectory up to time t.

    ``init`` is a WeylVector (q-Boson) or a tuple of strictly decreasing
    positions (q-TASEP).  The event log records the initial state and every
    jump; the trajectory is a deterministic function of the seed, and its
    final state is the one-path ensemble drawn with ``default_rng(seed)``.
    """
    check_q(q)
    check_time(t)
    if model == "qboson":
        coords = (init if isinstance(init, WeylVector) else WeylVector(tuple(init))).coords
        chain = _qboson_chain(q)
    elif model == "qtasep":
        state = init if isinstance(init, QTasepState) else QTasepState(tuple(init))
        coords = state.positions
        chain = _qtasep_chain(q)
    else:
        raise ValueError(f"unknown model {model!r}")
    jumps: list = []
    _gillespie(np.array([coords], dtype=np.int64), t, np.random.default_rng(seed), *chain,
               record=jumps)
    events = [(0.0, coords)] + [(float(now[0]), tuple(row[0].tolist())) for now, row in jumps]
    return Trajectory(model=model, seed=seed, events=events)


def sample_q_geometric(alpha: float, q: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from P(X = j) = (alpha; q)_inf alpha^j / (q; q)_j by inverse CDF,
    over the pmf terms down to 1e-14."""
    check_q(q)
    if alpha == 0.0:
        return np.zeros(size, dtype=int)
    if not (0.0 < alpha < 1.0):
        raise ValueError("need 0 <= alpha < 1")
    # (alpha; q)_inf via the finite product until factors hit 1.
    prefac, aq = 1.0, alpha
    while aq > 1e-18:
        prefac *= 1.0 - aq
        aq *= q
    pmf = []
    term = prefac
    denom = 1.0
    j = 0
    while term > 1e-14 or j < 2:
        pmf.append(term)
        j += 1
        denom *= 1.0 - q**j
        term = prefac * alpha**j / denom
        if j > 10_000:
            break
    cdf = np.cumsum(pmf)
    u = rng.uniform(0.0, 1.0, size=size)
    return np.searchsorted(cdf, u * cdf[-1], side="right").astype(int)


def qtasep_sample_ensemble(N: int, init: str, alpha: float, q: float, t: float,
                           paths: int, rng: np.random.Generator) -> np.ndarray:
    """Exact q-TASEP positions at time t from step or half-stationary data,
    one row per path: an array (paths, N)."""
    if init == "step":
        x = np.tile(-np.arange(1, N + 1), (paths, 1))
    elif init == "half-stationary":
        gaps = sample_q_geometric(alpha, q, paths * N, rng).reshape(paths, N)
        x = -np.cumsum(gaps + 1, axis=1)
    else:
        raise ValueError(f"unknown initial data {init!r}")
    _gillespie(x, t, rng, *_qtasep_chain(q))
    return x


def qboson_sample_ensemble(n0: WeylVector, q: float, t: float, paths: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Exact q-Boson states at time t from n0, one ordered row per path: an
    array (paths, k)."""
    x = np.tile(np.asarray(n0.coords, dtype=np.int64), (paths, 1))
    _gillespie(x, t, rng, *_qboson_chain(q))
    return x


# ---------------------------------------------------------------------------
# Duality initial data and moment formulas


def h0_build(kind: str, k: int, N: int, q: float, alpha: float = 0.0) -> CompactFn:
    """Duality initial data, truncated to the box 1 <= n_k <= ... <= n_1 <= N.

    step: prod_i 1_{n_i > 0};
    half-stationary: prod_j 1_{n_j > 0} (1 - alpha/q^j)^{-n_j}, which is
    the step data at alpha = 0.
    """
    check_q(q)
    if kind == "step":
        alpha = 0.0
    elif kind != "half-stationary":
        raise ValueError(f"unknown initial data {kind!r}")
    elif not (0.0 <= alpha < q**k):
        raise ValueError("half-stationary data needs 0 <= alpha < q^k")
    table = {}
    for n in weyl_vectors_in_box(k, 1, N):
        out = 1.0
        for j, nj in enumerate(n.coords, start=1):
            out *= (1.0 - alpha / q**j) ** (-nj)
        table[n] = out
    return CompactFn(table)


# The planner's error estimate (`contours.plan_nodes`, an extrapolation of
# the half-grid differences) at which a moment's or spectral solve's node
# doubling stops.  A stop below the ceiling meets it against the matrix
# oracles; q = 0.9, n = (3, 3, 3) sits at a rounding floor near 1e-8 and
# runs to the ceiling with an estimate that says so.
MOMENT_TARGET = 1e-10


@dataclass
class MomentResult(QuadResult):
    """A moment, the planner's error estimate, string radius and nodes per axis."""

    radius: float
    nodes: int


def string_moment(factors: Sequence[Callable], cs: ContourSystem,
                  prefactor: float = 1.0) -> MomentResult:
    """prefactor times the k = len(factors)-fold nested integral of the
    kernel of ``cs``'s model times prod_j factors[j](z_j), as its string
    expansion on the string circle ``cs`` (`contours.string_circle`), with
    nodes planned to MOMENT_TARGET up to `default_nodes(k)`."""
    k = len(factors)

    def F(zs):
        return functools.reduce(operator.mul, (f(z) for f, z in zip(factors, zs)))

    plan = plan_nodes(lambda spec: residue_expand_sum([F], k, cs, spec),
                      MOMENT_TARGET, default_nodes(k))
    return MomentResult(prefactor * complex(plan.values[0]),
                        abs(prefactor) * float(plan.estimates[0]), cs.circles[0].radius,
                        plan.nodes)


def moment_formula(spec: MomentSpec, radius: float | None = None) -> MomentResult:
    """Small-contour moment formula for E prod_i q^{x_{n_i}(t) + n_i}.

    (-1)^k q^{k(k-1)/2} times the k-fold nested integral of
    prod_{A<B} (z_A - z_B)/(z_A - q z_B) prod_j (1 - z_j)^{-n_j}
    e^{(q-1) t z_j} / (z_j - pole), pole 0 for step and alpha/q for
    half-stationary data, evaluated as its string expansion on the circle
    `contours.string_circle` (Borodin-Corwin-Sasamoto, arXiv:1207.5035).
    """
    q, t, k = spec.q, spec.t, spec.k
    pole = spec.alpha / q
    factors = [lambda z, nj=nj: (1.0 - z) ** (-nj) * np.exp((q - 1.0) * t * z) / (z - pole)
               for nj in spec.n.coords]
    return string_moment(factors, string_circle(q, k, spec.alpha, radius=radius),
                         prefactor=(-1.0) ** k * q ** (k * (k - 1) / 2.0))


def mc_mean(obs: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of one observable value per path, with its standard
    error: (estimate, stderr)."""
    if len(obs) < 2:
        raise ValueError("a Monte Carlo moment needs paths >= 2 for its standard error")
    return float(obs.mean()), float(obs.std(ddof=1) / math.sqrt(len(obs)))


SHARDS = 8  # fixed, so that no sample depends on the core count


def map_path_shards(paths: int, seed: int, fn: Callable) -> list:
    """Call ``fn(path_slice, rng)`` for each shard i = 0 .. SHARDS-1 on
    min(SHARDS, cpus) threads, and return the results in shard order.

    Shard i holds the paths [paths i // SHARDS, paths (i+1) // SHARDS),
    possibly none, and the i-th generator spawned from the seed.  Each shard
    writes only its own slice of the caller's output, so the samples depend
    on the seed alone, not on the core count or thread timing.  The first
    shard that raises re-raises here.
    """
    # Imported here, like registry.run_all's pool, to keep it off the import path.
    from concurrent.futures import ThreadPoolExecutor

    slices = [slice(paths * i // SHARDS, paths * (i + 1) // SHARDS) for i in range(SHARDS)]
    rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(SHARDS))
    with ThreadPoolExecutor(min(SHARDS, os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, slices, rngs))


def moment_mc(specs: Sequence[MomentSpec], paths: int, seed: int = 0) -> list[tuple[float, float]]:
    """Monte Carlo moments, one (estimate, stderr) per spec, over one q-TASEP
    ensemble of N = max N particles that the specs share.  Each path shard
    keeps, per spec, only the count, mean and sum of squared deviations M2
    of its observables; the shards merge in shard order by Chan, Golub and
    LeVeque's pairwise update, so no per-path array outlives its shard."""
    law, *others = [(s.init, s.alpha, s.q, s.t) for s in specs]
    if any(e != law for e in others):
        raise ValueError("the moments of one ensemble must share init, alpha, q and t")
    ensemble = (max(s.N for s in specs), *law)
    if paths < 2:
        raise ValueError("a Monte Carlo moment needs paths >= 2 for its standard error")

    def shard(sl: slice, rng: np.random.Generator) -> list[tuple[int, float, float]]:
        x = qtasep_sample_ensemble(*ensemble, sl.stop - sl.start, rng)
        stats = []
        for spec in specs:
            obs = np.ones(len(x))
            for ni in spec.n.coords:
                obs *= spec.q ** (x[:, ni - 1] + ni).astype(float)
            mean = float(obs.mean()) if len(obs) else 0.0
            stats.append((len(obs), mean, float(((obs - mean) ** 2).sum())))
        return stats

    shards = map_path_shards(paths, seed, shard)
    out = []
    for i in range(len(specs)):
        n, mean, m2 = 0, 0.0, 0.0
        for n_b, mean_b, m2_b in (stats[i] for stats in shards):
            if n_b:  # a shard may hold no path
                total = n + n_b
                delta = mean_b - mean
                mean += delta * n_b / total
                m2 += m2_b + delta * delta * n * n_b / total
                n = total
        out.append((mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)))
    return out


# ---------------------------------------------------------------------------
# Kolmogorov equation solvers


def _time_weight(q: float, t: float) -> Callable:
    """The grid factor exp((q-1) t sum_j z_j), one exp per axis multiplied
    by broadcasting."""
    return lambda zs: functools.reduce(operator.mul, (np.exp((q - 1.0) * t * z) for z in zs))


def solve_evolution_batch(direction: str, f0: CompactFn, t: float, ns: Sequence[WeylVector],
                          q: float, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Spectral solver evaluated at many states, one grid pass per node count.

    The solution is the nested inverse transform (`inverse_J_batch`) of the
    time-weighted transform of f0, times a prefactor per state in the
    forward direction.  An explicit ``quad`` fixes the nodes per circle.
    Without it `plan_nodes` doubles them from 16 until its worst error
    estimate of the returned values (`inverse_J_batch`'s half-grid d and
    rounding bounds, times |prefactor|) meets MOMENT_TARGET, up to
    `default_nodes(k)`.  A G that overflows raises FloatingPointError.
    """
    check_q(q)
    check_time(t)
    k = f0.k
    cs = nested_contours(k, q, r_k=0.3)
    weight = _time_weight(q, t)
    if direction == "backward":
        G = lambda zs: transform_F_grid(f0, list(zs), q) * weight(zs)
        states, pref = list(ns), 1.0
    elif direction == "forward":
        G = lambda zs: transform_F_grid(f0, list(zs), q, side="left") * weight(zs)
        states = [n.reflect() for n in ns]
        # the reflected-exponent integral carries (1-z)^{-m_j-1} with
        # m = reflect(n), i.e. exactly (1-z_j)^{n_{k-j+1}-1}
        pref = np.array(
            [q ** (-k * (k - 1) / 2.0) * cq_weight_inv(n, q) for n in ns], dtype=complex
        )
    else:
        raise ValueError(f"unknown direction {direction!r}")

    def evaluate(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        vals, d, rounding = inverse_J_batch(G, states, cs, spec)
        return pref * vals, np.abs(pref) * d, np.abs(pref) * rounding

    if quad is None:
        return plan_nodes(evaluate, MOMENT_TARGET, default_nodes(k)).values
    return evaluate(quad)[0]


def matrix_evolution_batch(direction: str, f0: CompactFn, t: float,
                           ns: Sequence[WeylVector], q: float) -> np.ndarray:
    """The matrix oracle of `solve_evolution_batch`: the same solutions from
    one uniformized exponential of the box generator.

    Coordinates only move down, so every path that a value reads stays in
    the box from the lowest coordinate of the states where paths end (the
    support of f0 backward, ns forward) to the highest of the states where
    they start (ns backward, the support forward).  Backward rows read
    states below and forward rows states above, so the exponential is exact
    on that box and a state outside it gets exactly 0.  It runs at rate k
    (no state leaves at more than k) with Poisson tails below 1e-16 in all:
    within about 1e-15 of max |f0| of a dense matrix exponential.  Every
    state of ns must have f0's particle count.
    """
    check_q(q)
    check_time(t)
    for n in ns:
        if n.k != f0.k:
            raise ValueError(f"the q-Boson system conserves particles: f0 has {f0.k} and "
                             f"the state {n.coords} has {n.k}")
    if direction == "backward":
        ends, starts, kind = f0.support(), ns, "bwd"
    elif direction == "forward":
        ends, starts, kind = ns, f0.support(), "fwd"
    else:
        raise ValueError(f"unknown direction {direction!r}")
    lo = min((m.coords[-1] for m in ends), default=math.inf)
    hi = max((m.coords[0] for m in starts), default=-math.inf)
    if hi < lo:  # no path runs from a start to an end
        return np.zeros(len(ns), dtype=complex)
    box = StateBox(f0.k, lo, hi)
    idx = box.index()
    v0 = np.array([f0(m) for m in box.states], dtype=complex)
    A = matrix_on_box(GeneratorKind(kind, "qboson", q), box)
    v = uniformized_exponential(A, t, v0, float(f0.k), 1e-16)[0]
    return np.array([v[idx[n]] if n in idx else 0j for n in ns], dtype=complex)


def transition_probability(method: str, y: WeylVector, x: WeylVector, t: float,
                           q: float) -> complex:
    """P(state x at time t | state y at time 0) for the q-Boson system.

    Both methods solve the forward equation from delta_y at x.  The chain
    is translation invariant, so the spectral solve runs on both states
    shifted by -y_k, where the transform of delta_y stays finite; the
    uniformization is the matrix oracle `matrix_evolution_batch`.
    """
    check_q(q)
    check_time(t)
    if x.k != y.k:
        raise ValueError(f"the q-Boson system conserves particles: the source has {y.k} "
                         f"and the target {x.k}")
    if method == "spectral":
        shift = -y.coords[-1]
        return complex(solve_evolution_batch("forward", CompactFn.delta(y.shift(shift)), t,
                                             [x.shift(shift)], q)[0])
    if method == "uniformization":
        return complex(matrix_evolution_batch("forward", CompactFn.delta(y), t, [x], q)[0])
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Combinatorial identities


@dataclass
class IdentityResult:
    name: str
    params: dict
    lhs: complex
    rhs: complex
    tail_bound: float = 0.0
    rounding_bound: float = 0.0  # modelled rounding error of the computed lhs

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float:
        return self.abs_err / max(1.0, abs(self.rhs))


def identity_mqinverse(m: int, q: float, z: Sequence[complex]) -> IdentityResult:
    """Symmetrization identity: the S_m sum of strict-pair scattering ratios
    with shift q^{-1} equals m!_{q^{-1}}."""
    check_q(q)
    z = [complex(v) for v in z]
    if len(z) != m:
        raise ValueError("need m spectral values")
    # the ratios are the right family's scattering factors
    lhs = fsum_complex(EigenTable(EigenFamily("qboson-right", q), z, validate=False).weights)
    rhs = q ** (-m * (m - 1) / 2.0) * q_factorial(m, q)
    return IdentityResult("identity-mqinverse", {"m": m, "q": q}, lhs, rhs)


def identity_qbinomial(k: int, q: float, alpha: float, z: Sequence[complex]) -> IdentityResult:
    """q-deformed binomial expansion over ordered subset splittings (I, J),
    with the q^{-m(m-1)/2} weight carried by m = |I|.

    The 2^k terms can be far larger than their sum, so ``rounding_bound``
    carries a per-term error model of the computed lhs, not a rigorous
    bound: gamma_m * sum |term|, with gamma_m = m u / (1 - m u), u = 2^-53,
    and m the rounding operations a term can accumulate.  Counting a complex
    multiply as 3 roundings and a complex divide as 6, a term with |I| = i
    takes 1 (its q-power) + 12 i (k - i) (per pair: z_j / q, two
    differences, a divide, a multiply) + 5 i (alpha / q, a difference, a
    multiply) + 4 (k - i) (a difference, a multiply) roundings; the terms are
    summed exactly (math.fsum) and rounded once more.  m is the largest such
    count.  Each rounding is taken as relative to the term, which assumes no
    cancellation in z_i - z_j/q or z_i - alpha/q: near z_i ~ z_j/q or
    z_i ~ alpha/q the rounding of z_j/q or alpha/q is amplified beyond u.
    """
    check_q(q)
    z = [complex(v) for v in z]
    if len(z) != k:
        raise ValueError("need k spectral values")
    terms = []
    for bits in itertools.product((0, 1), repeat=k):
        I = [i for i in range(k) if bits[i]]
        J = [j for j in range(k) if not bits[j]]
        m = len(I)
        term = q ** (-m * (m - 1) / 2.0) + 0.0j
        for i in I:
            for j in J:
                term *= (z[i] - z[j] / q) / (z[i] - z[j])
        for i in I:
            term *= z[i] - alpha / q
        for j in J:
            term *= 1.0 - z[j]
        terms.append(term)
    lhs = fsum_complex(terms)
    rhs = 1.0 + 0.0j
    for ell in range(1, k + 1):
        rhs *= 1.0 - alpha / q**ell
    ops = max(1 + 12 * i * (k - i) + 5 * i + 4 * (k - i) for i in range(k + 1)) + 1
    gamma = ops * 2.0**-53 / (1.0 - ops * 2.0**-53)
    return IdentityResult("identity-qbinomial", {"k": k, "q": q, "alpha": alpha}, lhs, rhs,
                          rounding_bound=gamma * sum(abs(t) for t in terms))


def identity_halfstat_transform(k: int, q: float, alpha: float, z: Sequence[complex],
                                depth: int = 40) -> IdentityResult:
    """Forward transform of the half-stationary data against its closed form.

    The series sum_{n, n_k >= 1} Psi^r_z(n) prod_j (1 - alpha/q^j)^{-n_j}
    is truncated at n_1 <= depth with a certified geometric tail: each term
    is bounded by C rho^{sum n_j} with rho = max_{i,j} |1-z_i| / (1-alpha/q^j).
    """
    check_q(q)
    z = [complex(v) for v in z]
    if not (0.0 <= alpha < q**k):
        raise ValueError("need 0 <= alpha < q^k")
    table = EigenTable(EigenFamily("qboson-right", q), z)
    decay = np.array([1.0 - alpha / q**j for j in range(1, k + 1)])
    rho = max(abs(1.0 - zi) for zi in z) / decay.min()
    if rho >= 1.0:
        raise ValueError("series diverges for these z: need max |1-z_i| < min_j (1-alpha/q^j)")
    lhs = fsum_complex(np.concatenate([table.states(ns) * np.prod(decay ** -ns, axis=1)
                                       for ns in chamber_blocks(k, 1, depth)]))
    rhs = (-1.0) ** k * q ** (k * (k - 1) / 2.0)
    for j, zj in enumerate(z):
        rhs *= (1.0 - zj) / (zj - alpha / q)
    # Tail certificate: |C_q^{-1}| max_sigma |scattering| times the count of
    # chamber points at each total size s > depth, summed geometrically.
    # At most C(s-1, k-1) of them have size s (compositions into k positive
    # parts), and shifting s by k makes that sum rho^k times the plain tail.
    scat_max = float(np.abs(table.weights).max())
    cmax = max(abs(cq_weight_inv(m, q)) for m in weyl_vectors_in_box(k, 0, k))
    C = cmax * math.factorial(k) * scat_max
    tail = C * rho**k * negative_binomial_tail(k, rho, depth - k)
    return IdentityResult(
        "identity-halfstat-transform",
        {"k": k, "q": q, "alpha": alpha, "depth": depth},
        lhs,
        rhs,
        tail_bound=tail,
    )

