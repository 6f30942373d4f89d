"""Checks of the evolution solvers, transition kernels, duality moment
formulas, and the supporting combinatorial identities."""

from __future__ import annotations

import math

import numpy as np

from qboson.checks import random_spectral, random_weyl
from qboson.contours import QuadratureSpec
from qboson.dynamics import (
    MomentSpec,
    h0_build,
    identity_halfstat_transform,
    identity_mqinverse,
    identity_qbinomial,
    moment_formula,
    moment_mc,
    solve_evolution,
    solve_evolution_batch,
    transition_probability,
)
from qboson.generators import GeneratorKind, StateBox, uniformized_transition
from qboson.qcore import CompactFn, WeylVector, weyl_vectors_in_box
from qboson.report import Accumulator


def check_backward_solver(acc: Accumulator, q: float = 0.5, t: float = 0.5,
                          tolerance: float = 1e-6, seed: int = 0) -> None:
    """Spectral backward solution against the exact single-particle chain
    and against the triangular matrix-exponential oracle."""
    rng = np.random.default_rng(seed)
    # k = 1 from a delta: the value at n is the chance of exactly n left
    # jumps, a Poisson((1-q)t) mass, zero below the delta
    f0 = CompactFn.delta(WeylVector((0,)))
    lam = (1.0 - q) * t
    for n_ in range(-2, 5):
        v = solve_evolution("backward", "spectral", f0, t, WeylVector((n_,)), q)
        exact = math.exp(-lam) * lam**n_ / math.factorial(n_) if n_ >= 0 else 0.0
        acc.add(f"k=1 Poisson n={n_}", v, exact, 1e-10)
    # k = 2 random data, spectral vs oracle
    for trial in range(6):
        pts = {}
        for _ in range(4):
            pts[random_weyl(rng, 2, lo=-3, hi=3)] = complex(rng.normal(), rng.normal())
        f0 = CompactFn(pts)
        n = random_weyl(rng, 2, lo=-4, hi=3)
        vs = solve_evolution("backward", "spectral", f0, t, n, q)
        vo = solve_evolution("backward", "ode-oracle", f0, t, n, q)
        acc.add(f"k=2 trial={trial} n={n.coords}", vs, vo, tolerance)
        v0 = solve_evolution("backward", "spectral", f0, 0.0, n, q)
        acc.add(f"k=2 trial={trial} t=0", v0, f0(n), tolerance)


def check_forward_solver(acc: Accumulator, q: float = 0.5, t: float = 0.5,
                         tolerance: float = 1e-6, seed: int = 0) -> None:
    """Spectral forward solution against the absorbing matrix-exponential
    oracle, including the t = 0 identity."""
    rng = np.random.default_rng(seed)
    for k in (1, 2):
        for trial in range(4):
            pts = {}
            for _ in range(3):
                pts[random_weyl(rng, k, lo=-2, hi=2)] = complex(rng.normal(), rng.normal())
            f0 = CompactFn(pts)
            n = random_weyl(rng, k, lo=-2, hi=4)
            vs = solve_evolution("forward", "spectral", f0, t, n, q)
            vo = solve_evolution("forward", "ode-oracle", f0, t, n, q)
            acc.add(f"k={k} trial={trial} n={n.coords}", vs, vo, tolerance)
            v0 = solve_evolution("forward", "spectral", f0, 0.0, n, q)
            acc.add(f"k={k} trial={trial} t=0", v0, f0(n), tolerance)


def check_transition_prob(acc: Accumulator, q: float = 0.5, t: float = 1.0,
                          tolerance: float = 1e-6) -> None:
    """Transition kernel: spectral formula vs uniformization, sign, and mass."""
    for k, y in ((1, WeylVector((0,))), (2, WeylVector((1, 0))), (2, WeylVector((1, 1)))):
        lo = y.coords[-1] - 14  # the chain only descends
        hi = y.coords[0] + 1
        box = StateBox(k, lo, hi)
        pmf = uniformized_transition(GeneratorKind("fwd", "qboson", q), t, y, box, tol=1e-12)
        states = [n for n in weyl_vectors_in_box(k, lo + 1, y.coords[0])]
        vals = solve_evolution_batch("forward", CompactFn.delta(y), t, states, q,
                                     quad=QuadratureSpec(256))
        total = 0.0
        min_real = np.inf
        for n, v in zip(states, vals):
            acc.add(f"k={k} y={y.coords} x={n.coords}", v, pmf[n], tolerance)
            total += v.real
            min_real = min(min_real, v.real)
            if abs(v.imag) > 1e-9:
                acc.add_residual(f"imag k={k} x={n.coords}", abs(v.imag), 1e-9)
        acc.add(f"k={k} y={y.coords} mass", complex(total), 1.0, tolerance)
        acc.add_residual(f"k={k} nonnegativity", max(0.0, -min_real), 1e-8)
        v0 = transition_probability("spectral", y, y, 0.0, q)
        acc.add(f"k={k} t=0 diagonal", v0, 1.0, tolerance)


def _moment_check(acc: Accumulator, init: str, alpha: float, q: float, t: float, paths: int,
                  tolerance: float, seed: int) -> None:
    # k = 1, n = 1 closed forms (residue at the base point)
    if init == "step":
        acc.add("k=1 n=1 exact exp((q-1)t)", moment_formula(MomentSpec(WeylVector((1,)), t, q=q)),
                math.exp((q - 1.0) * t), 1e-10)
    else:
        spec0 = MomentSpec(WeylVector((1,)), 0.0, init, alpha=alpha, q=q)
        acc.add("k=1 t=0 geometric series", moment_formula(spec0), 1.0 / (1.0 - alpha / q), 1e-10)
    # string-circle re-choice invariance: the default radius and half of it
    spec2 = MomentSpec(WeylVector((2, 1)), t, init, alpha=alpha, q=q)
    v2 = moment_formula(spec2)
    acc.add("k=2 string-radius invariance", v2, moment_formula(spec2, radius=v2.radius / 2), 1e-8)
    # k = 3 against the matrix oracle alone: no Monte Carlo row, so that
    # moment-half's default alpha (set by its sampled k <= 2) stands
    n3 = WeylVector((2, 1, 1))
    vo = solve_evolution("backward", "ode-oracle", h0_build(init, 3, 2, q, alpha), t, n3, q)
    acc.add("k=3 n=(2, 1, 1) formula vs ode",
            moment_formula(MomentSpec(n3, t, init, alpha=alpha, q=q)), vo, tolerance)
    specs = [MomentSpec(WeylVector(n), t, init, alpha=alpha, q=q) for n in ((2,), (2, 1), (1, 1))]
    f0s = [h0_build(init, s.k, s.N, q, alpha) for s in specs]
    sides = [[moment_formula(s)] + [solve_evolution("backward", method, f0, t, s.n, q)
                                    for method in ("spectral", "ode-oracle")]
             for s, f0 in zip(specs, f0s)]
    # the ensembles last, once every deterministic side has accepted the
    # parameters; (2) and (2, 1) read one N = 2 ensemble, (1, 1) its own
    mcs = moment_mc(specs[:2], paths, seed=seed + 17) + moment_mc(specs[2:], paths, seed=seed + 17)
    for s, (vf, vb, vo), (est, se) in zip(specs, sides, mcs):
        acc.add(f"k={s.k} n={s.n.coords} formula vs spectral", vf, vb, tolerance)
        acc.add(f"k={s.k} n={s.n.coords} formula vs ode", vf, vo, tolerance)
        acc.add(f"k={s.k} n={s.n.coords} formula vs MC", complex(est), vf, 4.0, sigma=se)


def check_moment_step(acc: Accumulator, q: float = 0.5, t: float = 0.5,
                      paths: int = 1_000_000, tolerance: float = 1e-6, seed: int = 0) -> None:
    """Step-data moments: formula = backward solution = simulation.
    The Gillespie ensemble samples exactly in law, so its bias term is 0."""
    _moment_check(acc, "step", 0.0, q, t, paths, tolerance, seed)


def check_moment_half(acc: Accumulator, q: float = 0.5, t: float = 0.5,
                      alpha: float | None = None, paths: int = 1_000_000,
                      tolerance: float = 1e-6, seed: int = 0) -> None:
    """Half-stationary moments: formula = backward solution = simulation.
    The sampled observable grows like q^{-k g} in the first gap g, so its
    variance is finite only for alpha < q^{2k}: alpha defaults to
    min(0.1, q^{2k}/2) at the largest k = 2, recorded in params.  The
    Gillespie ensemble samples exactly in law, so its bias term is 0."""
    if alpha is None:
        alpha = acc.params["alpha"] = min(0.1, q**4 / 2)
    _moment_check(acc, "half-stationary", alpha, q, t, paths, tolerance, seed)


def check_identity_mqinverse(acc: Accumulator, q: float = 0.5, m_max: int = 6,
                             tolerance: float = 1e-10, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for m in range(1, m_max + 1):
        z = random_spectral(rng, m, center=0.0, rmin=0.5, rmax=2.0)
        r = identity_mqinverse(m, q, z)
        acc.add(f"m={m}", r.lhs, r.rhs, tolerance)
    r = identity_mqinverse(2, q, [2.0, 3.0])
    acc.add("m=2 frozen 1+1/q", r.lhs, 1.0 + 1.0 / q, tolerance)


def check_identity_qbinomial(acc: Accumulator, q: float = 0.5, k_max: int = 5,
                             tolerance: float = 1e-10, seed: int = 0) -> None:
    """Each comparison is gated on tolerance plus the identity's own bound on
    the rounding of its lhs, whose 2^k terms cancel (see identity_qbinomial)."""
    rng = np.random.default_rng(seed)
    for k in range(1, k_max + 1):
        alpha = float(rng.uniform(0.0, q**k))
        z = random_spectral(rng, k, center=0.0, rmin=0.8, rmax=3.0)
        r = identity_qbinomial(k, q, alpha, z)
        acc.add(f"k={k} alpha={alpha:.3f}", r.lhs, r.rhs, tolerance + r.rounding_bound)
    r = identity_qbinomial(2, q, 0.1, [2.0, 3.0])
    acc.add("k=2 closed form", r.lhs, (1.0 - 0.1 / q) * (1.0 - 0.1 / q**2),
            tolerance + r.rounding_bound)
    r = identity_qbinomial(2, 0.5, 0.1, [2.0, 3.0])
    acc.add("k=2 q=0.5 anchor 0.48", r.lhs, 0.48, tolerance + r.rounding_bound)


def check_identity_halfstat(acc: Accumulator, q: float = 0.5, k_max: int = 3,
                            tolerance: float = 1e-8, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for k in range(1, k_max + 1):
        alpha = float(rng.uniform(0.0, 0.5 * q**k))
        # z close to the base point so the series ratio is small
        z = [1.0 + 0.06 * np.exp(2j * np.pi * rng.random()) * (1 + 0.3 * j)
             for j in range(k)]
        r = identity_halfstat_transform(k, q, alpha, z, depth=40 + 10 * k)
        acc.add(f"k={k} alpha={alpha:.3f}", r.lhs, r.rhs, tolerance, tail=r.tail_bound)
    r = identity_halfstat_transform(1, 0.5, 0.05, [0.9], depth=120)
    acc.add("k=1 q=0.5 anchor -0.125", r.lhs, -0.125, tolerance, tail=r.tail_bound)
    # residual decreases geometrically with the predicted ratio
    z = [0.85]
    deep = identity_halfstat_transform(1, q, 0.05, z, depth=60)
    shallow = identity_halfstat_transform(1, q, 0.05, z, depth=30)
    ratio = abs(0.15 / (1.0 - 0.05 / q))
    predicted = abs(shallow.lhs - shallow.rhs) * ratio**30
    ok = abs(deep.lhs - deep.rhs) <= 10.0 * max(predicted, 1e-15)
    acc.add_residual("truncation decay matches ratio", 0.0 if ok else 1.0, tolerance)
