"""Checks of the eps-deformed, Hall-Littlewood, and semi-discrete systems."""

from __future__ import annotations

import math

import numpy as np

from qboson.checks import identity_tables, random_spectral, random_weyl
from qboson.contours import (
    nested_contours,
    single_gamma,
    string_circle,
)
from qboson.degenerations import (
    admissible_F,
    c_eps,
    cauchy_littlewood_check,
    crl_relation_check,
    d_eps,
    deriv_matrices,
    hl_dictionary_residuals,
    hl_P,
    hl_Q,
    oy_simulate,
    psi_cfwd_eps_derivative,
    psi_left_eps_derivative,
    sd_moment_formula,
    sd_moment_poisson_chain,
    spectral_orthogonality_sides,
)
from qboson.eigenfunctions import EigenFamily, EigenTable, eigen_eval
from qboson.generators import GeneratorKind, generator_apply
from qboson.qcore import WeylVector, cq_weight
from qboson.report import Accumulator

def check_eps_plancherel(acc: Accumulator, q: float = 0.5, eps: float = 0.5,
                         nodes: int = 128, tolerance: float = 1e-6) -> None:
    """Identity resolution for the eps-deformed transform pair at eps = 0.5:
    the q-Boson transform pair with its marked point at eps, on nested,
    single-circle and string contours that carry that eps."""
    if eps <= 0:
        raise ValueError("the contour-based pipeline needs eps > 0; "
                         "use the Hall-Littlewood route at eps = 0")
    legs = []
    for k in (1, 2):
        legs += [(f"k={k} nested", nested_contours(k, q, r_k=0.3 * eps, center=eps), k, -3, 3),
                 (f"k={k} single-gamma", single_gamma(q, k=k, eps=eps), k, -3, 3)]
        legs.append((f"k={k} expanded", string_circle(q, center=eps), k, -2, 2))
    identity_tables(acc, legs, nodes, tolerance)


def check_eps_orthogonality(acc: Accumulator, q: float = 0.5,
                            tolerance: float = 1e-5) -> None:
    """Spectral orthogonality across the deformation family, eps in
    {0, 0.25, 0.5, 1}: the residual is flat in eps (the derivative of the
    relation vanishes identically)."""
    nonzero = 0.0
    for eps in (0.0, 0.25, 0.5, 1.0):
        F1 = admissible_F(1, eps, [2])
        G1 = lambda ws: ws[0] * 0 + 1.0
        r = spectral_orthogonality_sides(F1, G1, eps, 1, q)
        acc.add(f"eps={eps} k=1", r["lhs"], r["rhs"], tolerance, tail=r["tail_bound"])
        nonzero = max(nonzero, abs(r["rhs"]))
        F2 = admissible_F(2, eps, [2, 3])
        G2 = lambda ws, _e=eps: (_e - ws[0]) ** 2 + 0.5 * (_e - ws[1])
        r = spectral_orthogonality_sides(F2, G2, eps, 2, q)
        acc.add(f"eps={eps} k=2", r["lhs"], r["rhs"], tolerance, tail=r["tail_bound"])
        nonzero = max(nonzero, abs(r["rhs"]))
    acc.add_residual("nonvacuous", 0.0 if nonzero > 0.01 else 1.0, tolerance)


def check_eps_deriv_relation(acc: Accumulator, q: float = 0.5, tolerance: float = 1e-12,
                             seed: int = 0) -> None:
    """The derivative-matrix machinery: coefficient closed forms, the exact
    expansion of d/d eps of both eigenfunctions, and the intertwining
    relation between the right and left derivative matrices."""
    rng = np.random.default_rng(seed)
    # closed forms and the recurrence
    acc.add("c(2,1) = q", c_eps(2, 1, 0.7, q), q, tolerance)
    for k in range(1, 9):
        acc.add(f"D(k,k-1) k={k}", d_eps(k, k - 1, 0.7, q),
                (1.0 - q**k) / (1.0 - q), tolerance)
        if k == 1:
            continue  # the recurrence's base case
        for i in range(k):
            lhs = c_eps(k, i, 0.37, q)
            rhs = (c_eps(k - 1, i - 1, 0.37, q) * q ** (k - i)
                   + c_eps(k - 1, i, 0.37, q) * 0.37 * (1.0 - q ** (k - i - 1)))
            acc.add(f"recurrence k={k} i={i}", lhs, rhs, tolerance)
    # derivative expansion against the exact termwise derivative
    for _ in range(25):
        k = int(rng.integers(1, 5))
        n = random_weyl(rng, k, lo=-4, hi=4)
        eps = float(rng.uniform(0.2, 1.2))
        z = random_spectral(rng, k, center=eps + 0.0j, rmin=0.6, rmax=1.8)
        psi_c = EigenTable(EigenFamily("qboson-cfwd", q, eps), z, validate=False)
        d_sum = sum(v * psi_c(m) for m, v in deriv_matrices(n, "right", eps, q).items())
        d_exact = psi_cfwd_eps_derivative(z, n, eps, q)
        acc.add(f"right expansion k={k}", d_sum, d_exact, 1e-11)
        psi_l = EigenTable(EigenFamily("qboson-left", q, eps), z, validate=False)
        d_sum = sum(v * psi_l(m) for m, v in deriv_matrices(n, "left", eps, q).items())
        d_exact = psi_left_eps_derivative(z, n, eps, q)
        acc.add(f"left expansion k={k}", d_sum, d_exact, 1e-11)
    # the intertwining relation at single clusters, the worked two-block
    # case, and random chamber points
    for eps in (0.3, 1.0):
        for coords in [(3,), (2, 2), (4, 4, 1), (5, 5, 5, 2, 2), (1, 0, 0, -1, -1)]:
            r = crl_relation_check(WeylVector(coords), eps, q)
            acc.add_residual(f"crl n={coords} eps={eps}", r["worst"], tolerance)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            n = random_weyl(rng, k, lo=-3, hi=5)
            r = crl_relation_check(n, eps, q)
            acc.add_residual(f"crl random k={k} eps={eps}", r["worst"], tolerance)


def check_hl_identification(acc: Accumulator, q: float = 0.5, n_max: int = 5,
                            tolerance: float = 1e-12, seed: int = 0) -> None:
    """eps = 0 eigenfunctions equal sign-normalized Hall-Littlewood P and Q."""
    rng = np.random.default_rng(seed)
    for k in range(1, 5):
        for _ in range(12):
            n = WeylVector(tuple(sorted(rng.integers(0, n_max + 1, size=k).tolist(),
                                        reverse=True)))
            z = random_spectral(rng, k, center=0.0, rmin=0.5, rmax=1.8)
            rl, rr = hl_dictionary_residuals(n, z, q)
            acc.add_residual(f"right k={k} n={n.coords}", rr, tolerance)
            if not math.isnan(rl):
                acc.add_residual(f"left k={k} n={n.coords}", rl, tolerance)
    acc.add("P_(3) one variable", hl_P(WeylVector((3,)), [1.3], q), 1.3**3, tolerance)
    acc.add("P_(1) two variables", hl_P(WeylVector((1, 0)), [1.2, 0.7], q), 1.9, tolerance)
    acc.add("P_(1,1)", hl_P(WeylVector((1, 1)), [1.2, 0.7], q), 1.2 * 0.7, tolerance)
    acc.add("Q_(2) one variable", hl_Q(WeylVector((2,)), [1.3], q), (1 - q) * 1.3**2, tolerance)


def check_cauchy_littlewood(acc: Accumulator, q: float = 0.5, depth: int = 40,
                            tolerance: float = 1e-8) -> None:
    """Truncated Cauchy-Littlewood sum against the product kernel."""
    r = cauchy_littlewood_check(1, q, [0.3], [1.1], depth=depth + 20)
    closed = (1.1 - q * 0.3) / (1.1 - 0.3)
    acc.add("k=1 closed form", r["lhs"], closed, tolerance, tail=r["tail_bound"])
    r = cauchy_littlewood_check(2, q, [0.2, 0.1], [1.0, 1.3], depth=depth)
    acc.add("k=2", r["lhs"], r["rhs"], tolerance, tail=r["tail_bound"])
    r = cauchy_littlewood_check(2, q, [0.25 + 0.1j, 0.1 - 0.05j], [1.2, 0.9 + 0.3j],
                                depth=depth)
    acc.add("k=2 complex", r["lhs"], r["rhs"], tolerance, tail=r["tail_bound"])
    # q -> 0 reduces the kernel to the geometric/Schur case
    r = cauchy_littlewood_check(1, 1e-9, [0.4], [1.3], depth=80)
    acc.add("q->0 k=1", r["lhs"], 1.3 / (1.3 - 0.4), tolerance, tail=r["tail_bound"])


def check_sd_eigen(acc: Accumulator, tolerance: float = 1e-10, seed: int = 0) -> None:
    """Semi-discrete eigenrelations and the reflection symmetry with the
    plain-factorial cluster weight."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        n = random_weyl(rng, k)
        z = random_spectral(rng, k, center=0.0, rmin=0.5, rmax=2.0)
        ev = sum(zi - 1.0 for zi in z)
        for side, gen in (("left", "bwd"), ("cfwd", "cfwd"), ("right", "fwd")):
            fam = EigenFamily(f"sd-{side}")
            gk = GeneratorKind(gen, "sd")
            psi = EigenTable(fam, z, validate=False)
            acc.add(f"sd-{side} k={k}", generator_apply(gk, psi, n), ev * psi(n), tolerance)
        # reflection symmetry
        fam_l = EigenFamily("sd-left")
        fam_r = EigenFamily("sd-right")
        lhs = eigen_eval(fam_l, z, n.reflect(), validate=False)
        rhs = cq_weight(n, None) * eigen_eval(fam_r, z, n, validate=False)
        acc.add(f"sd reflection k={k}", lhs, rhs, tolerance)


def check_sd_plancherel(acc: Accumulator, nodes: int = 128, tolerance: float = 1e-6) -> None:
    """Identity resolution for the semi-discrete transform pair, k <= 2."""
    legs = [(f"k={k} {mode}", cs, k, -3, 3) for k in (1, 2) for mode, cs in (
        ("nested", nested_contours(k, None, r_k=0.4, margin=0.1)),
        ("expanded", string_circle(None, radius=0.4)),
    )]
    identity_tables(acc, legs, nodes, tolerance)


def check_sd_biorthogonality(acc: Accumulator, nodes: int = 128,
                             tolerance: float = 1e-6) -> None:
    """Spatial biorthogonality of the semi-discrete eigenfunctions via the
    additive-string pairing (the expanded composition form)."""
    identity_tables(acc, [(f"k={k}", string_circle(None, radius=0.4), k, -2, 3) for k in (1, 2)],
                    nodes, tolerance)


def check_sd_moment(acc: Accumulator, t: float = 1.0, paths: int = 100_000,
                    dt: float = 0.05, tolerance: float = 1e-8, seed: int = 0) -> None:
    """Semi-discrete moment formula against the one-site Poisson chain and
    the stochastic-ODE simulation of the coupled system.

    The simulation's step bias is certified small against the 4-sigma gate:
    at the default dt and t = 1, runs at dt and dt/2 on the same increments
    differ in mean by at most 3e-4 (mean plus four standard errors, tier-1
    test) on Z_2, Z_1 Z_2 and Z_2^2, about a quarter of the smallest standard
    error (about 1.2e-3) at the default 1e5 paths; for a weak order >= 1 the
    bias is at most twice that difference."""
    for n_ in range(1, 6):
        v = sd_moment_formula(WeylVector((n_,)), 0.7)
        acc.add(f"k=1 n={n_} Poisson chain", v, sd_moment_poisson_chain(n_, 0.7), tolerance)
    res = oy_simulate(2, t, dt, paths, seed=seed + 5)
    for n in ((1,), (2,), (2, 1), (2, 2)):
        est, se = res.moment(n)
        v = sd_moment_formula(WeylVector(n), t)
        acc.add(f"MC n={n}", complex(est), v, 4.0, sigma=se)
    # exact one-site law: E Z_1 = e^{-t}
    est, se = res.moment((1,))
    acc.add("MC E Z_1 lognormal", complex(est), math.exp(-t), 4.0, sigma=se)
