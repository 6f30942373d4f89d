"""Checks of the eigenrelations, boundary conditions, and generator symmetries."""

from __future__ import annotations

import numpy as np

from qboson.checks import random_spectral, random_weyl
from qboson.eigenfunctions import EigenFamily, EigenTable
from qboson.generators import (
    GeneratorKind,
    StateBox,
    boundary_residual,
    cluster_weight_diagonal,
    extended_apply,
    free_apply,
    generator_apply,
    matrix_on_box,
    reflection_permutation,
)
from qboson.qcore import WeylVector, cluster_decompose
from qboson.report import Accumulator

# generator kind acting on each eigenfunction side
_SIDE_TO_GEN = {"left": "bwd", "cfwd": "cfwd", "right": "fwd"}


def _model_cases(q: float, eps: float):
    return [
        ("qboson", q, 1.0, 1.0 + 0.0j, 5),
        ("eps", q, eps, complex(eps), 4),
        ("sd", q, 1.0, 0.0 + 0.0j, 4),
    ]


def check_eigen_relation(acc: Accumulator, q: float = 0.5, eps: float = 0.6,
                         samples: int = 100, tolerance: float = 1e-10, seed: int = 0) -> None:
    """H Psi = E(z) Psi for all three sides of all three model families."""
    rng = np.random.default_rng(seed)
    for model, qq, ee, center, kmax in _model_cases(q, eps):
        for _ in range(samples):
            k = int(rng.integers(1, kmax + 1))
            n = random_weyl(rng, k)
            z = random_spectral(rng, k, center=center)
            for side in ("left", "cfwd", "right"):
                fam = EigenFamily(f"{model}-{side}", qq, ee)
                gk = GeneratorKind(_SIDE_TO_GEN[side], model, qq, ee)
                psi = EigenTable(fam, z, validate=False)
                lhs = generator_apply(gk, psi, n)
                rhs = fam.eigenvalue(z) * psi(n)
                acc.add(f"{model}-{side} k={k} n={n.coords}", lhs, rhs, tolerance)


def check_boundary_conditions(acc: Accumulator, q: float = 0.5, eps: float = 0.6,
                              samples: int = 100, tolerance: float = 1e-12,
                              seed: int = 0) -> None:
    """Two-body boundary residuals of the eigenfunctions vanish on diagonals."""
    rng = np.random.default_rng(seed)
    for model, qq, ee, center, kmax in _model_cases(q, eps):
        kmax = min(kmax, 4)
        for _ in range(samples):
            k = int(rng.integers(2, kmax + 1))
            # force a diagonal pair
            i = int(rng.integers(0, k - 1))
            coords = list(random_weyl(rng, k).coords)
            coords[i + 1] = coords[i]
            n = WeylVector(tuple(sorted(coords, reverse=True)))
            i = next(j for j in range(k - 1) if n.coords[j] == n.coords[j + 1])
            z = random_spectral(rng, k, center=center)
            for side, free_kind in (("left", "free-bwd"), ("cfwd", "free-fwd")):
                fam = EigenFamily(f"{model}-{side}", qq, ee)
                gk = GeneratorKind(free_kind, model, qq, ee)
                # the boundary conditions live on Z^k: probe the raw
                # symmetrized-sum formula, no coordinate sorting
                table = EigenTable(fam, z, validate=False)
                u = lambda coords: table.states(coords)[0]
                res = boundary_residual(gk, u, i, n)
                scale = 1.0 + abs(u(n.coords))
                acc.add_residual(f"{model}-{side} k={k} i={i}", abs(res) / scale, tolerance)


def check_pt_invariance(acc: Accumulator, q: float = 0.5, eps: float = 0.4,
                        box_radius: int = 4, kmax: int = 3, tolerance: float = 1e-12,
                        seed: int = 0) -> None:
    """Backward = (R C) forward (R C)^{-1} entrywise on symmetric boxes."""
    for model in ("qboson", "eps", "sd"):
        ee = eps if model == "eps" else 1.0
        for k in range(1, kmax + 1):
            box = StateBox(k, -box_radius, box_radius)
            gb = GeneratorKind("bwd", model, q, ee)
            gf = GeneratorKind("fwd", model, q, ee)
            B = matrix_on_box(gb, box).toarray()
            F = matrix_on_box(gf, box).toarray()
            perm = reflection_permutation(box)
            C = cluster_weight_diagonal(gb, box)
            Rm = np.zeros_like(B)
            Rm[np.arange(len(perm)), perm] = 1.0
            RC = Rm @ np.diag(C)
            resid = np.abs(B - RC @ F @ np.linalg.inv(RC)).max()
            acc.add_residual(f"{model} k={k}", float(resid), tolerance)
            # transpose identity comes along for free
            acc.add_residual(f"{model} k={k} transpose", float(np.abs(B.T - F).max()), tolerance)


def check_extended_operator(acc: Accumulator, q: float = 0.5, samples: int = 60,
                            tolerance: float = 1e-10, seed: int = 0) -> None:
    """Whole-lattice operator reproduces the eigenrelation on symmetric
    extensions, at points whose equal coordinates sit in adjacent slots."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        k = int(rng.integers(1, 5))
        n_sorted = random_weyl(rng, k, lo=-4, hi=4)
        # shuffle cluster blocks, keeping ties adjacent
        blocks = [n_sorted.coords[start:stop] for start, stop in cluster_decompose(n_sorted)]
        order = rng.permutation(len(blocks))
        coords = tuple(v for b in order for v in blocks[b])
        z = random_spectral(rng, k)
        psi = EigenTable(EigenFamily("qboson-left", q), z, validate=False)

        def psi_ext(cs_):
            return psi(WeylVector(tuple(sorted(cs_, reverse=True))))

        lhs = extended_apply(psi_ext, coords, q)
        rhs = (q - 1.0) * sum(z) * psi_ext(coords)
        acc.add(f"k={k} n={coords}", lhs, rhs, tolerance)
    # reduction to the free generator without ties
    for _ in range(10):
        k = int(rng.integers(2, 5))
        base = sorted(rng.choice(np.arange(-5, 6), size=k, replace=False).tolist(), reverse=True)
        coords = tuple(int(v) for v in rng.permutation(base))
        z = random_spectral(rng, k)
        psi = EigenTable(EigenFamily("qboson-left", q), z, validate=False)
        psi_ext = lambda cs_: psi(WeylVector(tuple(sorted(cs_, reverse=True))))
        lhs = extended_apply(psi_ext, coords, q)
        gk = GeneratorKind("free-bwd", "qboson", q)
        rhs = free_apply(gk, lambda c: psi_ext(c), coords)
        acc.add(f"free-reduction k={k}", lhs, rhs, tolerance)
    # constant function: pure differences vanish
    lhs = extended_apply(lambda c: 1.0, (3, 3), q)
    acc.add("constant k=2", lhs, 0.0, tolerance)
