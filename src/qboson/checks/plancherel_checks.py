"""Checks of the transform pair: identity resolution, dual identity,
pairing isomorphism, biorthogonality, spectral orthogonality, and the
residue-expansion machinery."""

from __future__ import annotations

import itertools

import numpy as np

from qboson.checks import identity_tables
from qboson.contours import (
    QuadratureSpec,
    default_nodes,
    nested_contours,
    plan_nodes,
    single_gamma,
    string_circle,
)
from qboson.degenerations import admissible_F, spectral_orthogonality_sides
from qboson.eigenfunctions import EigenFamily, EigenTable, p_map
from qboson.plancherel import (
    composition_table,
    inverse_J_batch,
    mu_weight,
    mu_weight_appendix,
    mu_weight_vandermonde,
    pairing_spatial,
    residue_expand_nested,
    residue_expand_sum,
    residue_weight_determinant,
    residue_weight_direct,
)
from qboson.qcore import CompactFn, WeylVector, partitions_of, weyl_vectors_in_box
from qboson.report import Accumulator


def check_plancherel_forward(acc: Accumulator, q: float = 0.5, box_radius: int = 4,
                             nodes: int = 128, tolerance: float = 1e-6) -> None:
    """Inverse transform of the forward transform resolves every delta:
    all three evaluation modes, k = 1..3.

    k <= 2 runs at the given q; the k = 3 leg runs at q = 0.25 where the
    string circle can be large enough (its radius is capped at
    (1-q)/(1+q)) to keep the power-contraction roundoff amplification of
    the extreme box corners below tolerance, and the nested mode is
    additionally run at the given q.
    """
    r = box_radius
    legs = [(f"k={k} {mode}", cs, k, -r, r) for k in (1, 2) for mode, cs in (
        ("nested", nested_contours(k, q, r_k=0.3)),
        ("single-gamma", single_gamma(q, k=k)),
        ("expanded", string_circle(q, radius=0.3)),
    )]
    legs += [(f"k=3 {mode} q=0.25", cs, 3, -r, r) for mode, cs in (
        ("nested", nested_contours(3, 0.25, r_k=0.5)),
        ("single-gamma", single_gamma(0.25, k=3)),
        ("expanded", string_circle(0.25, radius=0.5)),
    )]
    legs.append((f"k=3 nested given q={q}", nested_contours(3, q, r_k=0.3), 3, -r, r))
    identity_tables(acc, legs, nodes, tolerance)


def _monomial_basis(k: int, max_total_degree: int):
    """Weakly decreasing integer exponent vectors m with sum |m_i| <= degree."""
    d = max_total_degree
    return [n.coords for n in weyl_vectors_in_box(k, -d, d) if sum(map(abs, n.coords)) <= d]


def _sym_monomial(m: tuple[int, ...]):
    k = len(m)

    def fn(zs):
        total = None
        for sigma in itertools.permutations(range(k)):
            term = None
            for j in range(k):
                f = (1.0 - zs[sigma[j]]) ** m[j]
                term = f if term is None else term * f
            total = term if total is None else total + term
        return total

    return fn


def check_plancherel_dual(acc: Accumulator, q: float = 0.5, max_degree: int = 3,
                          n_points: int = 20, nodes: int = 256, tolerance: float = 1e-6,
                          seed: int = 0) -> None:
    """Forward transform of the inverse transform fixes every symmetric
    Laurent monomial in the base variables, at random spectral points.

    The spatial sum is exactly finite: outside [min m - margin, max m +
    margin] the inverse transform vanishes identically (expanding the
    outermost contour to a large circle shows no residue survives above the
    top degree; shrinking the innermost to the base point kills everything
    below the bottom degree).  The two boundary shells are summed into the
    reported tail bound as the numerical witness of that support bound.
    """
    rng = np.random.default_rng(seed)
    spec = QuadratureSpec(nodes)
    for k in (1, 2):
        cs = nested_contours(k, q, r_k=0.3)
        zs_pool = []
        for _ in range(n_points):
            # spectral points on the integration circles themselves
            z = [cs.circles[j].center + cs.circles[j].radius * np.exp(2j * np.pi * rng.random())
                 for j in range(k)]
            zs_pool.append([complex(v) for v in z])
        fam = EigenFamily("qboson-right", q)
        for m in _monomial_basis(k, max_degree):
            G = _sym_monomial(m)
            lo = min(m) - 2
            hi = max(m) + 2
            window = list(weyl_vectors_in_box(k, lo, hi))
            jg = inverse_J_batch(G, window, cs, spec)[0]
            boundary = [i for i, n_ in enumerate(window)
                        if n_.coords[0] in (hi, hi - 1) or n_.coords[-1] in (lo, lo + 1)]
            for z in zs_pool:
                psi = EigenTable(fam, z, validate=False).states([n_.coords for n_ in window])
                total = sum(v * p for v, p in zip(jg, psi))
                # boundary shells (analytically zero) witness the support
                # bound; their weighted magnitude certifies the truncation
                tail = 3.0 * sum(abs(jg[i] * psi[i]) for i in boundary)
                gz = complex(G(tuple(np.asarray(v) for v in z)))
                acc.add(f"k={k} m={m}", total, gz, tolerance, tail=tail)


def _random_compact(rng: np.random.Generator, k: int, radius: int = 3,
                    npts: int = 4) -> CompactFn:
    data = {}
    while len(data) < npts:
        coords = tuple(sorted((int(v) for v in rng.integers(-radius, radius + 1, size=k)),
                              reverse=True))
        data[WeylVector(coords)] = complex(rng.normal(), rng.normal())
    return CompactFn(data)


def check_plancherel_pairing(acc: Accumulator, q: float = 0.5, pairs: int = 20,
                             nodes: int = 128, tolerance: float = 1e-6, seed: int = 0) -> None:
    """Isomorphism identity <f, g> = <F(P f), F g> over random compact pairs."""
    rng = np.random.default_rng(seed)
    spec = QuadratureSpec(nodes)
    for k in (1, 2, 3):
        states = list(weyl_vectors_in_box(k, -3, 3))
        idx = {n: i for i, n in enumerate(states)}
        B = composition_table(states, single_gamma(q, k=k), spec, side="right")
        for _ in range(pairs):
            f = _random_compact(rng, k)
            g = _random_compact(rng, k)
            lhs = pairing_spatial(f, g)
            pf = p_map(f, q)
            rhs = 0.0 + 0.0j
            for n, vn in pf.items():
                for m, vm in g.items():
                    rhs += vn * vm * B[idx[n], idx[m]]
            acc.add(f"k={k}", lhs, rhs, tolerance)


def check_biorthogonality_spatial(acc: Accumulator, q: float = 0.5, box_radius: int = 3,
                                  nodes: int = 128, tolerance: float = 1e-6) -> None:
    """Spectral pairing of left and right eigenfunctions is the delta in
    the spatial labels (single-circle form for k <= 3, string form k <= 2)."""
    r = box_radius
    legs = [(f"k={k} single-gamma", single_gamma(q, k=k), k, -r, r) for k in (1, 2, 3)]
    legs += [(f"k={k} expanded", string_circle(q, radius=0.3), k, -r, r) for k in (1, 2)]
    identity_tables(acc, legs, nodes, tolerance)


def check_orthogonality_spectral(acc: Accumulator, q: float = 0.5,
                                 tolerance: float = 1e-5) -> None:
    """Spectral orthogonality of left and right eigenfunctions (the base
    family, i.e. the eps = 1 member), with certified spatial tails."""
    eps = 1.0
    cases = []
    F1 = admissible_F(1, eps, [2])
    cases.append(("k=1 M=2 G=1", F1, lambda ws: ws[0] * 0 + 1.0, 1))
    F2 = admissible_F(2, eps, [2, 3])
    cases.append(("k=2 asym G", F2, lambda ws: (eps - ws[0]) ** 2 + 0.5 * (eps - ws[1]), 2))
    cases.append(("k=2 sym G", F2, lambda ws: (eps - ws[0]) * (eps - ws[1]) + 2.0, 2))
    nonzero = 0.0
    for label, F, G, k in cases:
        r = spectral_orthogonality_sides(F, G, eps, k, q)
        acc.add(label, r["lhs"], r["rhs"], tolerance, tail=r["tail_bound"])
        nonzero = max(nonzero, abs(r["rhs"]))
    acc.add_residual("nonvacuous (some case has |rhs| > 0.01)",
                     0.0 if nonzero > 0.01 else 1.0, tolerance)


def _random_analytic_F(rng: np.random.Generator):
    """Entire symmetric product prod_j exp(a (z_j - 1) + b (z_j - 1)^2)."""
    a = complex(rng.normal(0, 0.5), rng.normal(0, 0.5))
    b = complex(rng.normal(0, 0.2), rng.normal(0, 0.2))

    def fn(zs):
        out = None
        for z in zs:
            f = np.exp(a * (z - 1.0) + b * (z - 1.0) ** 2)
            out = f if out is None else out * f
        return out

    return fn


def check_residue_expansion(acc: Accumulator, q: float = 0.25, n_functions: int = 5,
                            tolerance: float = 1e-6, seed: int = 0) -> None:
    """Nested integral of the scattering kernel equals its partition
    expansion over string-specialized integrals, for analytic symmetric F.

    Each side plans its own node count per k with `plan_nodes`: from 16
    per axis, doubling while the planner's worst error estimate (its
    extrapolation of the side's half-grid differences and rounding bounds)
    exceeds tolerance/100, up to `default_nodes(k)`.  The string circle, the
    innermost one, has radius min(0.3, 0.6 (1-q)/(1+q)): at most 0.6 of
    the largest radius (1-q)/(1+q) whose q-image clears it, so it is valid
    at every q and never crowds its images as q grows.  The chosen node
    counts and the planner's estimates are recorded under
    params["quadrature"].
    """
    rng = np.random.default_rng(seed)
    r_k = min(0.3, 0.6 * (1.0 - q) / (1.0 + q))
    acc.params["string_radius"] = r_k
    string = string_circle(q, radius=r_k)
    target = tolerance / 100.0
    quadrature = acc.params["quadrature"] = {}
    for k in (1, 2, 3, 4):
        cs = nested_contours(k, q, r_k=r_k, margin=0.5)
        Fs = [_random_analytic_F(rng) for _ in range(n_functions)]
        sides = {
            "nested": plan_nodes(lambda spec: residue_expand_nested(Fs, cs, spec),
                                 target, default_nodes(k)),
            "sum": plan_nodes(lambda spec: residue_expand_sum(Fs, k, string, spec),
                              target, default_nodes(k)),
        }
        quadrature[f"k={k}"] = {
            side: {"nodes": plan.nodes, "estimate": float(np.max(plan.estimates))}
            for side, plan in sides.items()
        }
        for i in range(n_functions):
            acc.add(f"k={k} F#{i}", sides["nested"].values[i], sides["sum"].values[i],
                    tolerance)


def check_residue_weight(acc: Accumulator, q: float = 0.5, trials: int = 3,
                         tolerance: float = 1e-10, seed: int = 0) -> None:
    """Direct index-cancellation residue of the scattering kernel against
    its Cauchy-determinant closed form, for every partition of k <= 4."""
    rng = np.random.default_rng(seed)
    for k in range(1, 5):
        for lam in partitions_of(k):
            for _ in range(trials):
                w = rng.normal(1.0, 0.3, lam.length) + 1j * rng.normal(0.0, 0.3, lam.length)
                a = residue_weight_direct(lam, list(w), q)
                b = residue_weight_determinant(lam, list(w), q)
                acc.add(f"k={k} lam={lam.parts}", a, b, tolerance)


def check_measure_consistency(acc: Accumulator, q: float = 0.5, trials: int = 3,
                              tolerance: float = 1e-12, seed: int = 0) -> None:
    """The three printed normalizations of the string measure coincide
    (they differ by exponent bookkeeping that cancels since |lam| = k)."""
    rng = np.random.default_rng(seed)
    for k in range(1, 7):
        for lam in partitions_of(k):
            for _ in range(trials):
                w = rng.normal(1.0, 0.2, lam.length) + 1j * rng.normal(0.0, 0.2, lam.length)
                a = mu_weight(lam, list(w), q)
                b = mu_weight_appendix(lam, list(w), q)
                c = mu_weight_vandermonde(lam, list(w), q)
                acc.add(f"k={k} lam={lam.parts} appendix", a, b, tolerance)
                acc.add(f"k={k} lam={lam.parts} vandermonde", a, c, tolerance)
