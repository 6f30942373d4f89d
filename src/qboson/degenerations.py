"""Deformed and limiting systems: the eps-family, Hall-Littlewood limit,
and the semi-discrete system with its stochastic-ODE oracle.

The eps-deformation replaces the one-particle base 1 - z by eps - z; at
eps = 1 every object reduces to the q-Boson one, and at eps = 0 the
eigenfunctions become (sign-normalized) Hall-Littlewood polynomials.  The
spectral orthogonality of left and right eigenfunctions is proved along
this family: its eps-derivative vanishes because the derivative matrices
C^r and C^ell below satisfy an exact intertwining relation, and at eps = 0
it reduces to the Cauchy-Littlewood summation identity.

The semi-discrete family (base z, unit-shifted scattering) governs the
joint moments of the semi-discrete stochastic heat equation, simulated
here by a log-domain Euler scheme of the coupled linear SDE system.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from qboson.contours import (
    ContourSystem,
    QuadratureSpec,
    _grid_chunks,
    gamma_prime,
    grid_nodes_weights,
    integrate,
    sd_nested_contours,
    single_gamma,
)
from qboson.eigenfunctions import (
    EigenFamily,
    EigenTable,
    ScatteringGrid,
    eigen_eval,
    fsum_complex,
)
from qboson.dynamics import mc_mean
from qboson.plancherel import nested_kernel_grid
from qboson.qcore import (
    WeylVector,
    check_q,
    check_time,
    cluster_decompose,
    cq_weight,
    negative_binomial_tail,
    q_factorial,
    q_pochhammer,
    weyl_vectors_in_box,
)


# ---------------------------------------------------------------------------
# eps-derivative matrices


def c_eps(k: int, i: int, eps: float, q: float) -> float:
    """Coefficients of the single-cluster shift expansion,
    eps^{k-i-1} q^i (q;q)_{k-1} / (q;q)_i, for 0 <= i <= k-1."""
    check_q(q)
    if not (0 <= i <= k - 1):
        return 0.0
    return eps ** (k - i - 1) * q**i * float(
        q_pochhammer(q, q, k - 1).real / q_pochhammer(q, q, i).real
    )


@functools.lru_cache(maxsize=1024)
def d_eps(k: int, p: int, eps: float, q: float) -> float:
    """Cluster derivative weight D(k, p) = sum_{j<=p} c(k-p+j, j); closed form
    eps^{k-p-1} (1-q)^{k-p-1} k!_q (k-p-1)!_q / ((k-p)!_q p!_q)."""
    check_q(q)
    if not (0 <= p <= k - 1):
        return 0.0
    return (
        eps ** (k - p - 1)
        * (1.0 - q) ** (k - p - 1)
        * q_factorial(k, q)
        * q_factorial(k - p - 1, q)
        / (q_factorial(k - p, q) * q_factorial(p, q))
    )


@dataclass(frozen=True)
class DerivMatrixEntry:
    source: WeylVector
    target: WeylVector
    side: str  # "right" or "left"
    value: float


def deriv_matrices(n: WeylVector, side: str, eps: float, q: float) -> tuple[DerivMatrixEntry, ...]:
    """Nonzero entries of the eps-derivative matrix row at n.

    right: d/d eps of the cluster-weighted right eigenfunction expands over
    targets obtained by lowering a tail segment of one cluster;
    left: d/d eps of the left eigenfunction expands over targets obtained
    by raising a head segment of one cluster, with a sign flip.
    """
    check_q(q)
    out = []
    for start, stop in cluster_decompose(n):
        c = stop - start
        end = stop - 1  # the last index of the cluster
        n_last = n.coords[end]
        if side == "right":
            for p in range(0, c):
                m = n.bump_range(start + p, end, -1)
                out.append(DerivMatrixEntry(n, m, side, n_last * d_eps(c, p, eps, q)))
        elif side == "left":
            for p in range(1, c + 1):
                m = n.bump_range(start, start + p - 1, +1)
                out.append(DerivMatrixEntry(n, m, side, -n_last * d_eps(c, c - p, eps, q)))
        else:
            raise ValueError("side must be 'right' or 'left'")
    return tuple(out)


def _row(n: WeylVector, side: str, eps: float, q: float) -> dict[WeylVector, float]:
    """The derivative row at n as a mapping from target to value.  No row
    repeats a target (each entry shifts its own index range of n), so the
    mapping keeps every entry."""
    return {e.target: e.value for e in deriv_matrices(n, side, eps, q)}


def _eps_derivative(fam: EigenFamily, z, n: WeylVector) -> complex:
    """d/d eps of an eps-eigenfunction without prefactor, term by term: each
    permutation's plane wave prod_j (eps - z_{p(j)})^{+-n_j} differentiates
    to itself times sum_j +-n_j / (eps - z_{p(j)})."""
    kern = EigenTable(fam, z, validate=False)
    e = fam.power_sign() * np.asarray(n.coords)
    return fsum_complex(kern.terms(n.coords)[:, 0] * (e / kern.bases[kern.perms]).sum(axis=1))


def psi_cfwd_eps_derivative(z, n: WeylVector, eps: float, q: float) -> complex:
    """Exact d/d eps of the cluster-weighted right (= conjugated forward)
    eps-eigenfunction, via term-wise differentiation of the powers."""
    return _eps_derivative(EigenFamily("eps-cfwd", q, eps), z, n)


def psi_left_eps_derivative(z, n: WeylVector, eps: float, q: float) -> complex:
    """Exact d/d eps of the left eps-eigenfunction."""
    return _eps_derivative(EigenFamily("eps-left", q, eps), z, n)


def left_sources(n: WeylVector, eps: float, q: float) -> dict[WeylVector, float]:
    """Every m whose left row at p = m+1 reaches n, mapped to C^ell(m+1, n).

    A left row raises a head segment of one cluster of p by one, so p is n
    lowered by one on a contiguous index range [a, b].  Each of the O(k^2)
    ranges whose lowering keeps n weakly decreasing gives a candidate p,
    kept when n is among the targets of its left row.
    """
    k = n.k
    out = {}
    for a in range(k):
        for b in range(a, k):
            if b + 1 < k and n.coords[b] == n.coords[b + 1]:
                continue  # lowering [a, b] would break the ordering
            p = n.bump_range(a, b, -1)
            row = _row(p, "left", eps, q)
            if n in row:
                out[p.shift(-1)] = row[n]
    return out


def crl_relation_check(n: WeylVector, eps: float, q: float,
                       m: WeylVector | None = None) -> dict:
    """Verify C^r(n-1, m) / C_q(n) = -C^ell(m+1, n) / C_q(m+1).

    With m omitted, every m that interacts with n is checked: the targets
    of the right row of n-1, and the m of ``left_sources(n)``, whose m+1 is
    n lowered by one on a contiguous index range.  With m given, only that
    pair is checked.  Returns the worst absolute residual and the number of
    pairs.
    """
    check_q(q)
    right = _row(n.shift(-1), "right", eps, q)
    left = {} if m is not None else left_sources(n, eps, q)
    targets = {m} if m is not None else set(right) | set(left)
    worst = 0.0
    for mm in targets:
        p = mm.shift(1)
        c_left = left[mm] if mm in left else _row(p, "left", eps, q).get(n, 0.0)
        lhs = right.get(mm, 0.0) / cq_weight(n, q)
        rhs = -c_left / cq_weight(p, q)
        worst = max(worst, abs(lhs - rhs))
    return {"worst": worst, "pairs": len(targets)}


# ---------------------------------------------------------------------------
# Hall-Littlewood polynomials and the eps = 0 dictionary


def _hl_vnorm(n: WeylVector, t: float) -> float:
    """v_lambda(t) = prod over part values (zero included) of m!_t."""
    mult: dict[int, int] = {}
    for p in n.coords:
        mult[p] = mult.get(p, 0) + 1
    out = 1.0
    for m in mult.values():
        out *= q_factorial(m, t)
    return out


def hl_P(n: WeylVector, x: Sequence[complex], t: float) -> complex:
    """Hall-Littlewood P polynomial by the explicit symmetrization formula.

    This hand-written k! loop is the independent side of hl-identification,
    which compares it with the eps = 0 eigenfunctions of the
    permutation-scattering kernel.  Keep it off that kernel, or the check
    compares the kernel with itself.
    """
    if n.coords[-1] < 0:
        raise ValueError("P needs n_k >= 0")
    k = n.k
    if len(x) != k:
        raise ValueError("need one variable per part (zeros allowed)")
    x = [complex(v) for v in x]
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(k)):
        term = 1.0 + 0.0j
        for j in range(k):
            term *= x[sigma[j]] ** n.coords[j]
        for i in range(k):
            for j in range(i + 1, k):
                xi, xj = x[sigma[i]], x[sigma[j]]
                term *= (xi - t * xj) / (xi - xj)
        total += term
    return total / _hl_vnorm(n, t)


def _hl_b(n: WeylVector, t: float) -> float:
    """b_lambda(t) = prod over positive part values v of (t; t)_{m_v}; Q
    ignores zero parts."""
    mult: dict[int, int] = {}
    for p in n.coords:
        if p > 0:
            mult[p] = mult.get(p, 0) + 1
    b = 1.0
    for m in mult.values():
        for j in range(1, m + 1):
            b *= 1.0 - t**j
    return b


def hl_Q(n: WeylVector, x: Sequence[complex], t: float) -> complex:
    """Hall-Littlewood Q = b_lambda P."""
    if n.coords[-1] < 1:
        raise ValueError("Q needs n_k >= 1")
    return _hl_b(n, t) * hl_P(n, x, t)


def hl_dictionary_residuals(n: WeylVector, z: Sequence[complex], q: float) -> tuple[float, float]:
    """Residuals of the eps = 0 eigenfunction / Hall-Littlewood identification.

    left:  Psi^{l,0}_z(n)  = (-1)^{sum n} (1-q)^{-k} Q_n(1/z; q)   (n_k >= 1)
    right: Psi^{r,0}_z(n)  = (-1)^{sum n} (-1)^k     P_n(z; q)     (n_k >= 0)
    """
    k = n.k
    fam_l = EigenFamily("eps-left", q, eps=0.0)
    fam_r = EigenFamily("eps-right", q, eps=0.0)
    sign = (-1.0) ** sum(n.coords)
    res_l = float("nan")
    if n.coords[-1] >= 1:
        lhs = eigen_eval(fam_l, z, n)
        rhs = sign * (1.0 - q) ** (-k) * hl_Q(n, [1.0 / complex(v) for v in z], q)
        res_l = abs(lhs - rhs) / (1.0 + abs(rhs))
    lhs = eigen_eval(fam_r, z, n)
    rhs = sign * (-1.0) ** k * hl_P(n, z, q)
    res_r = abs(lhs - rhs) / (1.0 + abs(rhs))
    return res_l, res_r


def cauchy_littlewood_check(k: int, q: float, z: Sequence[complex], w: Sequence[complex],
                            depth: int = 40) -> dict:
    """Truncated sum_{n_1 >= ... >= n_k >= 0} P_n(z) Q_n(1/w) against
    prod_{i,j} (w_j - q z_i)/(w_j - z_i), with a geometric tail certificate."""
    check_q(q)
    z = [complex(v) for v in z]
    w = [complex(v) for v in w]
    rho = max(abs(v) for v in z) / min(abs(v) for v in w)
    if rho >= 1.0:
        raise ValueError("absolute convergence needs max |z_i| < min |w_j|")
    invw = [1.0 / v for v in w]

    total = 0.0 + 0.0j
    for n in weyl_vectors_in_box(k, 0, depth):
        total += hl_P(n, z, q) * _hl_b(n, q) * hl_P(n, invw, q)
    rhs = 1.0 + 0.0j
    for i in range(k):
        for j in range(k):
            rhs *= (w[j] - q * z[i]) / (w[j] - z[i])
    # tail: |P_n(z) b Q-part| <= C_z C_w rho^{sum n} with the scattering sums
    # of the two symmetrizations (b <= 1, v_lambda >= 1) bounded at z and 1/w;
    # the symmetrization's products over i < j of (x_i - q x_j)/(x_i - x_j)
    # are the left family's scattering products, permutations reversed
    fam = EigenFamily("qboson-left", q)

    def _scat_sum(xs) -> float:
        return float(np.abs(EigenTable(fam, xs, validate=False).weights).sum())

    tail = _scat_sum(z) * _scat_sum(invw) * negative_binomial_tail(k, rho, depth)
    return {"lhs": total, "rhs": rhs, "tail_bound": tail}


# ---------------------------------------------------------------------------
# Spectral orthogonality along the eps family


def admissible_F(k: int, eps: float, orders: Sequence[int]):
    """Inner test class prod_i (eps - z_i)^{-orders_i}, orders >= 2.

    The orthogonality statement antisymmetrizes F on one side and pairs it
    with the antisymmetric Vandermonde on the other, so a symmetric F makes
    both sides vanish identically; the informative instances are the plain
    (non-symmetrized) products with distinct orders.
    """
    if len(orders) != k or any(o < 2 for o in orders):
        raise ValueError("need k orders, all >= 2")

    def fn(zs):
        out = None
        for i in range(k):
            f = (eps - zs[i]) ** (-orders[i])
            out = f if out is None else out * f
        return out

    return fn


def spectral_orthogonality_sides(F: Callable, G: Callable, eps: float, k: int,
                                 q: float) -> dict:
    """Both sides of the eps-family spectral orthogonality.

    LHS: sum over n of [integral of Psi^{r,eps} Delta F over gamma(eps)]
    times [integral of Psi^{l,eps} Delta G over the enlarged circle],
    truncated with a certified geometric tail (ratio max |eps - z| on the
    inner circle over min |eps - w| on the outer).  RHS: the single
    antisymmetrized integral with the (eps - w) prod (w_A - q w_B) density.
    The eps = 0 case uses the same circles around 0.
    """
    check_q(q)
    quad = QuadratureSpec(128)
    gamma = single_gamma(q, k=k, eps=eps)
    r_in = gamma.circles[0].radius
    outer_circle = gamma_prime(gamma)
    gamma_out = ContourSystem(tuple(outer_circle for _ in range(k)), gamma.family,
                              q=q, eps=eps)
    fam_r = EigenFamily("eps-right", q, eps)
    fam_l = EigenFamily("eps-left", q, eps)

    rho_in = r_in + abs(eps)
    rho_out = outer_circle.radius - abs(eps)
    ratio = rho_in / rho_out

    def vandermonde(zs):
        out = None
        for a in range(k):
            for b in range(a + 1, k):
                f = zs[a] - zs[b]
                out = f if out is None else out * f
        if out is None:
            out = np.asarray(1.0 + 0.0j)
        return out

    def grid_max(cs, fn):
        return max(float(np.abs(np.broadcast_to(fn(tuple(zs)), W.shape)).max())
                   for zs, W in _grid_chunks(cs, quad))

    # Term bounds: Delta(z) Psi cancels the scattering denominators, so each
    # permutation term is bounded by the product of numerator pair factors.
    cmax = max(abs(1.0 / cq_weight(m, q)) for m in weyl_vectors_in_box(k, 0, k))
    npairs = k * (k - 1) // 2
    pair_in = (r_in * (1.0 + 1.0 / q)) ** npairs
    pair_out = (outer_circle.radius * (1.0 + q)) ** npairs
    Fmag = grid_max(gamma, F)
    Gmag = grid_max(gamma_out, G)
    wsum_in = float(np.prod([np.abs(wv).sum() for wv in grid_nodes_weights(gamma, quad)[1]]))
    wsum_out = float(np.prod([np.abs(wv).sum() for wv in grid_nodes_weights(gamma_out, quad)[1]]))
    CA = wsum_in * Fmag * math.factorial(k) * pair_in * cmax
    CB = wsum_out * Gmag * math.factorial(k) * pair_out

    # Grow the state window until the tail bound certifies the remainder.
    n_hi = 8
    while True:
        # certified bound on the terms beyond sum n > n_hi is
        # CA CB sum_{s > n_hi} #shell(s) ratio^s; grow the window until small
        tail = CA * CB * negative_binomial_tail(k, ratio, n_hi)
        if tail < 1e-9 or n_hi > 200:
            break
        n_hi += 16

    states = [n for n in weyl_vectors_in_box(k, 0, n_hi)]
    coords = np.array([n.coords for n in states], dtype=int)

    def window_table(cs, fn, fam):
        """Integral over cs of Delta(z) fn(z) Psi^fam(z; n) at each state n of
        the window, before the prefactor."""
        sign = fam.power_sign()
        erange = (0, n_hi) if sign > 0 else (-n_hi, 0)
        out = np.zeros(len(states), dtype=complex)
        for zs, W in _grid_chunks(cs, quad):
            T0 = W * vandermonde(zs) * fn(tuple(zs))
            powers = ([fam.base(z).ravel() for z in zs], range(k), erange)
            for inv, table in ScatteringGrid(fam, zs).permuted(T0, powers):
                out += table[tuple(sign * coords[:, inv[m_]] - erange[0] for m_ in range(k))]
        return out

    A = fam_r.prefactors(coords) * window_table(gamma, F, fam_r)
    B = window_table(gamma_out, G, fam_l)
    lhs = complex(np.sum(A * B))

    def rhs_integrand(ws):
        prod = None
        for j in range(k):
            f = eps - ws[j]
            prod = f if prod is None else prod * f
        for a in range(k):
            for b in range(k):
                if a != b:
                    prod = prod * (ws[a] - q * ws[b])
        anti = None
        for sigma in itertools.permutations(range(k)):
            sgn = (-1.0) ** sum(
                1 for i in range(k) for j in range(i + 1, k) if sigma[i] > sigma[j]
            )
            t = sgn * F(tuple(ws[m_] for m_ in sigma))
            anti = t if anti is None else anti + t
        return (-1.0) ** (k * (k - 1) // 2) * prod * anti * G(ws)

    rhs = integrate(gamma, rhs_integrand, quad).value
    return {"lhs": lhs, "rhs": rhs, "tail_bound": tail}


def sd_moment_formula(n: WeylVector, t: float) -> complex:
    """Joint moments of the semi-discrete stochastic heat equation with unit
    mass initially at site 1:

    E prod_i Z(t, n_i) = k-fold integral of
        prod_{A<B} (z_A - z_B)/(z_A - z_B - 1) prod_j z_j^{-n_j} e^{t (z_j - 1)}.
    """
    check_time(t)
    if n.coords[-1] < 1:
        raise ValueError("moment indices must satisfy n_k >= 1")
    k = n.k
    cs = sd_nested_contours(k)
    quad = QuadratureSpec(256 if k <= 2 else 128)

    def integrand(zs):
        kern = nested_kernel_grid(zs, 0.5, model="sd")
        rest = None
        for j, z in enumerate(zs):
            f = z ** (-n.coords[j]) * np.exp(t * (z - 1.0))
            rest = f if rest is None else rest * f
        return kern * rest

    return integrate(cs, integrand, quad).value


def sd_moment_poisson_chain(n: int, t: float) -> float:
    """Closed form E Z(t, n) = e^{-t} t^{n-1} / (n-1)! for the single moment."""
    if n < 1:
        return 0.0
    return math.exp(-t) * t ** (n - 1) / math.factorial(n - 1)


@dataclass
class SdeResult:
    """Terminal samples of the semi-discrete stochastic heat system."""

    Z: np.ndarray  # (paths, N)
    t: float
    dt: float
    seed: int

    def moment(self, n: Sequence[int]) -> tuple[float, float]:
        obs = np.ones(self.Z.shape[0])
        for ni in n:
            obs = obs * self.Z[:, ni - 1]
        return mc_mean(obs)


def _oy_euler_step(u: np.ndarray, xi: np.ndarray, s: int, h: float, log_h: float,
                   r: np.ndarray) -> None:
    """Euler step s of every path, in place on the site-major log-state u.

    ``xi`` is the step's (paths, N) noise already scaled by sqrt(h) and
    ``r`` a scratch row.  Site n reads the old u_{n-1}, so sites run from
    last to first.  Site n is born at step n - 1 as u_{n-1} + log h on every
    path and steps as d log Z_n = (Z_{n-1}/Z_n - 3/2) dt + dB_n from then
    on; sites beyond s + 1 are still at -inf and are not touched.
    """
    N = u.shape[0]
    for n in range(min(N - 1, s + 1), 0, -1):
        if n == s + 1:
            np.add(u[n - 1], log_h, out=u[n])
            continue
        np.subtract(u[n - 1], u[n], out=r)
        np.clip(r, -700, 700, out=r)
        np.exp(r, out=r)
        np.subtract(r, 1.5, out=r)
        np.multiply(r, h, out=r)
        np.add(u[n], r, out=u[n])
        np.add(u[n], xi[:, n], out=u[n])
    np.subtract(u[0], 1.5 * h, out=u[0])
    np.add(u[0], xi[:, 0], out=u[0])


def oy_simulate(N: int, t: float, dt: float, paths: int, seed: int = 0,
                trajectory_csv: str | None = None) -> SdeResult:
    """Log-domain Euler scheme for dZ(t,n) = (Z(t,n-1) - Z(t,n)) dt + Z(t,n) dB_n.

    Unit mass starts at site 1.  Site 1 decouples and is integrated exactly
    (log Z_1 = B_1(t) - 3t/2); sites n >= 2 evolve through
    d log Z_n = (Z_{n-1}/Z_n - 3/2) dt + dB_n once positive, entered via one
    drift-only Euler step from zero.  Positivity is automatic throughout.

    One helper thread draws the Gaussians of the next block of
    S = max(1, 2^17 // (paths N)) steps while this thread steps through
    the current one, in two buffers.  A block of shape (S, paths, N) is the
    same stream as S draws of shape (paths, N), and the helper is the only
    user of the generator, so every sample depends on the seed alone, not on
    thread timing or core count.  Raises ValueError when a returned Z is not
    finite: the scheme overflowed, and a state that leaves the finite range
    never returns to it.
    """
    check_time(t)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"need a finite dt > 0, got {dt}")
    if N < 1 or paths < 1:
        raise ValueError(f"need N >= 1 sites and paths >= 1, got N={N}, paths={paths}")
    # Imported here, like registry.run_all's pool, to keep it off the import path.
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(seed)
    steps = max(1, int(round(t / dt)))
    h = t / steps
    sqh = math.sqrt(h)
    log_h = math.log(h) if h > 0 else -np.inf
    u = np.full((N, paths), -np.inf)
    u[0] = 0.0
    r = np.empty(paths)
    S = max(1, (1 << 17) // (paths * N))
    bufs = [np.empty((S, paths, N)) for _ in range(2)]

    def draw(b: int) -> np.ndarray:
        xi = bufs[b % 2][:min(S, steps - b * S)]
        rng.standard_normal(out=xi)
        return xi

    snap_every = max(1, steps // 64)
    snapshots = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, 0)
        for b in range(-(-steps // S)):
            xi = pending.result()
            if (b + 1) * S < steps:
                pending = helper.submit(draw, b + 1)
            np.multiply(xi, sqh, out=xi)
            for i in range(len(xi)):
                s = b * S + i
                _oy_euler_step(u, xi[i], s, h, log_h, r)
                if trajectory_csv is not None and (s % snap_every == 0 or s == steps - 1):
                    snapshots.append(((s + 1) * h, np.exp(np.ascontiguousarray(u[:, 0]))))
    Z = np.ascontiguousarray(u.T)
    with np.errstate(over="ignore"):
        np.exp(Z, out=Z)
    bad = ~np.isfinite(Z)
    if bad.any():
        sites = (np.flatnonzero(bad.any(axis=0)) + 1).tolist()
        raise ValueError(
            f"the Euler scheme overflowed: Z is not finite on {int(bad.any(axis=1).sum())} "
            f"of {paths} paths, at sites {sites} (t={t}, dt={h})")
    if trajectory_csv is not None:
        with open(trajectory_csv, "w") as fh:
            fh.write("time," + ",".join(f"Z_{i+1}" for i in range(N)) + "\n")
            for tt, row in snapshots:
                fh.write(f"{tt!r}," + ",".join(repr(float(v)) for v in row) + "\n")
    return SdeResult(Z=Z, t=t, dt=h, seed=seed)
