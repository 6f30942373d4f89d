"""Correctness oracles for the benchmark, written apart from the program.

Nothing here imports ``qboson``: the closed forms and the rate matrices are
assembled from the model definitions with numpy and scipy, so a fault in the
program's kernels cannot leak into the value it is compared with.

States are weakly decreasing integer tuples (the q-Boson convention of the
program).  Under the q-Boson dynamics each site holding c particles sends one
of them one step left at rate 1 - q^c.  Every coordinate of the ordered
state only decreases, which makes the oracles below exact on finite boxes:

* transitions y -> x: every path stays in the box x <= m <= y (coordinatewise),
  so the box's sub-generator exponentiated at t gives P(y -> x) with no
  truncation;
* q-TASEP moments E prod_i q^{x_{n_i}(t) + n_i}: by duality they equal
  E_n h0(n(t)) for the q-Boson chain started at n, with
  h0(m) = 1{m_k >= 1} prod_j (1 - alpha/q^j)^{-m_j} (alpha = 0 for step data;
  the product comes from the q-binomial theorem for q-geometric gaps).  Paths
  whose smallest coordinate reaches 0 never return and carry h0 = 0, so the box
  1 <= m <= n is exact: the tail bound is 0;
* semi-discrete moments u(t, n) = E prod_i Z(t, n_i): Ito's formula gives
  du/dt = sum_i [u(n - e_i) - u(n)] + #{i < j: n_i = n_j} u with
  u(0, n) = prod_i 1{n_i = 1} and u = 0 once a coordinate hits 0, again a
  closed linear system on the box 1 <= m <= n.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
from scipy.linalg import expm


def scaled_error(value: complex, expected: complex) -> float:
    """|value - expected| / (1 + |expected|), the program's own error scale."""
    return float(abs(complex(value) - complex(expected)) / (1.0 + abs(complex(expected))))


# ---------------------------------------------------------------------------
# Single-particle closed forms


def step_moment_k1(q: float, t: float) -> float:
    """E q^{x_1(t) + 1} for step data: x_1 jumps at rate 1, so Poisson(t)."""
    return math.exp(-(1.0 - q) * t)


def half_moment_k1(q: float, t: float, alpha: float) -> float:
    """E q^{x_1(t) + 1} for half-stationary data with q-geometric(alpha) gaps."""
    return math.exp(-(1.0 - q) * t) / (1.0 - alpha / q)


def sd_moment_k1(n: int, t: float) -> float:
    """E Z(t, n) = e^{-t} t^{n-1} / (n-1)! for unit mass started at site 1."""
    return math.exp(-t) * t ** (n - 1) / math.factorial(n - 1)


def qboson_single_transition(y: int, x: int, q: float, t: float) -> float:
    """One q-Boson particle jumps left at rate 1 - q: Poisson((1-q) t) steps."""
    j = y - x
    if j < 0:
        return 0.0
    lam = (1.0 - q) * t
    return math.exp(-lam) * lam**j / math.factorial(j)


# ---------------------------------------------------------------------------
# Rate matrices on coordinatewise boxes


def box_states(lo: tuple[int, ...], hi: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Weakly decreasing tuples m with lo_i <= m_i <= hi_i."""
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return [m for m in itertools.product(*ranges)
            if all(m[i] >= m[i + 1] for i in range(len(m) - 1))]


def cluster_moves(m: tuple[int, ...]):
    """Yield (multiplicity c, state with one particle of that site moved left)."""
    for v, c in Counter(m).items():
        last = max(i for i, mi in enumerate(m) if mi == v)
        moved = list(m)
        moved[last] = v - 1
        yield c, tuple(moved)


def qboson_generator(states: list[tuple[int, ...]], q: float) -> np.ndarray:
    """Backward generator L[a, b] = rate a -> b on the box, exits killed.

    The diagonal keeps every exit rate, so (expm(t L))[a, b] is the
    probability of being at b at time t without having left the box.
    """
    index = {m: i for i, m in enumerate(states)}
    L = np.zeros((len(states), len(states)))
    for a, m in enumerate(states):
        for c, moved in cluster_moves(m):
            rate = 1.0 - q**c
            L[a, a] -= rate
            b = index.get(moved)
            if b is not None:
                L[a, b] += rate
    return L


def qboson_transition(y: tuple[int, ...], x: tuple[int, ...], q: float, t: float) -> float:
    """P(x at time t | y at time 0), exact on the box between x and y."""
    if any(xi > yi for xi, yi in zip(x, y)):
        return 0.0
    states = box_states(tuple(x), tuple(y))
    index = {m: i for i, m in enumerate(states)}
    P = expm(t * qboson_generator(states, q))
    return float(P[index[tuple(y)], index[tuple(x)]])


def qtasep_moment(n: tuple[int, ...], q: float, t: float, alpha: float = 0.0) -> float:
    """E prod_i q^{x_{n_i}(t) + n_i} through the dual q-Boson chain (exact)."""
    k = len(n)
    if alpha and not alpha < q**k:
        raise ValueError("half-stationary data needs alpha < q^k")
    states = box_states((1,) * k, tuple(n))
    h0 = np.array([math.prod((1.0 - alpha / q**j) ** (-mj) for j, mj in enumerate(m, 1))
                   for m in states])
    P = expm(t * qboson_generator(states, q))
    return float(P[states.index(tuple(n))] @ h0)


def sd_moment(n: tuple[int, ...], t: float) -> float:
    """E prod_i Z(t, n_i) for the O'Connell-Yor system (exact linear system)."""
    k = len(n)
    states = box_states((1,) * k, tuple(n))
    index = {m: i for i, m in enumerate(states)}
    A = np.zeros((len(states), len(states)))
    for a, m in enumerate(states):
        counts = Counter(m)
        A[a, a] = -k + sum(c * (c - 1) / 2.0 for c in counts.values())
        for c, moved in cluster_moves(m):
            b = index.get(moved)  # None once a coordinate reaches 0: u = 0 there
            if b is not None:
                A[a, b] += c
    u0 = np.array([1.0 if all(mi == 1 for mi in m) else 0.0 for m in states])
    return float((expm(t * A) @ u0)[index[tuple(n)]])


# ---------------------------------------------------------------------------
# Probes that exercise the program through the oracles above


def qboson_backward_apply(f, n: tuple[int, ...], q: float) -> complex:
    """(L f)(n) = sum over sites of (1 - q^c) [f(one particle moved left) - f(n)]."""
    fn = f(n)
    return sum((1.0 - q**c) * (f(moved) - fn) for c, moved in cluster_moves(n))


def residue_product(a: complex, bc: tuple[complex, complex], d: complex) -> complex:
    """Known value of the product integral used by the contour probe.

    (1/2 pi i)^3 of e^{z1}/(z1 - a) * z2^2/((z2 - b)(z2 - c)) * 1/(z3 - d),
    with every pole inside its circle: e^a * (b + c) * 1.
    """
    b, c = bc
    return complex(np.exp(a) * (b + c))


def one_site_law(z: np.ndarray, t: float, sigmas: float = 5.0) -> dict:
    """Site 1 of the O'Connell-Yor system is integrated exactly,
    log Z_1(t) = B(t) - 3t/2, so at any step size log Z_1(t) ~ N(-3t/2, t)
    and E Z_1(t) = e^{-t}.  z holds one row per path, one column per site.
    Returns both sample means in standard errors and, under "reason", why
    the sample misses that law (None when it does not)."""
    z = np.asarray(z, dtype=float)
    paths = z.shape[0]
    out = {"paths": paths, "z_log_mean": None, "z_mean": None, "reason": None}
    if not (np.all(np.isfinite(z)) and np.all(z > 0.0)):
        out["reason"] = "a Z value is not finite and positive"
        return out
    z1 = z[:, 0]
    out["z_log_mean"] = float((np.log(z1).mean() + 1.5 * t) / math.sqrt(t / paths))
    out["z_mean"] = float((z1.mean() - math.exp(-t)) / (z1.std(ddof=1) / math.sqrt(paths)))
    worst = max(abs(out["z_log_mean"]), abs(out["z_mean"]))
    if worst > sigmas:
        out["reason"] = f"site 1 is {worst:.2f} standard errors off its exact law"
    return out


def report_within_tolerance(report: dict) -> str | None:
    """None when a check report passed with its worst error and tail in
    tolerance; otherwise the reason it does not."""
    tol = report["tolerance"]
    rel = report["rel_err"]  # None for a sigma-scaled comparison
    err = report["abs_err"] if rel is None else min(report["abs_err"], rel)
    if not report["pass"]:
        return "report did not pass"
    if not math.isfinite(err) or err > tol:
        return f"worst error {err!r} exceeds tolerance {tol!r}"
    if not report["tail_bound"] <= tol:
        return f"tail bound {report['tail_bound']!r} exceeds tolerance {tol!r}"
    if report["comparisons"] < 1:
        return "report recorded no comparisons"
    return None
