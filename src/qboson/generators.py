"""Generators of the q-Boson system and its deformations.

Provides pointwise application of the backward / forward / conjugated
forward generators and their free (separable) counterparts with two-body
boundary residuals, and their sparse matrices on truncated state boxes.
`absorbing_generator` extends a box matrix by one absorbing state that
collects the mass leaking out of the box; both exact transition oracles of
the stochastic (q-Boson forward) family are built on it, uniformization as
P = I + A_abs / Lambda and the dense oracle as expm(t A_abs).

Matrix convention: entry (i, j) is the coefficient of f(state_j) in
(A f)(state_i), i.e. columns are sources.  For the stochastic forward
generator, entry (x, y) is the jump rate y -> x and interior columns sum
to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from qboson.qcore import (
    WeylVector,
    check_q,
    check_time,
    cluster_decompose,
    cq_weight,
    weyl_vectors_in_box,
)

GENERATOR_KINDS = ("bwd", "fwd", "cfwd", "free-bwd", "free-fwd")
MODELS = ("qboson", "sd")


@dataclass(frozen=True)
class GeneratorKind:
    """A generator of one model; ``q`` and the marked point ``eps``, which
    scales the diagonal (1 by default), are the q-Boson model's."""

    kind: str
    model: str = "qboson"
    q: float | None = None
    eps: float = 1.0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "qboson":
            check_q(self.q)
        elif self.q is not None or self.eps != 1.0:
            raise ValueError("the semi-discrete model has no q and no marked point eps")


def generator_apply(gk: GeneratorKind, f: Callable, n: WeylVector) -> complex:
    """Apply the interacting generator at n; f maps WeylVector -> complex."""
    q, eps = gk.q, gk.eps
    spans = cluster_decompose(n)
    out = 0.0 + 0.0j

    if gk.kind == "bwd":
        for head, stop in spans:
            c = stop - head
            tail = stop - 1  # the last particle of the cluster
            if gk.model == "sd":
                out += c * (f(n.bump(tail, -1)) - f(n)) + 0.5 * c * (c - 1) * f(n)
            else:
                out += (1.0 - q**c) * (f(n.bump(tail, -1)) - eps * f(n))
        return out

    if gk.kind == "cfwd":
        for head, stop in spans:
            c = stop - head
            if gk.model == "sd":
                out += c * (f(n.bump(head, +1)) - f(n)) + 0.5 * c * (c - 1) * f(n)
            else:
                out += (1.0 - q**c) * (f(n.bump(head, +1)) - eps * f(n))
        return out

    if gk.kind == "fwd":
        c_prev = 0  # size of the cluster to the left, 0 before the first
        for head, stop in spans:
            c = stop - head
            # the cluster to the left sits one step above this one
            merge = head > 0 and n.coords[head - 1] == n.coords[head] + 1
            if gk.model == "sd":
                rate_in = (c_prev + 1.0) if merge else 1.0
                out += rate_in * f(n.bump(head, +1)) - c * f(n) + 0.5 * c * (c - 1) * f(n)
            else:
                rate_in = (1.0 - q ** (c_prev + 1)) if merge else (1.0 - q)
                out += rate_in * f(n.bump(head, +1)) - eps * (1.0 - q**c) * f(n)
            c_prev = c
        return out

    raise ValueError(f"{gk.kind} is a free kind; use free_apply")


def _grad_bwd(u: Callable, coords: tuple, i: int, eps: float) -> complex:
    lowered = coords[:i] + (coords[i] - 1,) + coords[i + 1 :]
    return u(lowered) - eps * u(coords)


def _grad_fwd(u: Callable, coords: tuple, i: int, eps: float) -> complex:
    raised = coords[:i] + (coords[i] + 1,) + coords[i + 1 :]
    return u(raised) - eps * u(coords)


def free_apply(gk: GeneratorKind, u: Callable, n) -> complex:
    """Apply the separable free generator at an integer vector n in Z^k.

    ``u`` is a function on Z^k (tuple argument).
    """
    coords = tuple(n.coords) if isinstance(n, WeylVector) else tuple(n)
    k = len(coords)
    scale = 1.0 if gk.model == "sd" else (1.0 - gk.q)
    grad = _grad_bwd if gk.kind == "free-bwd" else _grad_fwd
    if gk.kind not in ("free-bwd", "free-fwd"):
        raise ValueError(f"{gk.kind} is an interacting kind; use generator_apply")
    return scale * sum(grad(u, coords, i, gk.eps) for i in range(k))


def boundary_residual(gk: GeneratorKind, u: Callable, i: int, n) -> complex:
    """Two-body boundary residual at coordinate pair (i, i+1), 0-based i.

    Backward forms: (grad_i - q grad_{i+1}) u for the q-Boson model,
    (grad_i - grad_{i+1} - 1) u for the semi-discrete one.
    Forward forms: (q grad_i - grad_{i+1}) u, resp. (1 + grad_i - grad_{i+1}) u.
    Evaluated on the diagonal n_i = n_{i+1}.
    """
    coords = tuple(n.coords) if isinstance(n, WeylVector) else tuple(n)
    if coords[i] != coords[i + 1]:
        raise ValueError("boundary residual is defined on the diagonal n_i = n_{i+1}")
    q, eps = gk.q, gk.eps
    if gk.kind == "free-bwd":
        gi = _grad_bwd(u, coords, i, eps)
        gi1 = _grad_bwd(u, coords, i + 1, eps)
        if gk.model == "sd":
            return gi - gi1 - u(coords)
        return gi - q * gi1
    if gk.kind == "free-fwd":
        gi = _grad_fwd(u, coords, i, eps)
        gi1 = _grad_fwd(u, coords, i + 1, eps)
        if gk.model == "sd":
            return u(coords) + gi - gi1
        return q * gi - gi1
    raise ValueError("boundary residuals are defined for the free kinds")


def extended_apply(f: Callable, n, q: float) -> complex:
    """Apply the whole-lattice operator to a symmetric function on Z^k.

    (1-q) [ sum_i grad^bwd_i
            + (1 - q^{-1}) sum_{i<j} 1_{n_i = n_j} q^{j-i} grad^bwd_i ] f(n)

    On symmetric extensions of the left eigenfunctions this reproduces the
    interacting backward generator at every (possibly unordered) n.
    """
    check_q(q)
    coords = tuple(n.coords) if isinstance(n, WeylVector) else tuple(n)
    k = len(coords)
    grads = [_grad_bwd(f, coords, i, 1.0) for i in range(k)]
    out = sum(grads)
    for i in range(k):
        for j in range(i + 1, k):
            if coords[i] == coords[j]:
                out += (1.0 - 1.0 / q) * q ** (j - i) * grads[i]
    return (1.0 - q) * out


# A box is enumerated state by state, and the dense oracles (the ode-oracle
# solvers, pt-invariance, dense_exponential_transition) densify its
# generator: 2000 states make one 64 MB complex matrix.  The largest box the
# checks build at their defaults holds 165 states, that of the tests 286.
MAX_BOX_STATES = 2000


@dataclass(frozen=True)
class StateBox:
    """The finite set {n in W^k : lo <= n_k, n_1 <= hi}, lexicographically
    ordered; it holds C(hi - lo + k, k) states, at most MAX_BOX_STATES."""

    k: int
    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("need lo <= hi")
        size = math.comb(self.hi - self.lo + self.k, self.k)
        if size > MAX_BOX_STATES:
            raise ValueError(f"the state box for k={self.k} on [{self.lo}, {self.hi}] holds "
                             f"{size} states; the matrix oracles enumerate and densify a box, "
                             f"so at most {MAX_BOX_STATES} are allowed")

    @property
    def states(self) -> tuple[WeylVector, ...]:
        return self._states()

    def _states(self):
        if not hasattr(self, "_cached"):
            object.__setattr__(self, "_cached", tuple(weyl_vectors_in_box(self.k, self.lo, self.hi)))
        return getattr(self, "_cached")

    @property
    def size(self) -> int:
        return len(self._states())

    def index(self) -> dict[WeylVector, int]:
        if not hasattr(self, "_index"):
            object.__setattr__(self, "_index", {n: i for i, n in enumerate(self._states())})
        return getattr(self, "_index")


def matrix_on_box(gk: GeneratorKind, box: StateBox) -> sp.csr_matrix:
    """Realize generator_apply restricted to the box as a sparse matrix,
    real whenever every coefficient is."""
    states = box.states
    idx = box.index()
    rows, cols, vals = [], [], []
    for j, src in enumerate(states):
        # Column j: coefficients of (A e_src)(target) for targets in the box.
        def e_src(m, _src=src):
            return 1.0 if m == _src else 0.0

        # Collect targets cheaply: A e_src is supported on src and its one-step
        # neighbours inside the chamber.
        targets = {src}
        for i in range(box.k):
            for d in (-1, +1):
                try:
                    targets.add(src.bump(i, d))
                except ValueError:
                    pass
        for tgt in targets:
            if tgt not in idx:
                continue
            v = generator_apply(gk, e_src, tgt)
            if v != 0:
                rows.append(idx[tgt])
                cols.append(j)
                vals.append(complex(v))
    data = np.asarray(vals, dtype=complex)
    if not data.imag.any():
        data = data.real
    return sp.csr_matrix((data, (rows, cols)), shape=(box.size, box.size))


def absorbing_generator(gk: GeneratorKind, box: StateBox) -> sp.csr_matrix:
    """The box generator extended by one absorbing state, indexed box.size.

    Its row holds, per source column, minus the column sum of the box
    generator: the net rate leaking out of the box, so that truncation error
    is observable rather than silently lost.  Its column is zero.  For the
    stochastic forward generator every column of the result sums to zero.
    """
    A = matrix_on_box(gk, box)
    A_abs = sp.vstack([A, -A.sum(axis=0)], format="csr")
    A_abs.resize(box.size + 1, box.size + 1)
    return A_abs


def reflection_permutation(box: StateBox) -> np.ndarray:
    """Permutation p with p[i] = index of the reflected i-th state.

    Requires a reflection-closed box (lo = -hi).
    """
    if box.lo != -box.hi:
        raise ValueError("reflection needs a symmetric box lo = -hi")
    idx = box.index()
    return np.array([idx[n.reflect()] for n in box.states], dtype=int)


def cluster_weight_diagonal(gk: GeneratorKind, box: StateBox) -> np.ndarray:
    return np.array([cq_weight(n, gk.q) for n in box.states], dtype=float)


@dataclass
class TransitionPMF:
    """Finite-time transition probabilities out of one state, plus leakage."""

    probs: dict[WeylVector, float]
    absorbed: float
    tail_bound: float

    def total(self) -> float:
        return sum(self.probs.values())

    def __getitem__(self, n) -> float:
        if not isinstance(n, WeylVector):
            n = WeylVector(tuple(n))
        return self.probs.get(n, 0.0)


def poisson_terms_needed(rate: float, tol: float) -> int:
    """Smallest J whose Chernoff bound on the Poisson(rate) tail is below tol.

    For J > rate the bound is P(X > J) <= exp(J - rate + J log(rate / J)).
    """
    if rate == 0.0:
        return 0
    J = max(1, int(math.ceil(rate)))
    while J < 10_000_000:
        log_bound = J - rate + J * math.log(rate / J) if J > rate else 0.0
        if J > rate and log_bound < math.log(tol):
            return J
        J += 1 + J // 8
    raise ValueError(f"uniformization at rate * t = {rate:g} needs more than 10000000 "
                     "Poisson terms")


def uniformized_transition(
    gk: GeneratorKind, t: float, y: WeylVector, box: StateBox, tol: float = 1e-12
) -> TransitionPMF:
    """Exact e^{tA} delta_y for the stochastic q-Boson forward generator
    (marked point eps = 1: at other eps the columns do not sum to zero).

    Uniformization with rate Lambda = k (the total jump rate of any state
    is sum_i (1 - q^{c_i}) <= M <= k), truncating the Poisson series when
    the exact tail drops below tol.  Mass exiting the box accumulates in
    an absorbing pseudo-state.
    """
    check_time(t)
    if gk.kind != "fwd" or gk.model != "qboson" or gk.eps != 1.0:
        raise ValueError("uniformization applies to the stochastic q-Boson forward generator "
                         "(eps = 1)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    idx = box.index()
    if y not in idx:
        raise ValueError("initial state must lie in the box")
    if t == 0.0:
        return TransitionPMF({y: 1.0}, 0.0, 0.0)

    size = box.size
    lam = float(box.k)
    P = sp.identity(size + 1, format="csr") + absorbing_generator(gk, box) / lam
    J = poisson_terms_needed(lam * t, tol)
    v = np.zeros(size + 1)
    v[idx[y]] = 1.0
    weight = math.exp(-lam * t)
    acc = weight * v
    used = weight
    for j in range(1, J + 1):
        v = P @ v
        weight *= lam * t / j
        acc += weight * v
        used += weight
    tail = 1.0 - used
    probs = {n: float(acc[i]) for n, i in idx.items() if acc[i] > 0.0}
    return TransitionPMF(probs=probs, absorbed=float(acc[size]), tail_bound=float(tail))


def dense_exponential_transition(
    gk: GeneratorKind, t: float, y: WeylVector, box: StateBox
) -> TransitionPMF:
    """Scaling-and-squaring matrix-exponential oracle for small boxes."""
    idx = box.index()
    col = expm(t * absorbing_generator(gk, box).toarray())[:, idx[y]]
    probs = {n: float(col[i]) for n, i in idx.items()}
    return TransitionPMF(probs=probs, absorbed=float(col[box.size]), tail_bound=0.0)
