"""Generators of the q-Boson system and its semi-discrete degeneration.

Both models follow one rule (`GeneratorKind`): a cluster of c particles
jumps at rate r(c) and puts d(c) on the diagonal.  The q-Boson model has
r(c) = 1 - q^c and d(c) = eps r(c); the semi-discrete one has r(c) = c,
the q -> 1 limit of (1 - q^c)/(1 - q), and d(c) = c - c(c-1)/2, which
adds the pair potential.  `generator_row` lists the row of every kind
(backward, forward, conjugated forward and the two free ones) from that
rule; pointwise application sums f over it, `matrix_on_box` lays out the
rows of a truncated state box as (rows, cols, vals) arrays, and the free
kinds give two-body boundary residuals.
`absorbing_generator` extends a box matrix by one absorbing state that
collects the mass leaking out of the box.  `uniformized_exponential` is the
one matrix exponential of the package: e^{tA} v on a box, by uniformization
in O(nnz) per Poisson term, behind `uniformized_transition` and the
ode-oracle solvers of `qboson.dynamics`.  `dense_exponential_transition`,
a scaling-and-squaring reference for the tests, is the only code here that
needs scipy, and imports it when called.

Row convention: row i is state i, and entry (i, j) is the coefficient of
f(state_j) in (A f)(state_i), i.e. columns are sources.  For the
stochastic forward generator, entry (x, y) is the jump rate y -> x and
interior columns sum to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from qboson.qcore import (
    WeylVector,
    check_domain,
    check_q,
    check_time,
    cluster_decompose,
    cq_weight,
    weyl_vectors_in_box,
)

GENERATOR_KINDS = ("bwd", "fwd", "cfwd", "free-bwd", "free-fwd")
FREE_KINDS = ("free-bwd", "free-fwd")
MODELS = ("qboson", "sd")


@dataclass(frozen=True)
class GeneratorKind:
    """A generator of one model; ``q`` and the marked point ``eps``, which
    scales the diagonal (1 by default), are the q-Boson model's.  The model
    enters the generators only here: through r(c), d(c) and the boundary
    slope s."""

    kind: str
    model: str = "qboson"
    q: float | None = None
    eps: float = 1.0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        check_domain(self.q, self.eps, self.model)

    def rate(self, c: int) -> float:
        """r(c): 1 - q^c, or c in the semi-discrete model."""
        return c if self.model == "sd" else 1.0 - self.q**c

    def diagonal(self, c: int) -> float:
        """d(c): eps r(c), or c - c(c-1)/2 in the semi-discrete model."""
        return c - c * (c - 1) / 2 if self.model == "sd" else self.eps * self.rate(c)

    @property
    def slope(self) -> float:
        """s of the two-body boundary conditions: q, or 1 in the semi-discrete model."""
        return 1.0 if self.model == "sd" else self.q

    @property
    def stochastic(self) -> bool:
        """The q-Boson forward generator at eps = 1, whose columns sum to zero."""
        return self.kind == "fwd" and self.model == "qboson" and self.eps == 1.0


def _moved(coords: tuple, i: int, delta: int) -> tuple:
    return coords[:i] + (coords[i] + delta,) + coords[i + 1 :]


def generator_row(gk: GeneratorKind, n) -> list[tuple[tuple, float]]:
    """Row n of the generator as (target, coefficient) pairs, the diagonal
    last: (A f)(n) is the sum of coefficient * f(target).

    bwd moves a cluster's tail down at r(c); cfwd moves its head up at r(c);
    fwd moves its head up at r(c_prev + 1) when it lands on the cluster of
    c_prev particles to its left, and at r(1) otherwise.  The free kinds
    treat each particle as a cluster of one.  The diagonal is -sum d(c).
    Targets are coordinate tuples; n is a WeylVector for the interacting
    kinds and any integer vector for the free ones.
    """
    coords = tuple(n)
    free = gk.kind in FREE_KINDS
    spans = [(i, i + 1) for i in range(len(coords))] if free else cluster_decompose(n)
    row, diag, c_prev = [], 0.0, 0
    for head, stop in spans:
        c = stop - head
        if gk.kind in ("bwd", "free-bwd"):
            row.append((_moved(coords, stop - 1, -1), gk.rate(c)))
        else:
            merges = head > 0 and coords[head - 1] == coords[head] + 1
            size = (c_prev + 1 if merges else 1) if gk.kind == "fwd" else c
            row.append((_moved(coords, head, +1), gk.rate(size)))
        diag -= gk.diagonal(c)
        c_prev = c
    row.append((coords, diag))
    return row


def generator_apply(gk: GeneratorKind, f: Callable, n: WeylVector) -> complex:
    """Apply the interacting generator at n, summing f over its row; f maps
    WeylVector -> complex."""
    if gk.kind in FREE_KINDS:
        raise ValueError(f"{gk.kind} is a free kind; use free_apply")
    return sum((a * f(WeylVector(t)) for t, a in generator_row(gk, n)), 0j)


def free_apply(gk: GeneratorKind, u: Callable, n) -> complex:
    """Apply the separable free generator at an integer vector n in Z^k,
    summing ``u``, a function on Z^k (tuple argument), over its row."""
    if gk.kind not in FREE_KINDS:
        raise ValueError(f"{gk.kind} is an interacting kind; use generator_apply")
    return sum((a * u(t) for t, a in generator_row(gk, n)), 0j)


def boundary_residual(gk: GeneratorKind, u: Callable, i: int, n) -> complex:
    """Two-body boundary residual at coordinate pair (i, i+1), 0-based i,
    evaluated on the diagonal n_i = n_{i+1}, with s = `GeneratorKind.slope`:

    backward form u(n - e_i) - s u(n - e_{i+1}) - d(1) u(n),
    forward form s u(n + e_i) - u(n + e_{i+1}) + d(1) u(n).
    """
    coords = tuple(n)
    if coords[i] != coords[i + 1]:
        raise ValueError("boundary residual is defined on the diagonal n_i = n_{i+1}")
    if gk.kind not in FREE_KINDS:
        raise ValueError("boundary residuals are defined for the free kinds")
    s, d = gk.slope, gk.diagonal(1)
    if gk.kind == "free-bwd":
        return u(_moved(coords, i, -1)) - s * u(_moved(coords, i + 1, -1)) - d * u(coords)
    return s * u(_moved(coords, i, +1)) - u(_moved(coords, i + 1, +1)) + d * u(coords)


def extended_apply(f: Callable, n, q: float) -> complex:
    """Apply the whole-lattice operator to a symmetric function on Z^k.

    (1-q) [ sum_i grad^bwd_i
            + (1 - q^{-1}) sum_{i<j} 1_{n_i = n_j} q^{j-i} grad^bwd_i ] f(n)

    On symmetric extensions of the left eigenfunctions this reproduces the
    interacting backward generator at every (possibly unordered) n.
    """
    check_q(q)
    coords = tuple(n)
    k = len(coords)
    grads = [f(_moved(coords, i, -1)) - f(coords) for i in range(k)]
    out = sum(grads)
    for i in range(k):
        for j in range(i + 1, k):
            if coords[i] == coords[j]:
                out += (1.0 - 1.0 / q) * q ** (j - i) * grads[i]
    return (1.0 - q) * out


# A box is enumerated state by state, and pt-invariance and
# dense_exponential_transition densify its generator: 2000 states make one
# 32 MB real matrix.  The largest box the checks build at their defaults
# holds 165 states, that of the tests 286.
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


class BoxMatrix(NamedTuple):
    """A size x size matrix as (rows, cols, vals) arrays in the order a CSR
    matrix stores them: row-major, columns ascending within a row, with no
    repeated entry and no zero."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    size: int

    def dense(self) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        out[self.rows, self.cols] = self.vals
        return out


def _compressed(rows, cols, vals, size: int) -> BoxMatrix:
    """Entries in CSR order: sorted stably by (row, column), so repeated
    entries are summed in the order given, and the zeros dropped."""
    key = np.asarray(rows, dtype=np.int64) * size + np.asarray(cols, dtype=np.int64)
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    sums = np.add.reduceat(np.asarray(vals, dtype=float)[order], starts)
    keep = sums != 0
    key = key[starts][keep]
    return BoxMatrix(key // size, key % size, sums[keep], size)


def matrix_on_box(gk: GeneratorKind, box: StateBox) -> BoxMatrix:
    """The interacting generator restricted to the box, row i being
    `generator_row` at state i."""
    if gk.kind in FREE_KINDS:
        raise ValueError(f"{gk.kind} is a free kind; it has no matrix on a chamber box")
    index = {n.coords: i for i, n in enumerate(box.states)}
    entries = [(i, index[target], a) for i, n in enumerate(box.states)
               for target, a in generator_row(gk, n) if target in index]
    return _compressed(*zip(*entries), box.size)


def absorbing_generator(gk: GeneratorKind, box: StateBox) -> BoxMatrix:
    """The box generator extended by one absorbing state, indexed box.size.

    Its row holds, per source column, minus the column sum of the box
    generator (summed in row order): the net rate leaking out of the box, so
    that truncation error is observable rather than silently lost.  Its
    column is zero.  For the stochastic forward generator every column of
    the result sums to zero.
    """
    A = matrix_on_box(gk, box)
    leak = -np.bincount(A.cols, weights=A.vals, minlength=A.size)
    (cols,) = np.nonzero(leak)
    return BoxMatrix(np.concatenate([A.rows, np.full(cols.size, A.size)]),
                     np.concatenate([A.cols, cols]), np.concatenate([A.vals, leak[cols]]),
                     A.size + 1)


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


def uniformized_exponential(A: BoxMatrix, t: float, v: np.ndarray, rate: float,
                            tol: float) -> tuple[np.ndarray, float]:
    """e^{tA} v by uniformization (Jensen 1953): the sum over j of the
    Poisson(rate t) weight of j times P^j v, with P = I + A / rate, up to
    `poisson_terms_needed(rate t, tol)` terms.  Returns the sum and the
    Poisson mass of the terms left out.

    P must be nonnegative (rate at least every exit rate -A_ii); then each
    term is bounded, and the sum is exact up to that mass times the norm P
    keeps (the max norm where rows sum to at most 1, the 1-norm where
    columns do).  A term costs one O(nnz) product, a bincount over P's
    entries in row order (on the real and imaginary parts of v apart): the
    order, and so the sums, of a CSR matrix-vector product.
    """
    diagonal = np.arange(A.size)
    P = _compressed(np.concatenate([A.rows, diagonal]), np.concatenate([A.cols, diagonal]),
                    np.concatenate([A.vals * (1.0 / rate), np.ones(A.size)]), A.size)
    if (P.vals < 0).any():
        raise ValueError(f"uniformization at rate {rate:g} is below an exit rate of the "
                         "generator: P = I + A / rate has a negative entry")
    J = poisson_terms_needed(rate * t, tol)
    weight = math.exp(-rate * t)
    if weight == 0.0:
        raise ValueError(f"uniformization at rate * t = {rate * t:g}: the Poisson weights "
                         "underflow")

    def apply(x):
        return np.bincount(P.rows, weights=P.vals * x[P.cols], minlength=P.size)

    matvec = (lambda x: apply(x.real) + 1j * apply(x.imag)) if np.iscomplexobj(v) else apply
    acc = weight * v
    used = weight
    for j in range(1, J + 1):
        v = matvec(v)
        weight *= rate * t / j
        acc += weight * v
        used += weight
    return acc, 1.0 - used


def uniformized_transition(
    gk: GeneratorKind, t: float, y: WeylVector, box: StateBox, tol: float = 1e-12
) -> TransitionPMF:
    """Exact e^{tA} delta_y for the stochastic q-Boson forward generator
    (marked point eps = 1: at other eps the columns do not sum to zero).

    `uniformized_exponential` with rate Lambda = k (the total jump rate of
    any state is sum_i (1 - q^{c_i}) <= M <= k), truncating the Poisson
    series when the exact tail drops below tol.  Mass exiting the box
    accumulates in an absorbing pseudo-state.
    """
    check_time(t)
    if not gk.stochastic:
        raise ValueError("uniformization applies to the stochastic q-Boson forward generator "
                         "(eps = 1)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    idx = box.index()
    if y not in idx:
        raise ValueError("initial state must lie in the box")
    if t == 0.0:
        return TransitionPMF({y: 1.0}, 0.0, 0.0)

    v = np.zeros(box.size + 1)
    v[idx[y]] = 1.0
    acc, tail = uniformized_exponential(absorbing_generator(gk, box), t, v, float(box.k), tol)
    probs = {n: float(acc[i]) for n, i in idx.items() if acc[i] > 0.0}
    return TransitionPMF(probs=probs, absorbed=float(acc[box.size]), tail_bound=float(tail))


def dense_exponential_transition(
    gk: GeneratorKind, t: float, y: WeylVector, box: StateBox
) -> TransitionPMF:
    """Scaling-and-squaring matrix-exponential oracle for small boxes, a
    reference for the tests; it needs scipy, which the package does not
    load otherwise."""
    from scipy.linalg import expm

    idx = box.index()
    col = expm(t * absorbing_generator(gk, box).dense())[:, idx[y]]
    probs = {n: float(col[i]) for n, i in idx.items()}
    return TransitionPMF(probs=probs, absorbed=float(col[box.size]), tail_bound=0.0)
