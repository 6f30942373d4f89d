"""Combinatorial and q-arithmetic primitives shared by the whole library.

Everything here is exact integer/float bookkeeping: Weyl chamber vectors
with their cluster decomposition, integer partitions, q-Pochhammer symbols
and q-factorials, the cluster weight C_q, string specializations of
spectral variables, and the model's step and marked point (`step`,
`pair_gap`, `marked_point`; q None is the semi-discrete model).  All
functions are pure and all containers immutable, so concurrent use is
safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


def check_q(q: float) -> float:
    """Validate the deformation parameter, 0 < q < 1."""
    if q is None:
        raise ValueError("q is missing: it must lie in the open interval (0, 1)")
    q = float(q)
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in the open interval (0, 1), got {q}")
    return q


def check_domain(q: float | None, eps: float, model: str, error: type = ValueError) -> None:
    """The (q, eps) domain of every family, generator and contour system: a
    q-Boson q (`check_q`) and eps >= 0, or for "sd" no q and eps 1.  The eps
    refusals raise ``error``."""
    if model == "sd":
        if q is not None or eps != 1.0:
            raise error("the semi-discrete model has no q and no marked point eps")
    else:
        check_q(q)
        if not eps >= 0:
            raise error("eps must be >= 0")


def step(z, j: int, q: float | None):
    """z q^j, or z + j for the semi-discrete model (q None); q^-1 is 1.0 / q."""
    return z + j if q is None else z * (q**j if j >= 0 else 1.0 / q**-j)


def pair_gap(za, zb, j: int, q: float | None):
    """z_A - step(z_B, j, q), for the semi-discrete model as (z_A - z_B) - j."""
    return (za - zb) - j if q is None else za - step(zb, j, q)


def marked_point(eps: float, q: float | None) -> float:
    """The marked point: eps, or 0 for the semi-discrete model (q None)."""
    return 0.0 if q is None else eps


def check_time(t: float) -> None:
    """Reject a negative or non-finite time: inf and nan fail loudly here
    instead of turning into NaN or an overflow downstream."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be a finite number >= 0, got {t}")


@dataclass(frozen=True)
class WeylVector:
    """Ordered integer vector n_1 >= ... >= n_k, the state of k particles."""

    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 1:
            raise ValueError("WeylVector needs at least one coordinate")
        for a, b in zip(coords, coords[1:]):
            if a < b:
                raise ValueError(f"coordinates must be weakly decreasing: {coords}")

    @property
    def k(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def bump_range(self, a: int, b: int, delta: int) -> "WeylVector":
        """Shift coordinates a..b inclusive (0-based) by delta."""
        c = list(self.coords)
        for i in range(a, b + 1):
            c[i] += delta
        return WeylVector(tuple(c))

    def shift(self, delta: int) -> "WeylVector":
        return WeylVector(tuple(c + delta for c in self.coords))

    def reflect(self) -> "WeylVector":
        """(n_1, ..., n_k) -> (-n_k, ..., -n_1)."""
        return WeylVector(tuple(-c for c in reversed(self.coords)))


@functools.lru_cache(maxsize=65536)
def cluster_decompose(n: WeylVector) -> tuple[tuple[int, int], ...]:
    """Split a WeylVector into clusters, its maximal runs of equal coordinates.

    Each cluster is a half-open index span (start, stop): the coordinates
    n[start:stop] are equal, and the spans tile 0..k in order.
    """
    spans = []
    start = 0
    for i in range(1, n.k + 1):
        if i == n.k or n.coords[i] != n.coords[start]:
            spans.append((start, i))
            start = i
    return tuple(spans)


@dataclass(frozen=True)
class Partition:
    """Integer partition: weakly decreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        for p in parts:
            if p < 1:
                raise ValueError("partition parts must be positive")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("partition parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __iter__(self):
        return iter(self.parts)


@functools.lru_cache(maxsize=128)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k in reverse-lexicographic order, e.g. (3),(2,1),(1,1,1).

    The order is fixed so that every sum over partitions is reproducible.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(k, k, [])
    return tuple(out)


def q_pochhammer(a: complex, q: float, n: int) -> complex:
    """(a; q)_n = prod_{i=0}^{n-1} (1 - q^i a).  Empty product for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1.0 + 0.0j
    qi = 1.0
    for _ in range(n):
        out *= 1.0 - qi * a
        qi *= q
    if isinstance(a, complex):
        return out
    return complex(out).real if out.imag == 0.0 else out


@functools.lru_cache(maxsize=1024)
def q_factorial(c: int, q: float) -> float:
    """c!_q = prod_{j=1}^{c} (1 - q^j) / (1 - q)."""
    if c < 0:
        raise ValueError("c must be >= 0")
    check_q(q)
    out = 1.0
    qj = 1.0
    for _ in range(c):
        qj *= q
        out *= (1.0 - qj) / (1.0 - q)
    return out


def cluster_weight_of_sizes(sizes: Sequence[int], q: float | None = None) -> float:
    """Cluster weight of a chamber vector with cluster sizes c_i (k = sum c_i).

    With q: C_q = (-1)^k q^{-k(k-1)/2} prod_i (c_i)!_q, computed in log
    magnitude plus sign, since the q^{-k(k-1)/2} factor overflows doubles
    near k ~ 40; the log route keeps k <= 12 (our documented validity range)
    comfortably exact.  With q None: the plain-factorial weight
    (-1)^k prod_i (c_i)!, the q -> 1 analogue.
    """
    k = sum(sizes)
    sign = -1.0 if k % 2 else 1.0
    if q is None:
        return sign * math.prod(math.factorial(c) for c in sizes)
    check_q(q)
    logmag = -0.5 * k * (k - 1) * math.log(q)
    for c in sizes:
        logmag += math.log(q_factorial(c, q))
    return sign * math.exp(logmag)


def cq_weight(n: WeylVector, q: float | None) -> float:
    """Cluster weight C_q(n) = (-1)^k q^{-k(k-1)/2} prod_i (c_i)!_q, or with
    q None the plain-factorial weight (-1)^k prod_i (c_i)!, its q -> 1 analogue."""
    return cluster_weight_of_sizes([stop - start for start, stop in cluster_decompose(n)], q)


def cq_weight_inv(n: WeylVector, q: float | None) -> float:
    """Reciprocal of the cluster weight, 1 / C_q(n)."""
    return 1.0 / cq_weight(n, q)


def cluster_weights(ns, q: float | None = None) -> np.ndarray:
    """``cluster_weight_of_sizes`` of each row of an (N, k) integer array of
    chamber vectors, with no WeylVector per row.

    A row's cluster sizes follow from which neighbours tie; the rows are
    coded by that tie pattern, and the weight is formed once per pattern.
    """
    ns = np.asarray(ns, dtype=np.int64)
    ties = ns[:, 1:] == ns[:, :-1]
    codes, where = np.unique(ties @ (1 << np.arange(ties.shape[1])), return_inverse=True)
    weights = []
    for code in codes.tolist():
        sizes = [1]
        for j in range(ties.shape[1]):
            if code >> j & 1:
                sizes[-1] += 1
            else:
                sizes.append(1)
        weights.append(cluster_weight_of_sizes(sizes, q))
    return np.array(weights)[where.reshape(-1)]


def string_points(w: Sequence[complex], lam: Partition, q: float) -> tuple[complex, ...]:
    """Expand base points w_j into geometric strings of length lambda_j:
    (w_1, q w_1, ..., q^{lam_1 - 1} w_1, w_2, ...), refusing coincident
    values."""
    if len(w) != lam.length:
        raise ValueError("need one base point per partition part")
    check_q(q)
    out: list[complex] = []
    for wj, lj in zip(w, lam.parts):
        if wj == 0:
            raise ValueError("geometric string base points must be nonzero")
        val = complex(wj)
        for _ in range(lj):
            out.append(val)
            val *= q
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if abs(out[i] - out[j]) < 1e-12 * max(1.0, abs(out[i])):
                raise ValueError(
                    "string values coincide; base points must be distinct, "
                    "nonzero and off each other's orbits"
                )
    return tuple(out)


def inverse_permutation(perm: Sequence[int]) -> list[int]:
    """pos with pos[perm[j]] = j: the place of each index in perm."""
    pos = [0] * len(perm)
    for j, m in enumerate(perm):
        pos[m] = j
    return pos


def weyl_vectors_in_box(k: int, lo: int, hi: int) -> Iterator[WeylVector]:
    """All n in W^k with lo <= n_k and n_1 <= hi, in lexicographic order:
    the rows of `chamber_blocks`."""
    for block in chamber_blocks(k, lo, hi):
        for row in block.tolist():
            yield WeylVector(tuple(row))


def chamber_blocks(k: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """All n in W^k with lo <= n_k and n_1 <= hi, in lexicographic order, as
    integer arrays, one (rows, k) block per value of n_1: the block of
    n_1 = top prepends top to the prefix of the states of k - 1 coordinates
    whose first coordinate is at most top."""
    tops = np.arange(lo, hi + 1, dtype=np.int64)
    if k == 1:
        yield from tops[:, None, None]
        return
    tails = np.concatenate([np.empty((0, k - 1), np.int64), *chamber_blocks(k - 1, lo, hi)])
    for top, end in zip(tops, np.searchsorted(tails[:, 0], tops, side="right")):
        yield np.column_stack([np.full(end, top), tails[:end]])


def negative_binomial_tail(k: int, rho: float, S: int) -> float:
    """sum_{s > S} C(s+k-1, k-1) rho^s for 0 <= rho < 1: a geometric tail
    weighted by the number of k-vectors of nonnegative integers summing to
    s.  In closed form it is the finite negative-binomial tail
    sum_{j < k} C(S+k, j) (1-rho)^(j-k) rho^(S+k-j), exact for S >= -1; a
    smaller S sums the whole series, like S = -1."""
    S = max(S, -1)
    return sum(math.comb(S + k, j) * (1.0 - rho) ** (j - k) * rho ** (S + k - j)
               for j in range(k))


class CompactFn:
    """Finitely supported complex function on the Weyl chamber W^k.

    Lookups outside the stored support return 0.  Instances are immutable
    once built; build from a dict or from (vector, value) pairs.
    """

    __slots__ = ("_data", "_k")

    def __init__(self, data: Mapping[WeylVector, complex] | Iterable):
        if isinstance(data, Mapping):
            items = data.items()
        else:
            items = data
        store: dict[WeylVector, complex] = {}
        k = None
        for n, v in items:
            if not isinstance(n, WeylVector):
                n = WeylVector(tuple(n))
            if k is None:
                k = n.k
            elif n.k != k:
                raise ValueError("all support points must share the same k")
            v = complex(v)
            if v != 0:
                store[n] = v
        if k is None:
            raise ValueError("CompactFn needs at least one support point (use a zero value for the empty function)")
        self._data = store
        self._k = k

    @classmethod
    def delta(cls, n) -> "CompactFn":
        if not isinstance(n, WeylVector):
            n = WeylVector(tuple(n))
        return cls({n: 1.0})

    @property
    def k(self) -> int:
        return self._k

    def __call__(self, n: WeylVector) -> complex:
        if not isinstance(n, WeylVector):
            n = WeylVector(tuple(n))
        return self._data.get(n, 0.0 + 0.0j)

    def support(self) -> tuple[WeylVector, ...]:
        return tuple(self._data.keys())

    def items(self):
        return self._data.items()

    def __len__(self):
        return len(self._data)

    def __repr__(self):
        return f"CompactFn(k={self._k}, support={len(self._data)})"
