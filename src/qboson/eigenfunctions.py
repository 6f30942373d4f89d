"""Bethe-ansatz eigenfunctions for the q-Boson system and its degenerations.

Each eigenfunction is a sum over S_k of a product of two-body scattering
factors and one-particle plane waves.  Three model families share the same
skeleton and differ only in the one-particle factor and the scattering
shift:

    q-Boson       base 1 - z,   scattering z_A - q^{+-1} z_B
    eps-deformed  base eps - z, scattering z_A - q^{+-1} z_B
    semi-discrete base z,       scattering z_A - z_B -+ 1

The ``left`` member uses negative powers of the base, ``cfwd`` positive
powers, and ``right`` is ``cfwd`` divided by the cluster weight of n.

One permutation-scattering kernel evaluates the sum: for a family and a
spectral point it forms the k(k-1) pairwise scattering factors once, and
from them the k! per-permutation products, so only the plane waves depend
on n.  Its three entry points:

- ``EigenTable(fam, z)(n)``: one spectral point, one state (``eigen_eval``);
- ``EigenTable(fam, z).states(ns)``: one spectral point against an (N, k)
  integer array of states, gathering from a table of powers base_m^e;
- ``ScatteringGrid(fam, zs).eigen(n)``: broadcast grids of spectral
  variables (``eigen_eval_grid``); each pairwise factor keeps the broadcast
  shape of its two variables, and the factors are multiplied grouped by
  their later variable, so that on a product grid only two multiplies per
  permutation span the full grid.

An EigenTable sums each state's k! terms exactly (``math.fsum`` on the real
and imaginary parts); its k! x k index table keeps it to k <= 8.  Spectral
entries are required to be pairwise distinct; at geometric/additive string
points only numerator factors vanish, so direct evaluation stays finite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from qboson.qcore import (
    CompactFn,
    WeylVector,
    check_q,
    cluster_weights,
    cq_weight,
    cq_weight_inv,
    factorial_cluster_weight,
    inverse_permutation,
)

FAMILY_KINDS = (
    "qboson-left",
    "qboson-right",
    "qboson-cfwd",
    "eps-left",
    "eps-right",
    "eps-cfwd",
    "sd-left",
    "sd-right",
    "sd-cfwd",
)

COINCIDENCE_TOL = 1e-12


class SpectralDomainError(ValueError):
    """Spectral point violates a family exclusion or has coincident entries."""


@dataclass(frozen=True)
class EigenFamily:
    """Selector for one of the nine eigenfunction families."""

    kind: str
    q: float
    eps: float = 1.0
    model: str = field(init=False, repr=False, compare=False)
    side: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.kind!r}; choose from {FAMILY_KINDS}")
        check_q(self.q)
        model, side = self.kind.split("-")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "side", side)
        if model == "eps" and self.eps < 0:
            raise ValueError("eps must be >= 0")

    @property
    def excluded_point(self) -> complex:
        if self.model == "qboson":
            return 1.0 + 0.0j
        if self.model == "eps":
            return complex(self.eps)
        return 0.0 + 0.0j

    def base(self, z):
        """One-particle base: 1-z, eps-z, or z, usable on scalars or arrays."""
        if self.model == "qboson":
            return 1.0 - z
        if self.model == "eps":
            return self.eps - z
        return +z

    def power_sign(self) -> int:
        """Exponent sign of the base raised to n_j: -1 for left, +1 otherwise."""
        return -1 if self.side == "left" else +1

    def scattering(self, za, zb):
        """Two-body factor (numerator over z_A - z_B) for ordered pair B < A."""
        if self.model == "sd":
            shift = -1.0 if self.side == "left" else +1.0
            return (za - zb + shift) / (za - zb)
        s = self.q if self.side == "left" else 1.0 / self.q
        return (za - s * zb) / (za - zb)

    def prefactor(self, n: WeylVector) -> float:
        """Multiplier C^{-1}(n) for the right family; 1 for left and cfwd."""
        if self.side != "right":
            return 1.0
        if self.model == "sd":
            return 1.0 / factorial_cluster_weight(n)
        return cq_weight_inv(n, self.q)

    def prefactors(self, ns) -> np.ndarray:
        """``prefactor`` of each row of an (N, k) integer array of states."""
        ns = np.asarray(ns)
        if self.side != "right":
            return np.ones(len(ns))
        return 1.0 / cluster_weights(ns, None if self.model == "sd" else self.q)

    def eigenvalue(self, z) -> complex:
        """Generator eigenvalue attached to spectral point z."""
        zs = list(z)
        if self.model == "sd":
            return complex(sum(zi - 1.0 for zi in zs))
        return complex((self.q - 1.0) * sum(zs))


def _as_values(z) -> tuple[complex, ...]:
    return tuple(complex(v) for v in z)


def validate_spectral(fam: EigenFamily, z) -> tuple[complex, ...]:
    """Reject coincident entries and family-excluded points."""
    vals = _as_values(z)
    p = fam.excluded_point
    for i, zi in enumerate(vals):
        if abs(zi - p) < COINCIDENCE_TOL * max(1.0, abs(zi)):
            raise SpectralDomainError(f"spectral entry z_{i+1}={zi} hits the excluded point {p}")
        for j in range(i + 1, len(vals)):
            if abs(zi - vals[j]) < COINCIDENCE_TOL * max(1.0, abs(zi)):
                raise SpectralDomainError(f"coincident spectral entries z_{i+1} ~ z_{j+1} = {zi}")
    return vals


@functools.lru_cache(maxsize=8)
def _perm_index(k: int) -> tuple[np.ndarray, ...]:
    """Index tables of S_k: the permutations as a (k!, k) array; the ordered
    pairs (a, b), a != b, of spectral indices; and for each permutation p and
    place pair b < a, the position of the pair (p(a), p(b)) in that list."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp).reshape(-1, k)
    a, b = np.nonzero(~np.eye(k, dtype=bool))
    pair_pos = np.zeros((k, k), dtype=np.intp)
    pair_pos[a, b] = np.arange(a.size)
    earlier, later = np.triu_indices(k, 1)
    out = (perms, a, b, pair_pos[perms[:, later], perms[:, earlier]])
    for arr in out:
        arr.flags.writeable = False
    return out


def fsum_complex(values) -> complex:
    """Correctly rounded sum of complex values, real and imaginary parts apart."""
    values = np.asarray(values, dtype=complex).ravel()
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


class EigenTable:
    """The kernel of one family at one spectral point, shared across states.

    ``weights[p]`` is the scattering product prod_{b<a} S(z_{p(a)}, z_{p(b)})
    of the p-th permutation of ``perms``, formed from the k(k-1) pairwise
    factors; a state n then only needs its plane waves
    prod_j base(z_{p(j)})^{+-n_j}.
    """

    def __init__(self, fam: EigenFamily, z, validate: bool = True):
        vals = np.array(validate_spectral(fam, z) if validate else _as_values(z), dtype=complex)
        self.fam, self.k = fam, len(vals)
        self.perms, a, b, pairs = _perm_index(self.k)
        self.weights = fam.scattering(vals[a], vals[b])[pairs].prod(axis=1)
        self.bases = fam.base(vals)

    def terms(self, ns) -> np.ndarray:
        """(k!, N) per-permutation terms at the rows of an (N, k) integer
        array of states, before the prefactor."""
        ns = np.asarray(ns, dtype=np.int64).reshape(-1, self.k)
        lo = int(ns.min())
        exps = self.fam.power_sign() * np.arange(lo, int(ns.max()) + 1)
        table = self.bases[:, None] ** exps  # table[m, e - lo] = base_m^(+-e)
        idx = ns - lo
        # permutation p pairs place j with z_{p(j)}
        out = self.weights[:, None] * table[self.perms[:, :1], idx[:, 0]]
        for j in range(1, self.k):
            out *= table[self.perms[:, j:j + 1], idx[:, j]]
        return out

    def states(self, ns) -> np.ndarray:
        """Eigenfunction values at the rows of an (N, k) integer array, taken
        in slices that keep the (k!, rows) array of terms near 1 MB."""
        ns = np.asarray(ns, dtype=np.int64).reshape(-1, self.k)
        step = max(1, (1 << 16) // len(self.weights))
        re, im = [], []
        for start in range(0, len(ns), step):
            t = self.terms(ns[start:start + step])
            re += [math.fsum(col) for col in t.real.T.tolist()]
            im += [math.fsum(col) for col in t.imag.T.tolist()]
        return (np.array(re) + 1j * np.array(im)) * self.fam.prefactors(ns)

    def __call__(self, n: WeylVector) -> complex:
        """Eigenfunction value at one state: ``states`` of one row, gathered
        from a k x k table of powers in one step, in about half the time of
        ``terms`` on one row."""
        waves = self.bases[:, None] ** (self.fam.power_sign() * np.array(n.coords))
        # waves[m, j] = base_m^(+-n_j); permutation p pairs place j with z_{p(j)}
        t = self.weights * waves[self.perms, np.arange(self.k)].prod(axis=1)
        return fsum_complex(t) * self.fam.prefactor(n)


class ScatteringGrid:
    """The kernel of one family on broadcast grids of spectral variables.

    Each of the k(k-1) pairwise factors is formed once, on first use, at the
    broadcast shape of its two variables, and reused by every permutation.
    No per-node domain validation is performed: quadrature grids are built
    on contours that already avoid the exclusions.
    """

    def __init__(self, fam: EigenFamily, zs: Sequence[np.ndarray]):
        self.fam = fam
        self.zs = [np.asarray(z, dtype=complex) for z in zs]
        self.k = len(self.zs)
        self.shape = np.broadcast_shapes(*[z.shape for z in self.zs])
        self._factors: dict[tuple[int, int], np.ndarray] = {}

    def _factor(self, a: int, b: int) -> np.ndarray:
        f = self._factors.get((a, b))
        if f is None:
            f = self._factors[(a, b)] = self.fam.scattering(self.zs[a], self.zs[b])
        return f

    def _grouped(self, pos: Sequence[int], waves: Sequence[np.ndarray] | None = None):
        """Product of the pair factors, and of ``waves`` if given, taken in
        groups: for each m, wave_m times the factors pairing z_m with each
        z_i, i < m.  pos[m] = place of variable m; the later place of a pair
        is z_A.  On grids where each variable adds an axis, only the last
        group and the last running product span the full grid.
        """
        out = None
        for m in range(self.k):
            g = None if waves is None else waves[m]
            for i in range(m):
                f = self._factor(m, i) if pos[m] > pos[i] else self._factor(i, m)
                g = f if g is None else g * f
            if g is not None:
                out = g if out is None else out * g
        return out

    def product(self, perm: Sequence[int]) -> np.ndarray:
        """prod_{b<a} S(z_{perm[a]}, z_{perm[b]}) for one permutation."""
        if self.k < 2:
            return np.asarray(1.0 + 0.0j)
        return self._grouped(inverse_permutation(perm))

    def eigen(self, n: WeylVector) -> np.ndarray:
        """The eigenfunction at state n on the broadcast grid."""
        if n.k != self.k:
            raise ValueError("need one spectral array per particle")
        sign = self.fam.power_sign()
        # powers[m][j] = base(z_m)^(+-n_j)
        powers = [[b ** (sign * c) for c in n.coords] for b in map(self.fam.base, self.zs)]
        total = np.zeros(self.shape, dtype=complex)
        for perm in itertools.permutations(range(self.k)):
            pos = inverse_permutation(perm)
            total += self._grouped(pos, [powers[m][pos[m]] for m in range(self.k)])
        return total * self.fam.prefactor(n)


def eigen_eval_grid(fam: EigenFamily, zs: Sequence[np.ndarray], n: WeylVector) -> np.ndarray:
    """Evaluate the eigenfunction on arrays of spectral variables.

    ``zs`` holds k arrays, mutually broadcastable; the result has the
    broadcast shape.
    """
    return ScatteringGrid(fam, zs).eigen(n)


def eigen_eval(fam: EigenFamily, z, n: WeylVector, validate: bool = True) -> complex:
    """Eigenfunction value at a single spectral point."""
    return EigenTable(fam, z, validate)(n)


def reflect_map(f: CompactFn) -> CompactFn:
    """(Rf)(n_1..n_k) = f(-n_k..-n_1); an involution on compact functions."""
    return CompactFn({n.reflect(): v for n, v in f.items()})


def p_map(f: CompactFn, q: float) -> CompactFn:
    """(Pf)(n) = q^{k(k-1)/2} C_q(n) (Rf)(n), the right-to-left intertwiner.

    The constant is pinned by the reflection symmetry of the two
    eigenfunction families: with it, the forward transform of P delta_m is
    exactly the left eigenfunction labeled by m, which is what the pairing
    isomorphism identity requires.
    """
    check_q(q)
    rf = reflect_map(f)
    k = f.k
    scale = q ** (k * (k - 1) / 2.0)
    return CompactFn({n: scale * cq_weight(n, q) * v for n, v in rf.items()})
