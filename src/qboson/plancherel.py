"""The transform pair, spectral measures, and residue expansion.

The forward transform pairs a compactly supported function with the right
eigenfunctions; the inverse transform is a k-fold contour integral that can
be evaluated three equivalent ways: over nested circles, over one large
circle against the k-string-free measure, or as a sum over partitions of
string-specialized integrals against the measure `mu_weight`.

That three-way choice is made in one place, `_spectral_slabs`, and the
shape of the contour system is the choice: ``nested`` gives the nested
mode, ``single`` the single-gamma mode, and ``string``
(`contours.string_circle`) the partition-expanded mode.  The contour
system is also the one source of q, of the marked point eps (the
eps-deformed system is the q-Boson family at eps) and of the model (q
None is the semi-discrete one): no evaluator here takes them beside it.
Its step (`qcore.step`, `qcore.pair_gap`) builds the strings and nested
kernel.  For each grid slab the dispatch yields the spectral
components, the measure and the permutation terms of the y-side
eigenfunction family, and every mode pairs each component with its base
at the exponent -n - 1.  The batched evaluators consume it without naming
a mode, a q or a model: `inverse_J_batch` (with
`inverse_J` a batch of one) and `composition_table`, the one spectral
pairing table of two eigenfunction families, whose left side gives the
identity resolution and spatial biorthogonality and whose right side gives
the right-right Gram table of the isomorphism identity.  They contract the
integrand against integer powers of the one-particle bases with
`contours.contract_powers` (the components of one string share their base
point's grid axis), so one quadrature grid serves a whole box of spatial
arguments at once.  The x-side permutations of the pairing table cost no
grid work: each slab contracts its y terms over the common scattering
denominator Delta, the contractions are summed over slabs (and over
partitions, which share the component-exponent index space) into one
small table per y-permutation, and `EigenFamily.expand` builds each
x-permutation's table from that sum through the numerator factors, which
are linear in the bases (alpha + beta base_u + gamma base_v), as shifted
slices.  Delta divides every measure here analytically (the nested kernel,
the Cauchy product of `mu_density_grid`), so the division adds no small
divisor.

Every grid here is walked through `contours._grid_chunks`, the same slabs
`contours.integrate` uses, so peak memory is one slab (4 MB per complex
array) however many axes a grid has.  The grid string measure,
`mu_density_grid`, is built from two-axis pair factors and one-axis diagonal
factors, with no full-size division; `mu_weight` keeps the literal determinant.
Both residue-expansion sides walk the dispatch with the left family:
`residue_expand_nested` on nested circles, `residue_expand_sum` on one
string circle, as every moment is evaluated.  Every planned evaluator here
(`inverse_J_batch` and both residue sides) feeds its slab terms, reduced by
the power contraction or by a plain sum per F, to `contours.half_grid_sums`,
the one half-grid accumulator, for its values, plain half-grid differences d
and rounding bounds; `contours.plan_nodes` extrapolates d into the estimate
on which it chooses the node count.  `composition_table` and the spectral
orthogonality window stay off the half grid: no caller reads their d.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from qboson.contours import (
    ContourSystem,
    QuadratureSpec,
    contract_powers,
    _grid_chunks,
    half_grid_sums,
    plain_sum,
)
from qboson.eigenfunctions import EigenFamily, ScatteringGrid
from qboson.qcore import (
    CompactFn,
    Partition,
    WeylVector,
    check_q,
    inverse_permutation,
    pair_gap,
    partitions_of,
    string_points,
)


def _family(cs: ContourSystem, side: str) -> EigenFamily:
    """The ``side`` eigenfunctions of the model, q and marked point of ``cs``."""
    return EigenFamily(f"{cs.model}-{side}", cs.q, cs.eps)


def nested_kernel_grid(zs: Sequence[np.ndarray], cs: ContourSystem) -> np.ndarray:
    """prod_{A<B} (z_A - z_B) / `pair_gap`(z_A, z_B, 1) of the model of ``cs``:
    /(z_A - q z_B), or /(z_A - z_B - 1) for the semi-discrete model."""
    k = len(zs)
    out = None
    for a in range(k):
        for b in range(a + 1, k):
            f = (zs[a] - zs[b]) / pair_gap(zs[a], zs[b], 1, cs.q)
            if out is None:
                out = f
            elif out.shape == np.broadcast_shapes(out.shape, f.shape):
                out *= f  # out spans the grid: no new full-size array
            else:
                out = out * f
    if out is None:
        out = np.ones(np.broadcast_shapes(*[np.shape(z) for z in zs]), dtype=complex)
    return out


def transform_F_grid(f: CompactFn, zs: Sequence[np.ndarray], q: float,
                     side: str = "right") -> np.ndarray:
    """Grid version of the q-Boson transform; ``side`` switches to the left
    pairing.  Every support point is evaluated on one `ScatteringGrid`, so
    its k(k-1) pair factors are formed once."""
    grid = ScatteringGrid(EigenFamily(f"qboson-{side}", q), zs)
    out = None
    for n, v in f.items():
        term = v * grid.eigen(n)
        out = term if out is None else out + term
    if out is None:
        out = np.zeros(grid.shape, dtype=complex)
    return out


def pairing_spatial(f: CompactFn, g: CompactFn) -> complex:
    """<f, g> = sum_n f(n) g(n) over the Weyl chamber."""
    if len(f) > len(g):
        f, g = g, f
    return sum(v * g(n) for n, v in f.items())


# ---------------------------------------------------------------------------
# Spectral measures


def _mult_factorial(lam: Partition) -> float:
    out = 1.0
    for m in lam.multiplicities().values():
        out *= math.factorial(m)
    return out


def mu_density_grid(lam: Partition, ws: Sequence[np.ndarray], cs: ContourSystem) -> np.ndarray:
    """String-measure density at base points w of the model of ``cs`` (the
    dw/(2 pi i) lives in the quadrature), with s_i = step(w_i, lam_i):

    q-Boson family (at any marked point):
        (1-q)^k (-1)^k q^{-k^2/2} / prod_i m_i! * det[1/(s_i - w_j)]
        * prod_j w_j^{lam_j} q^{lam_j^2/2},   s_i = w_i q^{lam_i};
    semi-discrete: det[1/(s_i - w_j)] / prod_i m_i!,   s_i = w_i + lam_i.

    The Cauchy determinant is evaluated through its product form, split by
    the variables each factor depends on: for each pair i < j the factor
    (s_i - s_j)(w_j - w_i) / ((s_i - w_j)(s_j - w_i)) on the broadcast of
    (w_i, w_j) alone, and on one axis each the diagonal 1/(s_i - w_i) times
    w_i^{lam_i} q^{lam_i^2/2}, with the scalar prefactor folded into axis 0.
    The pairs are taken in order of j, so on an ell-axis product grid of M
    nodes per axis that is ell(ell-1)/2 two-axis factors and ell - 1
    multiplies at the full M^ell size, with no division at that size.  The
    scalar `mu_weight` keeps the literal determinant, and
    tests/test_plancherel.py diffs the two on grids.
    """
    ell = lam.length
    ws = [np.asarray(w, dtype=complex) for w in ws]
    ss = [cs.step(w, part) for w, part in zip(ws, lam.parts)]
    sd, q, k = cs.model == "sd", cs.q, lam.size
    pref = 1.0 if sd else (1.0 - q) ** k * (-1.0) ** k * q ** (-k * k / 2.0)
    pref /= _mult_factorial(lam)
    diag = []
    for i, part in enumerate(lam.parts):
        f = 1.0 / (ss[i] - ws[i])
        diag.append(f if sd else f * ws[i] ** part * q ** (part * part / 2.0))
    out = pref * diag[0]
    for j in range(1, ell):
        for i in range(j):
            f = (ss[i] - ss[j]) * (ws[j] - ws[i]) / ((ss[i] - ws[j]) * (ss[j] - ws[i]))
            out = out * (f * diag[j] if i == 0 else f)
    return out


def mu_weight(lam: Partition, w: Sequence[complex], q: float) -> complex:
    """Scalar string-measure density (canonical normalization), evaluated
    through the literal determinant."""
    check_q(q)
    ell = lam.length
    ws = [complex(x) for x in w]
    M = np.empty((ell, ell), dtype=complex)
    for i in range(ell):
        for j in range(ell):
            gap = ws[i] * q ** lam.parts[i] - ws[j]
            if gap == 0:
                raise ValueError("singular string-measure determinant input")
            M[i, j] = 1.0 / gap
    det = complex(np.linalg.det(M))
    if not math.isfinite(det.real) or not math.isfinite(det.imag):
        raise ValueError("singular string-measure determinant input")
    k = lam.size
    pref = (1.0 - q) ** k * (-1.0) ** k * q ** (-k * k / 2.0) / _mult_factorial(lam)
    extra = 1.0 + 0.0j
    for j in range(ell):
        lj = lam.parts[j]
        extra *= ws[j] ** lj * q ** (lj * lj / 2.0)
    return pref * det * extra


def mu_weight_appendix(lam: Partition, w: Sequence[complex], q: float) -> complex:
    """Equivalent form with q^{-k(k-1)/2} and q^{lam_j (lam_j - 1)/2} exponents."""
    check_q(q)
    ell = lam.length
    k = lam.size
    ws = [complex(x) for x in w]
    M = np.empty((ell, ell), dtype=complex)
    for i in range(ell):
        for j in range(ell):
            M[i, j] = 1.0 / (ws[i] * q ** lam.parts[i] - ws[j])
    det = complex(np.linalg.det(M))
    pref = (1.0 - q) ** k * (-1.0) ** k * q ** (-k * (k - 1) / 2.0) / _mult_factorial(lam)
    extra = 1.0 + 0.0j
    for j in range(ell):
        lj = lam.parts[j]
        extra *= ws[j] ** lj * q ** (lj * (lj - 1) / 2.0)
    return pref * det * extra


def mu_weight_vandermonde(lam: Partition, w: Sequence[complex], q: float) -> complex:
    """Squared-Vandermonde form: the density as Delta(w o lam)^2 over the
    scattering denominator with its vanishing factors omitted."""
    return residue_weight_direct(lam, w, q) / _mult_factorial(lam)


def _string_consecutive_pairs(lam: Partition) -> set[tuple[int, int]]:
    """Ordered index pairs (deeper, shallower) adjacent within one string."""
    pairs = set()
    pos = 0
    for part in lam.parts:
        for t in range(1, part):
            pairs.add((pos + t, pos + t - 1))
        pos += part
    return pairs


def residue_weight_direct(lam: Partition, w: Sequence[complex], q: float) -> complex:
    """Iterated string residue of prod_{i != j} (y_i - y_j)/(y_i - q y_j).

    The residue multiplies in the factors (y_i - q y_{i-1}) along each
    string; those cancel, factor for factor, against the denominator, so
    the value is the plain product with exactly those denominator factors
    removed, evaluated at the geometric string point.

    This hand-written k^2 loop is the independent side of residue-weight,
    which compares it with the Cauchy-determinant form.  Keep it off the
    permutation-scattering kernel and the determinant, so that the two
    sides share no code.
    """
    check_q(q)
    y = string_points(w, lam, q)
    k = len(y)
    skip = _string_consecutive_pairs(lam)
    out = 1.0 + 0.0j
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            out *= y[i] - y[j]
            if (i, j) not in skip:
                out /= y[i] - q * y[j]
    return out


def residue_weight_determinant(lam: Partition, w: Sequence[complex], q: float) -> complex:
    """Closed-form value of the same residue via the Cauchy-type determinant."""
    return complex(mu_weight(lam, w, q)) * _mult_factorial(lam)


# ---------------------------------------------------------------------------
# Inverse transform: one evaluation-mode dispatch, shared by every batch


class _Slab(NamedTuple):
    """One grid slab of the inverse transform in one evaluation mode."""

    comps: list  # the k spectral variables: w o lam in string modes, z in nested
    bases: list  # the one-particle base of each component, raveled along its axis
    axis_of: tuple  # the grid axis each component lives on
    measure: np.ndarray  # quadrature weights times the mode's measure
    lefts: Callable  # T -> (sigma^{-1}, T times the y-side scattering of sigma) pairs


def _state_coords(states: Sequence[WeylVector]) -> np.ndarray:
    """The states as an (N, k) integer array, N >= 1."""
    coords = np.array([n.coords for n in states], dtype=int)
    if coords.ndim != 2 or len(coords) == 0:
        raise ValueError("the inverse transform needs at least one state")
    return coords


def _spectral_slabs(k: int, cs: ContourSystem, spec: QuadratureSpec, side: str):
    """Yield the slabs of the k-fold inverse transform in the evaluation
    mode of ``cs``'s shape, paired on the y side with the ``side``
    eigenfunctions of its model, q and marked point.

    nested: the k circles of ``cs``, measure W times the nested kernel, no
    y eigenfunction (the identity term).  single: the k circles of ``cs``,
    measure W dmu_{(1)^k}.  string: for each partition lam of k, ell(lam)
    copies of its one circle, measure W dmu_lam at the string point w o lam.  Every
    mode pairs each component with its base at the exponent
    power_sign * n - 1; in the string modes the -1 is
    prod_m 1/base(comp_m) = 1/prod_j (w_j; q)_{lam_j} (at the marked point
    eps = 1; its analogue at other eps, or in the semi-discrete family).  On
    the symmetric string-free measure the k! y terms collapse to k! times
    the identity term; the others are formed only when a consumer asks.
    The semi-discrete sign (-1)^k, which survives the string expansion, is
    `composition_table`'s.
    """
    nested, single = cs.family == "nested", cs.family == "single"
    if (nested or single) and cs.k != k:
        raise ValueError(f"{cs.family} contours need one circle per particle: "
                         f"{cs.k} circles for k = {k}")
    fam_y = _family(cs, side)
    identity = tuple(range(k))
    if nested:
        if side != "left":
            raise ValueError("nested mode pairs with the left eigenfunction only")
        for zs, W in _grid_chunks(cs, spec):
            yield _Slab(zs, [fam_y.base(z).ravel() for z in zs], identity,
                        W * nested_kernel_grid(zs, cs), lambda T: [(identity, T)])
        return
    lams = [Partition((1,) * k)] if single else partitions_of(k)
    for lam in lams:
        axis_of = tuple(s for s, part in enumerate(lam.parts) for _ in range(part))
        sub = cs if single else replace(cs, circles=cs.circles[:1] * lam.length)
        for ws, W in _grid_chunks(sub, spec):
            # w o lam: the strings w, step(w), step(w, 2), ...
            comps = [cs.step(ws[s], i) for s, part in enumerate(lam.parts) for i in range(part)]
            scat = ScatteringGrid(fam_y, comps)
            if lam.length == k:
                lefts = lambda T, scat=scat: [
                    (identity, T * math.factorial(k) * scat.product(identity))]
            else:
                lefts = scat.permuted
            yield _Slab(comps, [fam_y.base(c).ravel() for c in comps], axis_of,
                        W * mu_density_grid(lam, ws, cs), lefts)


def inverse_J_batch(G, ns: Sequence[WeylVector], cs: ContourSystem,
                    spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse transform (the family, q and marked point of ``cs``) of a
    symmetric spectral function G at many points n, sharing one grid
    evaluation of G.

    The family of ``cs`` picks the form: nested circles (the k-fold nested
    integral), one large circle (the k-string-free measure against the left
    eigenfunction), or one string circle (the sum over partitions of
    string-specialized integrals).

    Returns `contours.half_grid_sums`' values, d and rounding bounds (and
    FloatingPointError on a non-finite value) of each slab term T reduced by
    its power contraction at each state's exponents, which grows |T| by at
    most prod_m b_m^{e_m}: b_m is the largest |base| of component m where
    e_m >= 0 and the smallest where e_m < 0.
    """
    coords = _state_coords(ns)
    hi = int(coords.max())
    erange = (-1 - hi, -1 - int(coords.min()))

    def terms():
        for s in _spectral_slabs(coords.shape[1], cs, spec, "left"):
            # In place, so the slab holds one full-size array, and with the
            # measure as the left operand: `a * temporary` may run as
            # `temporary *= a`, and a complex product rounds differently with
            # its operands swapped.
            T0 = np.multiply(s.measure, G(tuple(s.comps)), out=s.measure)
            extents = [(np.abs(b).min(), np.abs(b).max()) for b in s.bases]
            for inv, T in s.lefts(T0):
                # component m carries the exponent e_m = -n_{sigma^{-1}(m)} - 1
                idx = tuple(hi - coords[:, j] for j in inv)
                e = -1 - coords[:, list(inv)]
                growth = np.prod([np.where(e[:, m] >= 0, top, low) ** e[:, m]
                                  for m, (low, top) in enumerate(extents)], axis=0)
                yield slice(None), T, lambda T, pick, s=s, idx=idx: contract_powers(
                    T, [pick(b) for b in s.bases], s.axis_of, erange)[idx], growth

    return half_grid_sums(terms(), len(coords))


def inverse_J(G, n: WeylVector, cs: ContourSystem, spec: QuadratureSpec) -> complex:
    """Inverse transform at one point n: the value of `inverse_J_batch` on a
    batch of one."""
    return complex(inverse_J_batch(G, [n], cs, spec)[0][0])


def composition_table(states: Sequence[WeylVector], cs: ContourSystem, spec: QuadratureSpec,
                      side: str = "left") -> np.ndarray:
    """Matrix T[ix, iy] = spectral pairing of the right eigenfunction at x
    with the ``side`` eigenfunction at y, for all x, y in ``states``.

    side "left" gives the identity-resolution table: T[ix, iy] is the
    inverse transform of the forward transform of delta_x evaluated at y,
    and the transform pair acts as the identity iff T is the unit matrix.
    On a single circle or a string circle the same table is the spatial
    biorthogonality matrix of the left and right eigenfunctions.  side
    "right" (not on nested circles) gives the right-right Gram table B of
    the isomorphism identity, <f, g> = <F(P f), F g> as a quadratic form in
    B.  The family of ``cs`` picks the evaluation mode (`_spectral_slabs`),
    and its model, q and marked point the eigenfunctions; every mode shares
    one grid through per-permutation scattering tensors and integer power
    contraction.
    """
    fam_x, fam_y = _family(cs, "right"), _family(cs, side)
    sy = fam_y.power_sign()
    coords = _state_coords(states)
    k = coords.shape[1]
    lo, hi = int(coords.min()), int(coords.max())
    erange = (lo + min(sy * lo, sy * hi) - 1, hi + max(sy * lo, sy * hi) - 1)
    contractions = {}  # sigma^{-1} -> sum over slabs of the contraction of T / Delta
    for s in _spectral_slabs(k, cs, spec, side):
        for inv_s, Tl in s.lefts(s.measure):
            for j in range(1, k):  # Tl / Delta in place, one small pair factor at a time
                for i in range(j):
                    Tl *= 1.0 / (s.comps[j] - s.comps[i])
            R = contract_powers(Tl, s.bases, s.axis_of, (erange[0], erange[1] + k - 1))
            contractions[tuple(inv_s)] = contractions.get(tuple(inv_s), 0) + R
    out = np.zeros((len(coords), len(coords)), dtype=complex)
    for inv_s, R in contractions.items():
        for inv_t, table in fam_x.expand(R):
            # component m carries the exponent
            # x_{tau^{-1}(m)} + sy y_{sigma^{-1}(m)} - 1
            out += table[tuple(coords[:, None, t] + sy * coords[None, :, j] - 1
                               - erange[0] for t, j in zip(inv_t, inv_s))]
    sign = (-1.0) ** k if cs.model == "sd" else 1.0
    return sign * fam_x.prefactors(coords)[:, None] * fam_y.prefactors(coords)[None, :] * out


# ---------------------------------------------------------------------------
# Residue expansion of the bare nested kernel


def _residue_terms(Fs: Sequence[Callable], k: int, cs: ContourSystem, spec: QuadratureSpec):
    """Per F, the measure times S^left(sigma) times F at the permuted
    components of each slab and y-permutation term of the dispatch on ``cs``
    with its left family, as `contours.half_grid_sums` terms (a plain sum)."""
    for s in _spectral_slabs(k, cs, spec, "left"):
        for inv, weight in s.lefts(s.measure):
            args = tuple(s.comps[m] for m in inverse_permutation(inv))
            for i, F in enumerate(Fs):
                # weight first, always: swapping a complex product's operands
                # can change its last bit
                yield i, weight * F(args), plain_sum, 1.0


def residue_expand_nested(Fs: Sequence[Callable], cs: ContourSystem,
                          spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nested integral of prod_{A<B} (z_A - z_B)/(z_A - q z_B) * F for each F
    of a batch over the nested circles ``cs`` (the dispatch's nested slabs,
    whose measure is W times that kernel), a plain sum per F through
    `contours.half_grid_sums`: its values, half-grid differences, rounding
    bounds and FloatingPointError on a non-finite F."""
    return half_grid_sums(_residue_terms(Fs, cs.k, cs, spec), len(Fs))


def residue_expand_sum(Fs: Sequence[Callable], k: int, cs: ContourSystem,
                       spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition-sum side: for each F of a batch, the sum over partitions of
    the string measure paired with the symmetrized kernel
    sum_sigma S^left(sigma) F(sigma z), on ell(lam) copies of the one
    string circle of ``cs`` (`contours.string_circle`): the expanded slabs
    of `_spectral_slabs` with the left family, F taken at the permuted
    string components.  On a semi-discrete circle (q None) the family is the
    semi-discrete one, for the kernel prod_{A<B} (z_A - z_B)/(z_A - z_B - 1).
    A plain sum per F through `contours.half_grid_sums`, as the nested side;
    each ell-axis grid's half-grid sum is scaled by 2^ell.
    """
    return half_grid_sums(_residue_terms(Fs, k, cs, spec), len(Fs))
