"""Guardrail for the permutation-scattering kernel.

Both sides of several checks evaluate eigenfunctions through the one kernel
in ``qboson.eigenfunctions``.  These tests diff each of its entry points, and
the routines routed through it, against deliberately naive evaluators that
live only here: Python complex arithmetic, a direct product over pairs for
every permutation, and no code shared with the package.
"""

import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qboson.degenerations import psi_cfwd_eps_derivative, psi_left_eps_derivative
from qboson.dynamics import identity_halfstat_transform
from qboson.eigenfunctions import (
    FAMILY_KINDS,
    EigenFamily,
    EigenTable,
    eigen_eval,
    eigen_eval_grid,
)
from qboson.contours import nested_contours, string_circle
from qboson.plancherel import nested_kernel_grid
from qboson.qcore import Partition, WeylVector, pair_gap, step, string_points

TOL = 1e-12
COND = 100.0


def _naive_base(model, eps):
    return {"qboson": lambda x: eps - x, "sd": lambda x: x}[model]


def _naive_scattering(model, side, q):
    if model == "sd":
        shift = -1.0 if side == "left" else 1.0
        return lambda za, zb: (za - zb + shift) / (za - zb)
    s = q if side == "left" else 1 / q
    return lambda za, zb: (za - s * zb) / (za - zb)


def _naive_cluster_weight(model, q, n):
    k = len(n)
    out = (-1.0) ** k
    if model != "sd":
        out *= q ** (-k * (k - 1) / 2)
    for _, run in itertools.groupby(n):
        for j in range(1, len(list(run)) + 1):
            out *= j if model == "sd" else (1 - q**j) / (1 - q)
    return out


def naive_terms(kind, q, eps, z, n):
    """The k! terms prod_j base(z_p(j))^(+-n_j) prod_{b<a} S(z_p(a), z_p(b)),
    each divided by the cluster weight for the right family."""
    model, side = kind.split("-")
    base = _naive_base(model, eps)
    scat = _naive_scattering(model, side, q)
    sign = -1 if side == "left" else 1
    k = len(n)
    out = []
    for p in itertools.permutations(range(k)):
        term = 1 + 0j
        for j in range(k):
            term *= base(z[p[j]]) ** (sign * n[j])
        for b in range(k):
            for a in range(b + 1, k):
                term *= scat(z[p[a]], z[p[b]])
        if side == "right":
            term /= _naive_cluster_weight(model, q, n)
        out.append(term)
    return out


def naive_psi(kind, q, eps, z, n):
    return sum(naive_terms(kind, q, eps, z, n))


def reference(fam, z, n):
    """The naive value, for draws whose terms cancel by at most a factor
    COND: where they cancel more, the rounding of the terms alone exceeds
    the comparison's 1e-12 in any evaluator, the naive one included, so
    such draws are discarded."""
    terms = naive_terms(fam.kind, fam.q, fam.eps, z, n)
    ref = sum(terms)
    assume(sum(abs(t) for t in terms) <= COND * (1 + abs(ref)))
    return ref


def _close(got, ref):
    return abs(got - ref) <= TOL * (1 + abs(ref))


# -- strategies ---------------------------------------------------------------

def _family(draw):
    kind = draw(st.sampled_from(FAMILY_KINDS))
    if kind.startswith("sd"):  # the semi-discrete family has no q and no marked point
        return EigenFamily(kind)
    # the q-Boson families at the default marked point 1 or a moved one
    q = draw(st.floats(0.2, 0.8))
    return EigenFamily(kind, q, draw(st.just(1.0) | st.floats(0.2, 1.5)))


def _unit(draw, rmin=0.6, rmax=1.4):
    r = draw(st.floats(rmin, rmax))
    th = draw(st.floats(0.0, 2 * math.pi))
    return r * complex(math.cos(th), math.sin(th))


def _point(draw, fam, k):
    """k spectral values: free points around the excluded point, or the
    geometric or additive strings of a random partition of k."""
    centre = fam.mark
    mode = draw(st.sampled_from(("free", "geometric", "additive")))
    if mode == "free":
        z = [centre + _unit(draw) for _ in range(k)]
    else:
        parts = []
        while sum(parts) < k:
            parts.append(draw(st.integers(1, k - sum(parts))))
        lam = Partition(tuple(sorted(parts, reverse=True)))
        w = [centre + _unit(draw) for _ in range(lam.length)]
        if mode == "geometric":
            try:
                z = list(string_points(w, lam, fam.q))
            except ValueError:
                assume(False)
        else:
            z = [wj + i for wj, part in zip(w, lam.parts) for i in range(part)]
    _assume_separated(fam, z)
    return z


def _assume_separated(fam, z):
    p = fam.mark
    assume(all(abs(v - p) > 0.1 for v in z))
    assume(all(abs(a - b) > 0.05 for a, b in itertools.combinations(z, 2)))


def _state(draw, k):
    """A chamber point; drawn from a short range, so ties are common."""
    return tuple(sorted(draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)),
                        reverse=True))


@st.composite
def cases(draw):
    fam = _family(draw)
    k = draw(st.integers(1, 5))
    return fam, _point(draw, fam, k), _state(draw, k)


# -- the three entry points ---------------------------------------------------

@given(cases())
@settings(max_examples=300)
def test_scalar_entry_matches_naive(case):
    fam, z, n = case
    ref = reference(fam, z, n)
    assert _close(eigen_eval(fam, z, WeylVector(n), validate=False), ref)
    assert _close(EigenTable(fam, z, validate=False)(WeylVector(n)), ref)


@given(cases(), st.data())
@settings(max_examples=150)
def test_states_entry_matches_naive(case, data):
    fam, z, n = case
    k = len(z)
    rows = [n] + [_state(data.draw, k) for _ in range(data.draw(st.integers(0, 6)))]
    if fam.side != "right":  # boundary residuals probe the sum off the chamber
        rows += [tuple(data.draw(st.permutations(n)))]
    refs = [reference(fam, z, row) for row in rows]
    got = EigenTable(fam, z, validate=False).states(np.array(rows))
    assert got.shape == (len(rows),)
    assert all(_close(v, ref) for v, ref in zip(got, refs))


@given(cases(), st.data())
@settings(max_examples=100)
def test_grid_entry_matches_naive(case, data):
    """An axis grid with two values per variable, like a quadrature grid."""
    fam, z, n = case
    k = len(z)
    z2 = _point(data.draw, fam, k)
    refs = {}
    for idx in itertools.product((0, 1), repeat=k):
        node = [(z, z2)[i][m] for m, i in enumerate(idx)]
        _assume_separated(fam, node)
        refs[idx] = reference(fam, node, n)
    zs = [np.array([a, b]).reshape([2 if i == m else 1 for i in range(k)])
          for m, (a, b) in enumerate(zip(z, z2))]
    grid = eigen_eval_grid(fam, zs, WeylVector(n))
    assert grid.shape == (2,) * k
    assert all(_close(grid[idx], ref) for idx, ref in refs.items())


@given(cases())
@settings(max_examples=100)
def test_grid_entry_on_shared_axis_matches_naive(case):
    """String components share one axis: every variable has the same shape."""
    fam, z, n = case
    ref = reference(fam, z, n)
    grid = eigen_eval_grid(fam, [np.array([v, v]) for v in z], WeylVector(n))
    assert grid.shape == (2,) and _close(grid[0], ref) and _close(grid[1], ref)


# -- routines routed through the kernel --------------------------------------

def naive_eps_derivative(side, z, n, eps, q):
    """The term-wise eps-derivative of the q-Boson cfwd or left family at
    marked point eps."""
    k = len(n)
    s = 1 / q if side == "cfwd" else q
    sign = 1 if side == "cfwd" else -1
    out = 0j
    for p in itertools.permutations(range(k)):
        scat = 1 + 0j
        for b in range(k):
            for a in range(b + 1, k):
                za, zb = z[p[a]], z[p[b]]
                scat *= (za - s * zb) / (za - zb)
        pw = 1 + 0j
        for j in range(k):
            pw *= (eps - z[p[j]]) ** (sign * n[j] - 1)
        hat = 0j
        for t in range(k):
            term = complex(sign * n[t])
            for j in range(k):
                if j != t:
                    term *= eps - z[p[j]]
            hat += term
        out += scat * pw * hat
    return out


@given(st.data())
@settings(max_examples=150)
def test_eps_derivatives_match_naive(data):
    q = data.draw(st.floats(0.2, 0.8))
    eps = data.draw(st.floats(0.2, 1.2))
    k = data.draw(st.integers(1, 3))
    fam = EigenFamily("qboson-left", q, eps)
    z = _point(data.draw, fam, k)
    n = _state(data.draw, k)
    got = psi_cfwd_eps_derivative(z, WeylVector(n), eps, q)
    assert _close(got, naive_eps_derivative("cfwd", z, n, eps, q))
    got = psi_left_eps_derivative(z, WeylVector(n), eps, q)
    assert _close(got, naive_eps_derivative("left", z, n, eps, q))


@given(st.data())
@settings(max_examples=30)
def test_halfstat_transform_lhs_matches_naive(data):
    q = data.draw(st.floats(0.3, 0.8))
    k = data.draw(st.integers(1, 3))
    alpha = data.draw(st.floats(0.0, 0.5 * q**k))
    z = [1 + 0.1 * _unit(data.draw, 0.3, 1.0) for _ in range(k)]
    assume(all(abs(a - b) > 0.02 for a, b in itertools.combinations(z, 2)))
    depth = 8
    r = identity_halfstat_transform(k, q, alpha, z, depth=depth)
    ref = 0j
    for n in itertools.combinations_with_replacement(range(depth, 0, -1), k):
        w = 1.0
        for j, nj in enumerate(n):
            w *= (1 - alpha / q ** (j + 1)) ** (-nj)
        ref += w * naive_psi("qboson-right", q, 1.0, z, n)
    assert _close(r.lhs, ref)


def test_states_entry_past_one_slice():
    """k = 5 takes 546 states per slice; 792 states span two slices."""
    fam = EigenFamily("qboson-right", 0.5)
    table = EigenTable(fam, [1.5, 0.4 + 0.6j, 1 - 0.7j, 2.1 + 0.3j, 0.2 - 0.9j])
    rows = list(itertools.combinations_with_replacement(range(4, -4, -1), 5))
    got = table.states(np.array(rows))
    want = np.array([table(WeylVector(r)) for r in rows])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# The shared step.  The nested and string sides of residue-expansion, of
# sd-plancherel and of the moments form their strings and two-body gaps
# through qcore.step and qcore.pair_gap, so these diff them, the scattering
# factor and the nested kernel, value for value and bit for bit, against
# the formulas written out.


def _random_points(rng, shape):
    return rng.normal(0, 1.5, shape) + 1j * rng.normal(0, 1.5, shape)


def test_step_and_pair_gap_are_the_written_formulas():
    rng = np.random.default_rng(28)
    for q in rng.uniform(0.02, 0.98, 25):
        za, zb = _random_points(rng, 40), _random_points(rng, 40)
        for j in range(4):
            assert np.array_equal(step(zb, j, q), zb * q**j)
            assert np.array_equal(step(zb, j, None), zb + j)
        assert np.array_equal(step(zb, -1, q), zb * (1.0 / q))
        assert np.array_equal(pair_gap(za, zb, 1, q), za - q * zb)
        assert np.array_equal(pair_gap(za, zb, -1, q), za - (1.0 / q) * zb)
        assert np.array_equal(pair_gap(za, zb, 1, None), (za - zb) - 1)
        assert np.array_equal(pair_gap(za, zb, -1, None), (za - zb) + 1)
        a, b = complex(za[0]), complex(zb[0])  # Python scalars take the same path
        assert pair_gap(a, b, 1, q) == a - q * b and pair_gap(a, b, -1, None) == (a - b) + 1
    # q**-1 misses 1.0 / q in the last bit for about 0.08% of q
    assert all(step(1.0, -1, q) == 1.0 / q for q in rng.uniform(0.0, 1.0, 20_000).tolist())


def test_scattering_is_the_written_formula_for_all_six_kinds():
    rng = np.random.default_rng(29)
    for q in rng.uniform(0.02, 0.98, 10):
        za, zb = _random_points(rng, 40), _random_points(rng, 40)
        want = {
            "qboson-left": (za - q * zb) / (za - zb),
            "qboson-right": (za - (1.0 / q) * zb) / (za - zb),
            "qboson-cfwd": (za - (1.0 / q) * zb) / (za - zb),
            "sd-left": ((za - zb) - 1) / (za - zb),
            "sd-right": ((za - zb) + 1) / (za - zb),
            "sd-cfwd": ((za - zb) + 1) / (za - zb),
        }
        for kind in FAMILY_KINDS:
            fam = EigenFamily(kind, None if kind.startswith("sd") else q)
            assert np.array_equal(fam.scattering(za, zb), want[kind]), kind


def test_nested_kernel_is_the_written_product_for_both_models():
    rng = np.random.default_rng(30)
    for q in rng.uniform(0.05, 0.95, 5):
        for k in (1, 2, 3, 4):
            zs = [_random_points(rng, 5).reshape([5 if a == j else 1 for a in range(k)])
                  for j in range(k)]
            for cs, gap in ((string_circle(q), lambda za, zb: za - q * zb),
                            (string_circle(None), lambda za, zb: (za - zb) - 1)):
                want = np.ones((5,) * k, dtype=complex) if k == 1 else None
                for a, b in itertools.combinations(range(k), 2):
                    f = (zs[a] - zs[b]) / gap(zs[a], zs[b])
                    want = f if want is None else want * f
                assert np.array_equal(nested_kernel_grid(zs, cs), want), (cs.model, k)


def _bits(x):
    """The bits of a number as a complex pair; + 0.0 makes a zero's sign +."""
    x = complex(x) + 0.0
    return np.array([x.real, x.imag]).view(np.uint64).tolist()


def test_numerator_is_the_docstring_table_for_all_six_kinds():
    # the eigenfunctions module docstring: q-Boson alpha = eps (1 - s),
    # beta = -1, gamma = s with s = q (left) or 1/q; semi-discrete
    # alpha = -1 (left) or +1, beta = 1, gamma = -1.  At dyadic eps the
    # derivation from pair_gap and step matches it bit for bit; a zero
    # alpha at eps = 0 may carry either sign.
    rng = np.random.default_rng(31)
    for q in [0.1, 0.25, 0.5, 0.7, 0.9, *rng.uniform(0.001, 0.999, 200).tolist()]:
        for eps in (0.0, 0.25, 0.5, 1.0, 2.0):
            for side in ("left", "right", "cfwd"):
                s = q if side == "left" else 1.0 / q
                got = EigenFamily(f"qboson-{side}", q, eps).numerator()
                assert list(map(_bits, got)) == list(map(_bits, (eps * (1 - s), -1.0, s)))
    for side in ("left", "right", "cfwd"):
        want = ((-1.0 if side == "left" else 1.0), 1.0, -1.0)
        assert list(map(_bits, EigenFamily(f"sd-{side}").numerator())) == \
            list(map(_bits, want))


def test_families_and_contour_systems_share_the_marked_point():
    pairs = [(EigenFamily("qboson-left", 0.5), string_circle(0.5)),
             (EigenFamily("qboson-right", 0.3, 0.5),
              nested_contours(2, 0.3, r_k=0.1, center=0.5)),
             (EigenFamily("sd-cfwd"), string_circle(None))]
    assert [(fam.mark, cs.mark) for fam, cs in pairs] == [(1.0, 1.0), (0.5, 0.5), (0.0, 0.0)]
