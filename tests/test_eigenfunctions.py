import numpy as np
import pytest

from qboson.eigenfunctions import (
    EigenFamily,
    SpectralDomainError,
    eigen_eval,
    eigen_eval_grid,
    p_map,
    reflect_map,
)
from qboson.qcore import (
    CompactFn,
    Partition,
    WeylVector,
    cq_weight,
    factorial_cluster_weight,
    string_points,
)

Q = 0.5


def test_single_particle_values():
    n = WeylVector((2,))
    assert eigen_eval(EigenFamily("qboson-left", Q), [0.5], n) == pytest.approx(4.0)
    z = 0.3 + 0.2j
    assert eigen_eval(EigenFamily("qboson-right", Q), [z], n) == pytest.approx(-((1 - z) ** 2))


def test_symmetry_in_spectral_variables():
    fam = EigenFamily("qboson-left", Q)
    z = [0.4 + 0.2j, -0.7 + 0.1j, 2.2 - 0.5j]
    n = WeylVector((3, 1, 0))
    vals = {eigen_eval(fam, [z[i] for i in p], n) for p in
            [(0, 1, 2), (1, 0, 2), (2, 0, 1), (2, 1, 0)]}
    assert max(abs(a - b) for a in vals for b in vals) < 1e-12


def test_domain_errors():
    fam = EigenFamily("qboson-left", Q)
    with pytest.raises(SpectralDomainError):
        eigen_eval(fam, [0.5, 0.5], WeylVector((1, 0)))
    with pytest.raises(SpectralDomainError):
        eigen_eval(fam, [1.0], WeylVector((1,)))
    with pytest.raises(SpectralDomainError):
        eigen_eval(EigenFamily("sd-left", Q), [0.0], WeylVector((1,)))
    with pytest.raises(SpectralDomainError):
        eigen_eval(EigenFamily("eps-left", Q, 0.3), [0.3], WeylVector((1,)))


def test_reflection_symmetry_qboson():
    # R Psi^l = q^{k(k-1)/2} C_q Psi^r pointwise
    rng = np.random.default_rng(2)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        coords = tuple(sorted(rng.integers(-4, 5, size=k).tolist(), reverse=True))
        n = WeylVector(coords)
        z = rng.normal(1.5, 0.5, k) + 1j * rng.normal(0, 0.5, k)
        lhs = eigen_eval(EigenFamily("qboson-left", Q), z, n.reflect())
        rhs = Q ** (k * (k - 1) / 2) * cq_weight(n, Q) * eigen_eval(
            EigenFamily("qboson-right", Q), z, n)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_reflection_symmetry_sd():
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        coords = tuple(sorted(rng.integers(-4, 5, size=k).tolist(), reverse=True))
        n = WeylVector(coords)
        z = rng.normal(1.5, 0.8, k) + 1j * rng.normal(0, 0.8, k)
        lhs = eigen_eval(EigenFamily("sd-left", Q), z, n.reflect())
        rhs = factorial_cluster_weight(n) * eigen_eval(EigenFamily("sd-right", Q), z, n)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_eps_one_matches_qboson():
    rng = np.random.default_rng(4)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        coords = tuple(sorted(rng.integers(-5, 6, size=k).tolist(), reverse=True))
        n = WeylVector(coords)
        z = rng.normal(1.4, 0.5, k) + 1j * rng.normal(0, 0.6, k)
        for side in ("left", "right", "cfwd"):
            a = eigen_eval(EigenFamily(f"eps-{side}", Q, 1.0), z, n)
            b = eigen_eval(EigenFamily(f"qboson-{side}", Q), z, n)
            assert abs(a - b) <= 1e-13 * (1 + abs(b))


def test_string_evaluation_is_limit_of_free_points():
    # value at a geometric string equals the limit from nearby free points
    fam = EigenFamily("qboson-left", Q)
    n = WeylVector((2, 1, -1))
    sp = string_points([0.7 + 0.3j, 2.0], Partition((2, 1)), Q, mode="geometric")
    exact = eigen_eval(fam, sp, n)
    rng = np.random.default_rng(5)
    direction = rng.normal(size=3) + 1j * rng.normal(size=3)
    errs = []
    for delta in (1e-3, 1e-4, 1e-5):
        z = [v + delta * d for v, d in zip(sp, direction)]
        errs.append(abs(eigen_eval(fam, z, n) - exact))
    # first-order convergence to the direct string value
    assert errs[1] <= 0.15 * errs[0]
    assert errs[2] <= 0.15 * errs[1]
    assert errs[2] <= 1e-3 * (1 + abs(exact))


def test_sd_family_is_q_to_one_limit():
    # with q = e^{-h} and spectral points q^{z_j}, the rescaled q-Boson
    # left eigenfunction approaches the semi-discrete one as h -> 0
    n = WeylVector((2, 1))
    zsd = [1.7 + 0.4j, 0.6 - 0.3j]
    target = eigen_eval(EigenFamily("sd-left", Q), zsd, n)
    errs = []
    for h in (1e-2, 1e-3):
        q = np.exp(-h)
        z = [q**v for v in zsd]
        # (1 - q^z)^{-m} = (h z)^{-m} (1 + O(h)); rescale by h^{sum n}
        val = eigen_eval(EigenFamily("qboson-left", q), z, n) * h ** (sum(n.coords))
        errs.append(abs(val - target))
    assert errs[1] <= 0.15 * errs[0]  # first order in h


def test_grid_evaluation_matches_scalar():
    fam = EigenFamily("qboson-cfwd", Q)
    n = WeylVector((2, 0, -1))
    rng = np.random.default_rng(6)
    zs = [rng.normal(1.5, 0.4, (4, 1, 1)) + 1j * rng.normal(0, 0.4, (4, 1, 1)),
          rng.normal(1.5, 0.4, (1, 3, 1)) + 1j * rng.normal(0, 0.4, (1, 3, 1)),
          rng.normal(1.5, 0.4, (1, 1, 2)) + 1j * rng.normal(0, 0.4, (1, 1, 2))]
    grid = eigen_eval_grid(fam, zs, n)
    assert grid.shape == (4, 3, 2)
    for i in range(4):
        for j in range(3):
            for l in range(2):
                z = [zs[0][i, 0, 0], zs[1][0, j, 0], zs[2][0, 0, l]]
                assert abs(grid[i, j, l] - eigen_eval(fam, z, n)) < 1e-12 * (1 + abs(grid[i, j, l]))


def test_reflect_map_involution_and_pairing_flip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        pts = {}
        for _ in range(4):
            coords = tuple(sorted(rng.integers(-4, 5, size=k).tolist(), reverse=True))
            pts[WeylVector(coords)] = complex(rng.normal(), rng.normal())
        f = CompactFn(pts)
        rr = reflect_map(reflect_map(f))
        assert set(rr.support()) == set(f.support())
        for n in f.support():
            assert rr(n) == f(n)


def test_p_map_one_particle():
    # k = 1: (Pf)(n) = C_q(n) f(-n) = -f(-n)
    f = CompactFn({WeylVector((2,)): 3.0, WeylVector((-1,)): 1j})
    pf = p_map(f, Q)
    assert pf(WeylVector((-2,))) == pytest.approx(-3.0)
    assert pf(WeylVector((1,))) == pytest.approx(-1j)


def test_p_map_intertwines_right_to_left():
    # F(P delta_m) = Psi^l(m): the property that pins P's normalization
    from qboson.plancherel import transform_F_grid

    rng = np.random.default_rng(8)
    for k in (1, 2, 3):
        coords = tuple(sorted(rng.integers(-3, 4, size=k).tolist(), reverse=True))
        m = WeylVector(coords)
        z = rng.normal(1.4, 0.4, k) + 1j * rng.normal(0, 0.5, k)
        pm = p_map(CompactFn.delta(m), Q)
        lhs = complex(transform_F_grid(pm, [np.asarray(v) for v in z], Q))
        rhs = eigen_eval(EigenFamily("qboson-left", Q), z, m)
        assert abs(lhs - rhs) <= 1e-11 * (1 + abs(rhs))
