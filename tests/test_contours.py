import numpy as np
import pytest

from qboson.contours import (
    Circle,
    ContourError,
    ContourSystem,
    QuadratureSpec,
    contract_powers,
    default_inner_radius,
    gamma_prime,
    grid_nodes_weights,
    integrate,
    nested_contours,
    plan_nodes,
    power_matrix,
    single_gamma,
    string_circle,
)

Q = 0.5


def test_nested_radii_recurrence():
    cs = nested_contours(2, Q, r_k=0.1, margin=0.01)
    assert [c.radius for c in cs.circles] == pytest.approx([0.56, 0.1])
    cs = nested_contours(3, Q, r_k=0.05, margin=0.01)
    assert [c.radius for c in cs.circles] == pytest.approx([0.7775, 0.535, 0.05])


def test_innermost_must_exclude_q():
    with pytest.raises(ContourError, match="innermost"):
        ContourSystem((Circle(1.0, 0.6),), "nested", q=Q)


def test_validator_soundness():
    # shrinking r_A below (1-q) + q r_B flips the validator to reject
    ContourSystem((Circle(1.0, 0.56), Circle(1.0, 0.1)), "nested", q=Q)
    with pytest.raises(ContourError, match="does not contain the image of circle 2"):
        ContourSystem((Circle(1.0, 0.549), Circle(1.0, 0.1)), "nested", q=Q)


def test_exclusions_enforced():
    # the string circle about 1 keeps the pole alpha/q off its strings
    # q^j w, j < k: its radius stays below 1 - alpha/q^k
    (circle,) = string_circle(Q, 2, alpha=0.2).circles
    assert circle.radius == pytest.approx(0.6 * (1 - 0.2 / Q**2))
    with pytest.raises(ContourError, match="reaches the pole"):
        string_circle(Q, 2, alpha=0.2, radius=0.2)
    with pytest.raises(ContourError, match="string circle too large"):
        string_circle(Q, 2, alpha=0.0, radius=0.34)


def test_string_circle_sits_at_the_marked_point():
    # the string system's eps is its circle's centre
    cs = ContourSystem((Circle(0.5, 0.1),), "string", q=Q, eps=0.5)
    assert (cs.model, string_circle(None).model) == ("qboson", "sd")
    with pytest.raises(ContourError, match="not at the marked point 1.0"):
        ContourSystem((Circle(0.5, 0.1),), "string", q=Q)


def test_string_circle_takes_its_center_as_the_marked_point():
    # centre eps, eps-scaled image bound, pole gap eps - alpha/q^k; a centre
    # at or below 0 is refused, as nested_contours refuses it
    for q in (0.1, 0.5, 0.7):
        cs = string_circle(q, center=0.5)
        (c,) = cs.circles
        assert (cs.eps, c.center) == (0.5, 0.5)
        assert c.radius == pytest.approx(0.6 * 0.5 * (1 - q) / (1 + q), rel=1e-15, abs=0)
    (c,) = string_circle(Q, 2, alpha=0.1, center=0.5).circles
    assert c.radius == pytest.approx(0.6 * (0.5 - 0.1 / Q**2), rel=1e-15, abs=0)
    with pytest.raises(ContourError, match="reaches the pole"):
        string_circle(Q, 2, alpha=0.1, radius=0.1, center=0.5)
    for center in (0.0, -0.5):
        with pytest.raises(ContourError, match="center must be positive"):
            string_circle(Q, center=center)


def test_single_gamma_geometry():
    cs = single_gamma(Q)
    c = cs.circles[0]
    assert c.contains_point(0.0) and c.contains_point(1.0)
    assert c.encloses(cs.image(c))  # its own q-image
    gp = gamma_prime(cs)
    # min |1 - w| on the outer circle exceeds max |1 - z| on gamma
    assert gp.radius - 1.0 > 1.0 + c.radius


def test_sd_nesting():
    # at q None the step is z -> z + 1: circles about 0, r_j = r_{j+1} + 1 + margin
    assert [c.radius for c in nested_contours(4, None, r_k=0.4, margin=0.1).circles] == [
        3.7, 2.6, 1.5, 0.4]
    cs = nested_contours(3, None, r_k=0.4, margin=0.1)
    for a in range(2):
        assert cs.circles[a].encloses(cs.image(cs.circles[a + 1]))  # 1 + the next circle
    with pytest.raises(ContourError, match="innermost circle contains 1"):
        ContourSystem((Circle(0.0, 2.3), Circle(0.0, 1.2)), "nested", q=None)


BUILDER_QS = (0.1, 0.25, 0.3, 0.5, 0.7, 0.9)


def _bits(circles):
    """The bits of each circle's centre and radius; hex keeps a zero's sign."""
    return [(complex(c.center).real.hex(), complex(c.center).imag.hex(), float(c.radius).hex())
            for c in circles]


def _written_nested(k, q, r_k=None, margin=None, center=1.0):
    """The nested circles written out per model: about eps = center with
    r_j = center (1 - q) + q r_{j+1} + margin (defaults r_k = center
    min(0.1, (1 - q)/4) and margin 0.3 center (1 - q)), or at q None about
    0 with r_j = r_{j+1} + 1.1 from r_k = 0.4."""
    if q is None:
        radii = [0.4]
        for _ in range(k - 1):
            radii.append(radii[-1] + 1.1)
        return _bits(Circle(0j, r) for r in reversed(radii))
    if r_k is None:
        r_k = center * min(0.1, (1.0 - q) / 4.0)
    if margin is None:
        margin = 0.3 * center * (1.0 - q)
    radii = [r_k]
    for _ in range(k - 1):
        radii.append(center * (1.0 - q) + q * radii[-1] + margin)
    return _bits(Circle(complex(center), r) for r in reversed(radii))


def test_builders_match_the_written_circles_bit_for_bit():
    # one builder per shape draws both models' circles from the step; they
    # are the circles written out per model, at k = 1..4, q in BUILDER_QS,
    # and at every r_k, margin, center, alpha and radius that the package
    # and the benchmark's quadrature probe (nested_contours(3, q)) pass;
    # eps-plancherel's center is its eps knob, here also 0.7, where
    # |step(mark) - mark| must round as mark (1 - q)
    for k in (1, 2, 3, 4):
        assert _bits(nested_contours(k, None, r_k=0.4, margin=0.1).circles) == \
            _written_nested(k, None)
        for q in BUILDER_QS:
            expanded = min(0.3, 0.6 * (1.0 - q) / (1.0 + q))  # residue-expansion's r_k
            for kw in ({}, {"r_k": 0.3}, {"r_k": 0.5}, {"center": 0.5},
                       {"r_k": 0.15, "center": 0.5}, {"r_k": expanded, "margin": 0.5},
                       {"center": 0.7}, {"r_k": 0.3 * 0.7, "center": 0.7}):
                if kw.get("r_k", 0.0) >= kw.get("center", 1.0) * (1.0 - q):
                    continue  # the innermost circle would take in q eps
                assert _bits(nested_contours(k, q, **kw).circles) == \
                    _written_nested(k, q, **kw), (k, q, kw)
            for alpha in (0.0, 0.02, 0.1, min(0.1, q**4 / 2)):
                gap = 1.0 - alpha / q**k
                if gap <= 0:
                    continue
                default = 0.6 * min((1.0 - q) / (1.0 + q), gap)
                for radius in (None, default / 2) + ((expanded,) if alpha == 0 else ()):
                    cs = string_circle(q, k, alpha, radius=radius)
                    assert _bits(cs.circles) == _bits([Circle(1 + 0j, radius or default)]), \
                        (k, q, alpha, radius)
            for eps in (1.0, 0.5, 0.25, 0.0):
                assert _bits(single_gamma(q, k=k, eps=eps).circles) == _bits([Circle(0j, 1.5)] * k)
    assert _bits(string_circle(0.5, radius=0.3).circles) == _bits([Circle(1 + 0j, 0.3)])
    assert _bits(string_circle(0.25, radius=0.5).circles) == _bits([Circle(1 + 0j, 0.5)])
    for radius in (0.2, 0.4):
        assert _bits(string_circle(None, radius=radius).circles) == _bits([Circle(0j, radius)])

D = 1e-9  # how far inside or outside an inequality the boundary table's systems sit

# (circles, shape, q, refusal): each validity inequality of the three
# rules, met and missed by D, for both models (q None is the semi-discrete
# one).  The refusal is a fragment of the message, or
# None for a system that is accepted.
BOUNDARY_TABLE = [
    # nested, q-Boson: every circle contains eps = 1 ...
    ([Circle(1.2, 0.2 + D)], "nested", Q, None),
    ([Circle(1.2, 0.2 - D)], "nested", Q, "does not contain the point 1.0"),
    # ... circle 1 encloses q * circle 2: |1 - q| + q 0.1 < r_1 ...
    ([Circle(1.0, 0.55 + D), Circle(1.0, 0.1)], "nested", Q, None),
    ([Circle(1.0, 0.55 - D), Circle(1.0, 0.1)], "nested", Q,
     "does not contain the image of circle 2"),
    # ... and the innermost excludes q eps = 0.5
    ([Circle(1.0, 0.5 - D)], "nested", Q, None),
    ([Circle(1.0, 0.5 + D)], "nested", Q, "innermost circle contains 0.5"),
    # nested, semi-discrete: every circle contains 0 ...
    ([Circle(0.3, 0.3 + D)], "nested", None, None),
    ([Circle(0.3, 0.3 - D)], "nested", None, "does not contain the point 0.0"),
    # ... circle 1 encloses 1 + circle 2: 1 + 0.4 < r_1 ...
    ([Circle(0.0, 1.4 + D), Circle(0.0, 0.4)], "nested", None, None),
    ([Circle(0.0, 1.4 - D), Circle(0.0, 0.4)], "nested", None,
     "does not contain the image of circle 2"),
    # ... and the innermost excludes 0 + 1
    ([Circle(0.0, 1.0 - D)], "nested", None, None),
    ([Circle(0.0, 1.0 + D)], "nested", None, "innermost circle contains 1"),
    # string, q-Boson: coinciding copies centred at eps = 1 that clear
    # their q-image, r (1 + q) < 1 - q
    ([Circle(1.0, 1 / 3 - D)] * 2, "string", Q, None),
    ([Circle(1.0, 1 / 3 + D)] * 2, "string", Q, "string circle too large"),
    ([Circle(1.0, 0.1), Circle(1.0, 0.1 + D)], "string", Q, "must all coincide"),
    ([Circle(1.0 + D, 0.1)], "string", Q, "not at the marked point 1.0"),
    # string, semi-discrete: copies centred at 0 that clear their unit
    # shift, 2 r < 1; a centre off 0 is refused too
    ([Circle(0.0, 0.5 - D)] * 2, "string", None, None),
    ([Circle(0.0, 0.5 + D)] * 2, "string", None, "string circle too large"),
    ([Circle(0.0, 0.1), Circle(0.0, 0.1 + D)], "string", None, "must all coincide"),
    ([Circle(0.1, 0.2)], "string", None, "not at the marked point 0.0"),
    ([Circle(0.9, 0.2)], "string", None, "not at the marked point 0.0"),
    # single, q-Boson: the circle contains eps = 1 and its q-image, |c| < r
    ([Circle(0.0, 1.0 + D)], "single", Q, None),
    ([Circle(0.0, 1.0 - D)], "single", Q, "does not contain the point 1.0"),
    ([Circle(0.6, 0.6 + D)], "single", Q, None),
    ([Circle(0.6, 0.6 - D)], "single", Q, "its own q-image"),
]


def _boundary_id(i, row):
    """``circles<i>-<model and shape>-<q>-<refusal>``."""
    _, shape, q, refusal = row
    model_shape = {("nested", False): "qboson-nested", ("nested", True): "sd-nested",
                   ("single", False): "qboson-single", ("string", False): "string-product",
                   ("string", True): "sd-string-product"}[shape, q is None]
    return f"circles{i}-{model_shape}-{q}-{refusal}"


@pytest.mark.parametrize("circles,shape,q,refusal", BOUNDARY_TABLE,
                         ids=[_boundary_id(i, row) for i, row in enumerate(BOUNDARY_TABLE)])
def test_contour_rules_at_their_boundaries(circles, shape, q, refusal):
    if refusal is None:
        ContourSystem(tuple(circles), shape, q=q)
    else:
        with pytest.raises(ContourError, match=refusal):
            ContourSystem(tuple(circles), shape, q=q)


def test_image_under_the_step():
    c = Circle(0.5 + 0.25j, 0.1)
    assert string_circle(Q).image(c) == Circle((0.5 + 0.25j) * Q, 0.1 * Q)
    assert string_circle(None).image(c) == Circle(1.5 + 0.25j, 0.1)
    assert (string_circle(Q).mark, string_circle(None).mark) == (1.0, 0.0)


def test_default_inner_radius():
    assert default_inner_radius(0.5) == pytest.approx(0.1)
    assert default_inner_radius(0.9) == pytest.approx(0.025)


def test_quadrature_spec_validation():
    QuadratureSpec(16)
    for bad in (8, 100, 0):
        with pytest.raises(ValueError):
            QuadratureSpec(bad)


def test_residue_integrals():
    spec = QuadratureSpec(16)
    cs = ContourSystem((Circle(0.0, 1.2),), "single", q=Q)
    r = integrate(cs, lambda zs: 1.0 / zs[0], spec)
    assert r.value == pytest.approx(1.0, abs=1e-13)
    cs1 = nested_contours(1, Q, r_k=0.3)
    r = integrate(cs1, lambda zs: 1.0 / (1.0 - zs[0]), spec)
    assert r.value == pytest.approx(-1.0, abs=1e-13)


def test_two_fold_product_residue():
    # independent residues multiply across the product contour
    circles = (Circle(0.0, 1.2), Circle(0.0, 1.2))
    cs = ContourSystem(circles, "single", q=Q)
    r = integrate(cs, lambda zs: 1.0 / (zs[0] * zs[1]), QuadratureSpec(32))
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_integrand_nonfinite_detected():
    cs = ContourSystem((Circle(0.0, 1.2),), "single", q=Q)
    bad_node = cs.circles[0].nodes(16)[3]

    def bad(zs):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (zs[0] - bad_node)

    with pytest.raises(FloatingPointError):
        integrate(cs, bad, QuadratureSpec(16))


def test_exponential_error_decay():
    # analytic integrand with a pole 15% outside the circle: doubling the
    # node count must collapse the embedded error estimate by >= 1e3
    cs = nested_contours(2, Q, r_k=0.3)
    pole0 = 1.0 + 1.35 * cs.circles[0].radius
    pole1 = 1.0 + 1.35 * cs.circles[1].radius

    def f(zs):
        return ((1 - zs[0]) ** -2 * np.exp(zs[0]) / (zs[0] - pole0)
                * (1 - zs[1]) ** -2 * np.exp(zs[1]) / (zs[1] - pole1))

    e64 = integrate(cs, f, QuadratureSpec(64)).error_estimate
    e128 = integrate(cs, f, QuadratureSpec(128)).error_estimate
    assert e64 > 1e3 * e128
    v128 = integrate(cs, f, QuadratureSpec(128)).value
    v256 = integrate(cs, f, QuadratureSpec(256)).value
    assert abs(v128 - v256) < 1e-12 * (1 + abs(v256))


def test_phase_rotation_invariance():
    # the trapezoid rule is as accurate wherever its nodes start on a circle
    cs = nested_contours(2, Q, r_k=0.3)

    def f(zs):
        return (1 - zs[0]) ** -2 * (1 - zs[1]) ** -1 * np.exp(zs[0] * zs[1])

    def rule(phase, m=128):
        outer, inner = cs.circles
        zs = (outer.nodes(m, phase)[:, None], inner.nodes(m, phase)[None, :])
        return np.sum(f(zs) * outer.weights(m, phase)[:, None] * inner.weights(m, phase)[None, :])

    a, b = rule(0.0), rule(0.77)
    assert abs(a - b) <= 1e-10 * (1 + abs(a))
    c = integrate(cs, f, QuadratureSpec(128)).value  # per-axis offset nodes
    assert abs(a - c) <= 1e-10 * (1 + abs(a))


def test_axis_phase_offsets_distinct_nodes():
    cs = single_gamma(Q, k=3)
    nodes, _ = grid_nodes_weights(cs, QuadratureSpec(32))
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.min(np.abs(nodes[a][:, None] - nodes[b][None, :])) > 1e-4


def test_power_matrix_and_contract():
    rng = np.random.default_rng(0)
    base = rng.normal(size=5) + 1j * rng.normal(size=5) + 3.0
    P = power_matrix(base, -2, 3)
    for i, e in enumerate(range(-2, 4)):
        assert np.allclose(P[:, i], base**e)
    T = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    b2 = rng.normal(size=7) + 2.5
    R = contract_powers(T, [base, b2], (0, 1), (-1, 1))
    assert R.shape == (3, 3)
    for i, e1 in enumerate(range(-1, 2)):
        for j, e2 in enumerate(range(-1, 2)):
            brute = np.sum(T * base[:, None] ** e1 * b2[None, :] ** e2)
            assert abs(R[i, j] - brute) < 1e-10 * (1 + abs(brute))


def test_contract_powers_components_sharing_an_axis():
    # a string of length 2 on axis 0 (w and q w) and one component on axis 1,
    # listed out of axis order: R[e0, e1, e2] = sum T b0^e0 b1^e1 b2^e2
    rng = np.random.default_rng(1)
    w = rng.normal(size=6) + 1j * rng.normal(size=6) + 3.0
    v = rng.normal(size=4) + 1j * rng.normal(size=4) - 2.5
    T = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    bases = [1.0 - w, v, 1.0 - Q * w]
    lo, hi = -2, 1
    R = contract_powers(T, bases, (0, 1, 0), (lo, hi))
    assert R.shape == (hi - lo + 1,) * 3
    for e0 in range(lo, hi + 1):
        for e1 in range(lo, hi + 1):
            for e2 in range(lo, hi + 1):
                brute = np.sum(T * (bases[0] ** e0 * bases[2] ** e2)[:, None]
                               * (bases[1] ** e1)[None, :])
                got = R[e0 - lo, e1 - lo, e2 - lo]
                assert abs(got - brute) <= 1e-10 * (1 + abs(brute))


def test_describe_roundtrip():
    cs = nested_contours(2, Q)
    d = cs.describe()
    assert d["family"] == "nested"
    assert len(d["circles"]) == 2


def test_plan_nodes_doubles_from_16_to_the_first_count_that_meets_the_target():
    # a synthetic estimate 2^-M: 2^-16 > 1e-6 > 2^-32
    seen = []

    def evaluate(spec):
        seen.append(spec.nodes)
        return np.array([spec.nodes]), np.array([2.0 ** -spec.nodes])

    plan = plan_nodes(evaluate, 1e-6, ceiling=128)
    assert seen == [16, 32] and plan.nodes == 32 and plan.values[0] == 32
    seen.clear()
    plan = plan_nodes(evaluate, 0.0, ceiling=64)
    assert seen == [16, 32, 64] and plan.nodes == 64 and plan.estimates[0] == 2.0 ** -64
    seen.clear()
    assert plan_nodes(evaluate, 0.0, ceiling=16).nodes == 16 and seen == [16]
    for ceiling in (48, 8):
        with pytest.raises(ValueError, match="power of two >= 16"):
            plan_nodes(evaluate, 1e-6, ceiling=ceiling)
