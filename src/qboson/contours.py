"""Contour systems and spectrally accurate quadrature on products of circles.

The transforms and moment formulas are k-fold integrals over nested circles
whose validity rests on a handful of containment inequalities.  Contour
systems are built here and validated before use.  A system is the one
source of q, of the marked point eps (the eps-deformed system is the
q-Boson family at eps) and of the model (q None is the semi-discrete one,
as in `qcore.step`) for every evaluator on it; its family is a shape,
nested, single or string, with one rule for both models, and is the
evaluation mode of the inverse transform.  `nested_contours` and
`string_circle` draw both models' circles from the step.  `integrate`
evaluates the k-fold product trapezoidal rule (geometrically convergent
for integrands analytic near the circles) with an embedded-subgrid error
estimate; `plan_nodes` doubles a node count until its error estimate,
the one extrapolation of the half-grid differences, meets a target; and
`contract_powers` is the one batched kernel that evaluates a grid
integrand against many integer powers of its one-particle bases at once; every
transform table (inverse transform, identity resolution, pairings, the
spectral orthogonality window) goes through it.  Several components may
share a grid axis, as the components of one spectral string do.
`_grid_chunks` is the one walk over a product grid that every grid evaluator
shares, in slabs of at most CHUNK_ELEMENTS = 2^18 nodes: 4 MB per complex
array, under glibc's 32 MB mmap ceiling, so freed slab arrays are reused.
`half_grid_sums` sums integrands over it for `integrate` and both residue
sides, with the half-grid difference and rounding bound the planner reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from qboson.qcore import check_domain, check_q, marked_point, step

CONTOUR_FAMILIES = ("nested", "single", "string")


class ContourError(ValueError):
    """A contour system fails one of its validity conditions."""


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def contains_point(self, p: complex) -> bool:
        return abs(p - self.center) < self.radius

    def encloses(self, other: "Circle") -> bool:
        """True if this circle strictly contains the other."""
        return abs(self.center - other.center) + other.radius < self.radius

    def nodes(self, m: int, phase: float = 0.0) -> np.ndarray:
        theta = phase + 2.0 * np.pi * np.arange(m) / m
        return self.center + self.radius * np.exp(1j * theta)

    def weights(self, m: int, phase: float = 0.0) -> np.ndarray:
        """Per-node weights realizing dz/(2 pi i) on this circle."""
        theta = phase + 2.0 * np.pi * np.arange(m) / m
        return self.radius * np.exp(1j * theta) / m


def _step_gap(mark: float, q: float | None) -> tuple[float, float]:
    """|step(mark) - mark| and the slope (q, or 1) of the affine step; the
    gap is |(slope - 1) mark + step(0)|, which rounds as mark (1 - q)."""
    slope = step(1.0, 1, q) - step(0.0, 1, q)
    return abs((slope - 1.0) * mark + step(0.0, 1, q)), slope


@dataclass(frozen=True)
class ContourSystem:
    """Validated circles of one shape, and the one source of the q, the
    marked point eps and the model that every evaluator on them reads.

    q None is the semi-discrete model (`qcore.step`): it steps z -> z + 1,
    marks 0 and has no eps; a q-Boson q steps z -> qz and marks eps (1 by
    default, the eps-deformed system otherwise).  One rule per shape, for
    both models.  nested: every circle contains the mark, gamma_A encloses
    the image of gamma_B under the step for A < B, and the innermost
    excludes step(mark).  string: copies of one small circle centred at the
    mark that clears its own image.  single: its circle contains the mark
    and its own image (which no semi-discrete circle can).
    """

    circles: tuple[Circle, ...]
    family: str
    q: float | None
    eps: float = 1.0

    def __post_init__(self):
        if self.family not in CONTOUR_FAMILIES:
            raise ContourError(f"unknown contour family {self.family!r}")
        self.validate()

    @property
    def k(self) -> int:
        return len(self.circles)

    @property
    def model(self) -> str:
        """The eigenfunction model, read from q as `qcore.step` reads it:
        "sd" at q None, "qboson" otherwise."""
        return "sd" if self.q is None else "qboson"

    @property
    def mark(self) -> float:
        """The marked point (`marked_point`): eps, or 0 for the semi-discrete model."""
        return marked_point(self.eps, self.q)

    def step(self, z, j: int = 1):
        return step(z, j, self.q)

    def image(self, c: Circle) -> Circle:
        """The circle's image under the step, an affine map of slope q or 1."""
        return Circle(self.step(c.center), c.radius * (self.step(1.0) - self.step(0.0)))

    def validate(self) -> None:
        check_domain(self.q, self.eps, self.model, ContourError)
        cs, mark = self.circles, self.mark
        if self.family == "nested":
            for j, c in enumerate(cs):
                if not c.contains_point(mark):
                    raise ContourError(f"circle {j+1} does not contain the point {mark}")
            for a in range(len(cs)):
                for b in range(a + 1, len(cs)):
                    if not cs[a].encloses(self.image(cs[b])):
                        raise ContourError(f"circle {a+1} does not contain the image of "
                                           f"circle {b+1} under the step")
            if cs[-1].contains_point(self.step(mark)):
                raise ContourError(f"innermost circle contains {self.step(mark)}")
        elif self.family == "single":
            c = cs[0]
            if not c.contains_point(mark):
                raise ContourError(f"circle does not contain the point {mark}")
            if not c.encloses(self.image(c)):
                raise ContourError("circle does not contain its own q-image (needs |center| < radius)")
        else:
            # Copies of one small circle around the marked point, the domain
            # of the partition-expanded (string) integrals, clear of its own
            # image so that string components never collide across axes.
            c0 = cs[0]
            if any(c != c0 for c in cs):
                raise ContourError("string circles must all coincide")
            if c0.center != mark:
                raise ContourError(f"string circle centred at {c0.center}, not at the "
                                   f"marked point {mark}")
            image = self.image(c0)
            if abs(c0.center - image.center) <= c0.radius + image.radius:
                raise ContourError("string circle too large: it meets its image under the step")

    def describe(self) -> dict:
        return {
            "family": self.family,
            "q": self.q,
            "eps": self.eps,
            "circles": [[c.center.real, c.center.imag, c.radius] for c in self.circles],
        }


def default_inner_radius(q: float, eps: float = 1.0) -> float:
    """Innermost radius min(0.1, (1-q)/4), scaled by the marked point eps.

    The (1-q)/4 cap keeps w q^{lam} far from the innermost circle so the
    string-measure determinant never degenerates on quadrature nodes.
    """
    return eps * min(0.1, (1.0 - q) / 4.0)


def nested_contours(
    k: int,
    q: float | None,
    r_k: float | None = None,
    margin: float | None = None,
    center: float = 1.0,
) -> ContourSystem:
    """Nested circles about the marked point (eps = ``center``, or 0 at q None).

    Radii satisfy r_j = |step(mark) - mark| + slope r_{j+1} + margin going
    outward (center (1-q) + q r_{j+1} + margin, or r_{j+1} + 1 + margin),
    the minimal growth that keeps step(gamma_{j+1}) strictly inside gamma_j.
    The margin is also the closest approach of the kernel poles z_A =
    step(z_B) to the circles, hence it controls the trapezoid convergence
    rate.  The defaults are the q-Boson model's: `default_inner_radius` and
    margin 0.3 center (1-q), which keeps 128 nodes comfortably past 1e-9;
    they stay while the benchmark worker's quadrature probe
    (perfbench/worker.py) calls ``nested_contours(3, q)``.
    """
    if q is not None:
        check_q(q)
    if center <= 0:
        raise ContourError("contour center must be positive")
    if r_k is None:
        r_k = default_inner_radius(q, center)
    if margin is None:
        margin = 0.3 * center * (1.0 - q)
    if not (0 < r_k):
        raise ContourError("innermost radius must be positive")
    if margin <= 0:
        raise ContourError("margin must be positive")
    mark = marked_point(center, q)
    gap, slope = _step_gap(mark, q)
    radii = [r_k]
    for _ in range(k - 1):
        radii.append(gap + slope * radii[-1] + margin)
    radii.reverse()
    circles = tuple(Circle(complex(mark), r) for r in radii)
    return ContourSystem(circles, "nested", q=q, eps=center)


def string_circle(q: float | None, k: int = 1, alpha: float = 0.0,
                  radius: float | None = None, center: float = 1.0) -> ContourSystem:
    """The one small circle of a string expansion at k, as a validated
    one-circle string system about the marked point (eps = ``center``, or
    0 at q None).  Below |step(mark) - mark| / (1 + slope), center
    (1-q)/(1+q) or 1/2, it clears its own image, and below
    mark - alpha/q^k the strings q^j w, j < k, clear the pole alpha/q (the
    semi-discrete model has no alpha); by default its radius is 0.6 times
    the smaller bound.
    """
    if q is not None:
        check_q(q)
    elif alpha != 0:
        raise ContourError("the semi-discrete string circle has no pole alpha")
    if center <= 0:
        raise ContourError("contour center must be positive")
    mark = marked_point(center, q)
    step_gap, slope = _step_gap(mark, q)
    # how far the mark lies from alpha/q^k, where q^{k-1} w meets alpha/q
    gap = math.inf if q is None else mark - alpha / q**k
    if radius is None:
        radius = 0.6 * min(step_gap / (1.0 + slope), gap)
    if radius >= gap:
        raise ContourError(f"string circle of radius {radius} reaches the pole: "
                           f"its strings meet alpha/q at |w - {mark:g}| = {gap}")
    return ContourSystem((Circle(complex(mark), radius),), "string", q=q, eps=center)


def single_gamma(q: float, k: int = 1, eps: float = 1.0) -> ContourSystem:
    """One circle (repeated k times) around 0 containing the marked point.

    Center 0, radius 1.5: it contains 0 and the marked point eps <= 1 and
    its own q-image, since |center| < radius.
    """
    circles = tuple(Circle(0.0 + 0.0j, 1.5) for _ in range(k))
    return ContourSystem(circles, "single", q=q, eps=eps)


def gamma_prime(inner: ContourSystem) -> Circle:
    """Outer circle of radius 4 with min |p - w| on it exceeding max |p - z|
    on the inner one.

    For inner radius 1.5 around 0 and any marked point p in [0, 1], radius 4
    gives min |p - w| >= 3 > 2.5 >= max |p - z|.
    """
    c = inner.circles[0]
    if 4.0 <= abs(c.center) + c.radius:
        raise ContourError("outer circle must contain the inner one")
    return Circle(c.center, 4.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Node count per circle (power of two, >= 16)."""

    nodes: int = 128

    def __post_init__(self):
        m = self.nodes
        if m < 16 or (m & (m - 1)) != 0:
            raise ValueError("nodes must be a power of two >= 16")


def default_nodes(k: int) -> int:
    """Ceiling on the node count per circle of a planned k-fold integral:
    128 for k <= 3, 64 for k = 4 (cost M^k).  `plan_nodes` doubles up to
    it and no further."""
    return 128 if k <= 3 else 64


class NodePlan(NamedTuple):
    """The node count `plan_nodes` chose, with that evaluation's per-integral
    values and the planner's error estimate of each."""

    nodes: int
    values: np.ndarray
    estimates: np.ndarray


def plan_nodes(evaluate: Callable[[QuadratureSpec], tuple[np.ndarray, np.ndarray, np.ndarray]],
               target: float, ceiling: int) -> NodePlan:
    """The quadrature planner: the smallest M = 16, 32, ... (capped at
    ``ceiling``) whose worst error estimate is at most ``target``.

    ``evaluate(spec)`` returns, for a batch of integrals at spec.nodes per
    axis, the values, the plain embedded half-grid difference d (what
    doubling from M/2 to M changed, about the error at M/2) and a rounding
    bound rho (eps sum|T| over the integrand's terms).  The trapezoid rule on
    circles converges geometrically (Trefethen & Weideman, SIAM Review 56,
    2014), so each doubling squares the error, and d far overstates the
    error at M.  This is the one place where d is extrapolated.  Keeping the
    d of the counts already evaluated, the estimate of each integral is d
    where d < 100 rho (there d measures rounding, which doubling does not
    square), and otherwise the least of
      d;
      d^2/|value|, the squared error on the value's scale, from M = 32 on;
      max(d r^2, rho), from M = 64 on, where the rate r = d_M / d_{M/2}
        is at most min(1, r_prev^2), r_prev = d_{M/2} / d_{M/4}: the
        differences fall at least as fast as a geometric rate predicts.
    The value-scaled step alone barely extrapolates small values, and the
    rate step alone is slower; taken at M = 16 already, the value-scaled
    step stops the k = 1 moment at t = 0.2 with an error of 6.6e-12.  The
    r_prev guard keeps the rate step off differences that do not yet fall
    geometrically.  Replayed on the 1,560 moment and transition calls of the
    benchmark's moment-queries rounds at seeds 1-20 (one core of a shared
    2-core machine), the rule stopped no call above its 1e-10 target (worst
    scaled error 3.6e-11 against perfbench's oracles), with a median round
    of 0.20 s, against 0.23 s for the value-scaled step alone and 0.44 s
    for the rate step alone.

    `plan_nodes` only chooses M: the values it returns are those of
    ``evaluate`` at the returned M, unchanged.  At the ceiling it returns
    that evaluation whatever its estimate.
    """
    QuadratureSpec(ceiling)  # raises unless a power of two >= 16
    m, ds = 16, []
    while True:
        values, d, rounding = evaluate(QuadratureSpec(m))
        ds.append(d)
        estimates = d
        if len(ds) >= 2:
            mag = np.abs(values)
            estimates = np.minimum(estimates, np.maximum(np.divide(
                d * d, mag, out=np.full_like(d, np.inf), where=mag > 0), rounding))
        if len(ds) >= 3:
            # nan where a difference before is 0: no rate, no rate step
            r, r_prev = (np.divide(a, b, out=np.full_like(a, np.nan), where=b > 0)
                         for a, b in ((ds[-1], ds[-2]), (ds[-2], ds[-3])))
            geometric = r <= np.minimum(1.0, r_prev * r_prev)
            estimates = np.where(geometric, np.minimum(
                estimates, np.maximum(d * r * r, rounding)), estimates)
        estimates = np.where(d < 100.0 * rounding, d, estimates)
        if m >= ceiling or np.max(estimates) <= target:
            return NodePlan(m, values, estimates)
        m *= 2


@dataclass
class QuadResult:
    value: complex
    error_estimate: float

    def __complex__(self):
        return complex(self.value)


def grid_nodes_weights(cs: ContourSystem, spec: QuadratureSpec):
    """Per-axis node and weight vectors (weights realize dz_j / (2 pi i)).

    Each axis gets a small distinct phase offset (a j/(k+1) fraction of the
    node spacing) so that repeated circles never share a node: factored
    integrands with removable diagonal singularities then stay finite on
    every node, while the trapezoid rule's accuracy on each axis is
    unchanged (it is phase-invariant for analytic integrands).
    """
    m = spec.nodes
    k = cs.k
    spacing = 2.0 * math.pi / m
    nodes, weights = [], []
    for j, c in enumerate(cs.circles):
        phase = spacing * j / (k + 1.0)
        nodes.append(c.nodes(m, phase))
        weights.append(c.weights(m, phase))
    return nodes, weights


def _axis_view(v: np.ndarray, axis: int, k: int) -> np.ndarray:
    shape = [1] * k
    shape[axis] = v.size
    return v.reshape(shape)


CHUNK_ELEMENTS = 1 << 18  # nodes per slab: 4 MB complex arrays, below glibc's 32 MB mmap ceiling


def _grid_chunks(cs: ContourSystem, spec: QuadratureSpec):
    """Yield (zs, W) for slabs of the product grid cut along axis 0.

    ``zs`` holds the k node arrays shaped for broadcasting, axis 0 cut to the
    slab, and ``W`` the weight tensor dz_1 ... dz_k / (2 pi i)^k on the slab.
    A slab holds at most CHUNK_ELEMENTS nodes, but never fewer than two
    axis-0 nodes (k = 4, M = 64: 2 M^3).  Both counts are powers of two, so
    every slab starts at an even node: the embedded half grid (every second
    node on each axis) is the union of the slabs' own half grids.
    """
    k, m = cs.k, spec.nodes
    nodes, weights = grid_nodes_weights(cs, spec)
    rest_z = [_axis_view(nodes[j], j, k) for j in range(1, k)]
    chunk = max(2, min(m, CHUNK_ELEMENTS // m ** (k - 1)))
    for start in range(0, m, chunk):
        cut = slice(start, start + chunk)
        W = _axis_view(weights[0][cut], 0, k)
        for j in range(1, k):
            W = W * _axis_view(weights[j], j, k)
        yield [_axis_view(nodes[0][cut], 0, k)] + rest_z, W


def half_grid_sums(terms: Iterable[tuple[tuple, np.ndarray]], Fs: Sequence[Callable]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum of weight * F(args) over the (args, weight) grids of ``terms``,
    for each F of a batch, with the two error figures `plan_nodes` reads:
    the embedded half-grid difference d = |full - half x 2^axes| over every
    second node of each axis (what doubling from M/2 to M changed), and the
    rounding bound eps sum|weight * F|.  The bound takes sum|.| on the half
    grid, scaled by 2^axes like the half sum, so it costs 1/2^axes of a
    pass.  Raises FloatingPointError when a sum is not finite."""
    totals = np.zeros(len(Fs), dtype=complex)
    coarse = np.zeros(len(Fs), dtype=complex)
    scale = np.zeros(len(Fs))
    for args, weight in terms:
        half = (slice(None, None, 2),) * weight.ndim
        for i, fn in enumerate(Fs):
            # weight first, always: swapping a complex product's operands
            # can change its last bit
            weighted = weight * fn(args)
            coarse_terms = weighted[half]
            totals[i] += weighted.sum()
            coarse[i] += coarse_terms.sum() * 2**weight.ndim
            scale[i] += np.abs(coarse_terms).sum() * 2**weight.ndim
    if not np.all(np.isfinite(totals)):
        raise FloatingPointError("integrand returned a non-finite value on a quadrature node")
    return totals, np.abs(totals - coarse), np.finfo(float).eps * scale


def integrate(cs: ContourSystem, integrand: Callable, spec: QuadratureSpec) -> QuadResult:
    """k-fold product trapezoidal rule over the contour system, with
    `half_grid_sums`' plain half-grid difference as its error estimate.
    ``integrand`` receives k arrays (one per circle) already shaped for
    broadcasting and must return the integrand on their broadcast product;
    it must be safe to call on array chunks.
    """
    (value,), (estimate,), _ = half_grid_sums(
        ((tuple(zs), W) for zs, W in _grid_chunks(cs, spec)), [integrand])
    return QuadResult(value, estimate)


def power_matrix(base: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Matrix P[m, e - lo] = base[m] ** e for integer exponents lo..hi."""
    if hi < lo:
        raise ValueError("need lo <= hi")
    m = base.size
    out = np.empty((m, hi - lo + 1), dtype=complex)
    out[:, 0] = base ** lo
    for e in range(1, hi - lo + 1):
        out[:, e] = out[:, e - 1] * base
    return out


def contract_powers(tensor: np.ndarray, bases: Sequence[np.ndarray], axis_of: Sequence[int],
                    erange: tuple[int, int]) -> np.ndarray:
    """Contract a grid tensor against integer powers lo..hi of its components.

    Component m has the base vector ``bases[m]``, raveled along grid axis
    ``axis_of[m]``; several components may share an axis.  Returns R with
    R[e_1 - lo, ..., e_k - lo] = sum_grid tensor * prod_m bases[m] ** e_m.

    This turns "integrate one grid integrand against many integer
    exponents" into one matrix product per grid axis, the workhorse of the
    batched transform evaluations.  The components on one axis are
    contracted jointly, through the column-wise Kronecker product of their
    power matrices; each tensordot consumes one grid axis and appends that
    axis's exponent axes at the end, so they come out in reverse axis order.
    """
    lo, hi = erange
    k = len(bases)
    if len(axis_of) != k:
        raise ValueError("need one grid axis per component")
    out = tensor
    comp_order: list[int] = []
    for s in range(tensor.ndim - 1, -1, -1):
        members = [m for m in range(k) if axis_of[m] == s]
        P = None
        for m in members:
            Pm = power_matrix(np.asarray(bases[m], dtype=complex), lo, hi)
            P = Pm if P is None else (P[:, :, None] * Pm[:, None, :]).reshape(P.shape[0], -1)
        out = np.tensordot(out, P, axes=([s], [0]))
        comp_order.extend(members)
    out = out.reshape([hi - lo + 1] * k)
    return np.transpose(out, axes=[comp_order.index(m) for m in range(k)])
