"""Named verification checks: each turns one theorem-level identity into
deterministic numerical comparisons.

A check takes an Accumulator ``acc`` first and records its comparisons
there; its other keywords, ``tolerance`` and (only where it draws random
numbers) ``seed`` among them, are knobs that it reads.  It builds no
report: `registry.run_check` binds the knobs, makes
the Accumulator and finishes the report, whose params are those knobs
under their own names, so ``--param`` replays them.  A check may add
further entries to ``acc.params`` (contours, quadrature choices).

The checks that the transform pair resolves the identity, T = I, on some
contours and for some model (plancherel-forward, biorthogonality-spatial,
eps-plancherel, sd-plancherel, sd-biorthogonality) are lists of legs for
one runner, `identity_tables`."""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily: at import, not on the first draw

from qboson.contours import QuadratureSpec
from qboson.plancherel import composition_table
from qboson.qcore import WeylVector, weyl_vectors_in_box
from qboson.report import Accumulator


def identity_tables(acc: Accumulator, legs, nodes: int, tolerance: float) -> None:
    """The transform pair resolves the identity on each leg (label, contour
    system, k, lo, hi): the `composition_table` T over the states of the
    box lo <= n_k <= n_1 <= hi is the unit matrix.

    Legs run in order.  Each records its worst entry as T[x, y] - delta_xy
    against 0, under "<label> worst x=... y=...", so a diagonal entry meets
    the same gate as any other, and its circles under
    params["contours"][label], so labels must differ."""
    labels = [leg[0] for leg in legs]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"identity-table legs share the labels {repeated}")
    spec = QuadratureSpec(nodes)
    used = acc.params.setdefault("contours", {})
    for label, cs, k, lo, hi in legs:
        states = list(weyl_vectors_in_box(k, lo, hi))
        resid = composition_table(states, cs, spec) - np.eye(len(states))
        x, y = np.unravel_index(np.argmax(np.abs(resid)), resid.shape)
        acc.add(f"{label} worst x={states[x].coords} y={states[y].coords}", resid[x, y], 0.0,
                tolerance)
        used[label] = cs.describe()["circles"]


def random_weyl(rng: np.random.Generator, k: int, lo: int = -6, hi: int = 6) -> WeylVector:
    """Random chamber point: each coordinate ties its neighbour with
    probability 0.35, a healthy rate of coordinate ties."""
    coords = []
    val = int(rng.integers(lo, hi + 1))
    coords.append(val)
    for _ in range(k - 1):
        if rng.random() < 0.35:
            coords.append(coords[-1])
        else:
            coords.append(coords[-1] - int(rng.integers(1, 4)))
    return WeylVector(tuple(coords))


def random_spectral(rng: np.random.Generator, k: int, center: complex = 1.0,
                    rmin: float = 0.4, rmax: float = 1.6) -> list[complex]:
    """Random points in an annulus around the family's excluded point,
    pairwise well separated."""
    while True:
        r = rng.uniform(rmin, rmax, size=k)
        th = rng.uniform(0, 2 * np.pi, size=k)
        z = center + r * np.exp(1j * th)
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                if abs(z[i] - z[j]) < 0.05:
                    ok = False
        if ok:
            return [complex(v) for v in z]
