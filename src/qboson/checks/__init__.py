"""Named verification checks: each turns one theorem-level identity into
deterministic numerical comparisons.

A check takes an Accumulator ``acc`` first and records its comparisons
there; its other keywords, ``tolerance`` and ``seed`` among them, are its
knobs.  It builds no report: `registry.run_check` binds the knobs, makes
the Accumulator and finishes the report, whose params are those knobs
under their own names, so ``--param`` replays them.  A check may add
further entries to ``acc.params`` (contours, quadrature choices)."""

from __future__ import annotations

import numpy as np

from qboson.qcore import WeylVector


def random_weyl(rng: np.random.Generator, k: int, lo: int = -6, hi: int = 6,
                tie_prob: float = 0.35) -> WeylVector:
    """Random chamber point with a healthy rate of coordinate ties."""
    coords = []
    val = int(rng.integers(lo, hi + 1))
    coords.append(val)
    for _ in range(k - 1):
        if rng.random() < tie_prob:
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
