"""What each workload runs: check ids, or the moment and transition queries.

The three verify-* workloads split the registered checks between them, so
together they run each check once, except those in LEFT_OUT.  moment-queries
issues calls the way ``qboson moments`` and ``qboson transition`` do, at
q = 0.5; its inputs come from the seed, except the known-fault queries, which
are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VERIFY_WORKLOADS = {
    "verify-spectral": (
        "eigen-relation", "boundary-conditions", "pt-invariance", "extended-operator",
        "identity-mqinverse", "identity-halfstat-transform",
        "eps-deriv-relation", "hl-identification", "cauchy-littlewood", "sd-eigen",
    ),
    "verify-transforms": (
        "plancherel-forward", "plancherel-dual", "plancherel-pairing",
        "biorthogonality-spatial", "orthogonality-spectral", "residue-expansion",
        "residue-weight", "measure-consistency", "backward-solver", "forward-solver",
        "transition-prob", "eps-plancherel", "eps-orthogonality", "sd-plancherel",
        "sd-biorthogonality",
    ),
    "verify-montecarlo": ("moment-step", "moment-half", "oy-simulate"),
}
WORKLOADS = tuple(VERIFY_WORKLOADS) + ("moment-queries",)
# Operations of a verify-* workload that are not registered checks: the
# sampler that sd-moment drives, called with that check's own arguments
# (oy_simulate(2, t, dt, paths, seed=seed + 5)) and checked by the benchmark.
SAMPLERS = {"oy-simulate": {"N": 2, "t": 1.0, "dt": 1e-3, "paths": 100_000}}
ALL_CHECKS = tuple(c for ids in VERIFY_WORKLOADS.values() for c in ids if c not in SAMPLERS)
# Checks that fail on some seeds; a run that held one would fail at random,
# so no workload runs them until they are mended:
# - identity-qbinomial, on about one seed in eighty: at k = 5 its sum of 2^k
#   terms loses more than its fixed 1e-10 tolerance to cancellation;
# - sd-moment, on about one seed in a hundred: the Euler scheme's mean of
#   Z(1, 2) sits about 1.6 standard errors above the exact value at every
#   seed, so the 4-sigma test fails whenever the noise adds 2.4 more.
LEFT_OUT = ("identity-qbinomial", "sd-moment")

# eigen-relation, boundary-conditions and eps-deriv-relation draw particle
# numbers from the seed, so one verify-spectral round costs 16-25 s depending
# on the seed; three rounds at three seeds, with each check's median time
# taken over them, keep one dear seed from moving wall_s.
MIN_ROUNDS = {"verify-spectral": 3}


def round_seed(seed: int, r: int) -> int:
    """Seed of round r of a run: the run's seed itself, then seeds far from it."""
    return seed + 1_000_000 * r


HALF_ALPHA = 0.02
T_RANGE = (0.25, 1.5)

# Fixed queries that fail today through the hard-coded contours of
# dynamics.moment_contours (r_k = 0.2, margin = 0.1).  At k = 3 the outermost
# circle has radius 0.95 about 1: it takes in the pole alpha/q = 0.2 for
# alpha = 0.1 (ContourError), and passes 0.05 from the pole 0 of step data and
# 0.01 from alpha/q = 0.04, so 128 nodes miss the exact value.  They count as
# failed operations until that fault is mended, and are checked by the same
# oracle as every other moment once they return a value.
KNOWN_FAULT = "dynamics.moment_contours hard-codes r_k=0.2, margin=0.1"
FAULT_QUERIES = (
    ("step", (2, 1, 1), 0.5, 0.0),
    ("half", (3, 2, 1), 0.5, HALF_ALPHA),
    ("half", (3, 2, 1), 0.5, 0.1),
    ("half", (2, 1, 1), 1.0, 0.1),
)


@dataclass(frozen=True)
class Query:
    kind: str  # "step" | "half" | "sd" | "transition"
    t: float
    n: tuple[int, ...] = ()  # moment indices
    alpha: float = 0.0
    source: tuple[int, ...] = ()  # transition y -> x
    target: tuple[int, ...] = ()
    known_fault: str | None = None

    @property
    def label(self) -> str:
        if self.kind == "transition":
            return f"transition {self.source}->{self.target} t={self.t:.4f}"
        alpha = f" alpha={self.alpha}" if self.kind == "half" else ""
        return f"{self.kind} n={self.n} t={self.t:.4f}{alpha}"


def _weyl(rng, k: int, lo: int, hi: int) -> tuple[int, ...]:
    """Weakly decreasing k-tuple with entries in [lo, hi]."""
    return tuple(int(v) for v in sorted(rng.integers(lo, hi + 1, size=k), reverse=True))


def _times(rng, count: int) -> list[float]:
    return [float(t) for t in rng.uniform(*T_RANGE, size=count)]


def moment_queries(seed: int) -> list[Query]:
    """One round: 78 queries, the same kinds and sizes for every seed.

    The seed draws the times, the moment indices and the transition
    endpoints; what a call costs depends on k and the node count only.
    """
    rng = np.random.default_rng(seed)
    out: list[Query] = []
    for kind, alpha in (("step", 0.0), ("half", HALF_ALPHA)):
        out += [Query(kind, t, (1,), alpha) for t in _times(rng, 4)]
        for _ in range(3):
            n = _weyl(rng, 2, 1, 4)
            out += [Query(kind, t, n, alpha) for t in _times(rng, 4)]
    for t in _times(rng, 4):
        out.append(Query("sd", t, (int(rng.integers(1, 6)),)))
    for _ in range(3):
        n = _weyl(rng, 2, 1, 4)
        out += [Query("sd", t, n) for t in _times(rng, 4)]
    for _ in range(4):
        n = _weyl(rng, 3, 1, 3)
        out += [Query("sd", t, n) for t in _times(rng, 2)]
    for k, pairs, per_pair in ((1, 2, 2), (2, 3, 4), (3, 1, 2)):
        for _ in range(pairs):
            y = _weyl(rng, k, -2, 3)
            x = tuple(yi - int(d) for yi, d in zip(y, rng.integers(0, 3, size=k)))
            x = tuple(sorted(x, reverse=True))  # still coordinatewise <= y
            out += [Query("transition", t, source=y, target=x) for t in _times(rng, per_pair)]
    out += [Query(kind, t, n, alpha, known_fault=KNOWN_FAULT)
            for kind, n, t, alpha in FAULT_QUERIES]
    return out
