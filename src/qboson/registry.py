"""Registry of all named verification checks, and the one place where
their reports are made.

Every check id maps to exactly one verified identity, recorded as a
self-contained claim string, together with the check's function.  That
function takes an Accumulator ``acc`` first and records its comparisons
in it; its other keywords, ``tolerance`` and (only where it draws random
numbers) ``seed`` among them, are the check's knobs, and their defaults
are the check's defaults.  `run_check` binds overrides to those keywords,
refusing any other name, runs the check on a fresh Accumulator and
finishes its report.  The report's params are every bound keyword but
``seed``, so passing them back to `run_check` with the report's seed
(None for a deterministic check) replays the run.
"""

from __future__ import annotations

import inspect
import numbers
import os
import time
from dataclasses import dataclass
from typing import Callable

from qboson.checks import degeneration_checks as dg
from qboson.checks import dynamics_checks as dy
from qboson.checks import plancherel_checks as pl
from qboson.checks import spectral as sp
from qboson.report import REJECTIONS, Accumulator, Report, error_report, rejection_reason


@dataclass(frozen=True)
class CheckDef:
    fn: Callable[..., None]
    claim: str


REGISTRY: dict[str, CheckDef] = {
    "eigen-relation": CheckDef(
        sp.check_eigen_relation,
        "generator applied to each eigenfunction family returns eigenvalue "
        "(q-1) sum z_i (q-Boson, at eps = 1 and at eps) or sum (z_i - 1) (semi-discrete)",
    ),
    "boundary-conditions": CheckDef(
        sp.check_boundary_conditions,
        "two-body boundary residuals of the eigenfunctions vanish on every diagonal",
    ),
    "pt-invariance": CheckDef(
        sp.check_pt_invariance,
        "backward generator equals (R C) forward (R C)^{-1} on symmetric state boxes",
    ),
    "extended-operator": CheckDef(
        sp.check_extended_operator,
        "the whole-lattice operator with tie corrections reproduces the "
        "eigenrelation on symmetric extensions (ties in adjacent slots)",
    ),
    "plancherel-forward": CheckDef(
        pl.check_plancherel_forward,
        "inverse transform of the forward transform resolves deltas in all "
        "three evaluation modes",
    ),
    "plancherel-dual": CheckDef(
        pl.check_plancherel_dual,
        "forward transform of the inverse transform fixes symmetric Laurent "
        "monomials at spectral points, with certified spatial truncation",
    ),
    "plancherel-pairing": CheckDef(
        pl.check_plancherel_pairing,
        "spatial pairing <f,g> equals the spectral pairing of the intertwined "
        "transforms <F(Pf), Fg>",
    ),
    "biorthogonality-spatial": CheckDef(
        pl.check_biorthogonality_spatial,
        "spectral pairing of left and right eigenfunctions is delta_{n,m}",
    ),
    "orthogonality-spectral": CheckDef(
        pl.check_orthogonality_spectral,
        "spatial sum of paired eigenfunction integrals collapses to the "
        "antisymmetrized single integral (spectral orthogonality)",
    ),
    "residue-expansion": CheckDef(
        pl.check_residue_expansion,
        "nested contour integral of the scattering kernel equals its "
        "partition expansion over geometric strings",
    ),
    "residue-weight": CheckDef(
        pl.check_residue_weight,
        "iterated string residue of the scattering kernel equals the "
        "Cauchy-determinant closed form",
    ),
    "measure-consistency": CheckDef(
        pl.check_measure_consistency,
        "all printed normalizations of the string measure agree (exponent "
        "bookkeeping cancels as the partition size is fixed)",
    ),
    "backward-solver": CheckDef(
        dy.check_backward_solver,
        "spectral backward solution matches the single-particle Poisson "
        "chain and the triangular matrix-exponential oracle",
    ),
    "forward-solver": CheckDef(
        dy.check_forward_solver,
        "spectral forward solution matches the matrix-exponential oracle",
    ),
    "transition-prob": CheckDef(
        dy.check_transition_prob,
        "spectral transition kernel matches uniformization, is nonnegative, "
        "and sums to unit mass",
    ),
    "moment-step": CheckDef(
        dy.check_moment_step,
        "step-data moment formula equals the backward solution and the "
        "q-TASEP simulation, with the k=1 exponential closed form",
    ),
    "moment-half": CheckDef(
        dy.check_moment_half,
        "half-stationary moment formula equals the backward solution and "
        "the q-TASEP simulation with q-geometric gaps",
    ),
    "identity-mqinverse": CheckDef(
        dy.check_identity_mqinverse,
        "S_m sum of strict-pair 1/q-shifted scattering ratios equals m!_{1/q}",
    ),
    "identity-qbinomial": CheckDef(
        dy.check_identity_qbinomial,
        "subset-split q-binomial expansion with the |I|-dependent weight "
        "equals prod (1 - alpha/q^l)",
    ),
    "identity-halfstat-transform": CheckDef(
        dy.check_identity_halfstat,
        "forward transform of the half-stationary data telescopes to "
        "(-1)^k q^{k(k-1)/2} prod (1-z_j)/(z_j - alpha/q)",
    ),
    "eps-plancherel": CheckDef(
        dg.check_eps_plancherel,
        "eps-deformed transform pair (the q-Boson pair at marked point eps) resolves deltas",
    ),
    "eps-orthogonality": CheckDef(
        dg.check_eps_orthogonality,
        "spectral orthogonality holds with flat residual across eps in {0, 0.25, 0.5, 1}",
    ),
    "eps-deriv-relation": CheckDef(
        dg.check_eps_deriv_relation,
        "eps-derivatives of the eigenfunctions expand through the cluster "
        "matrices, which satisfy the exact intertwining relation",
    ),
    "hl-identification": CheckDef(
        dg.check_hl_identification,
        "eps = 0 eigenfunctions equal sign-normalized Hall-Littlewood P and Q",
    ),
    "cauchy-littlewood": CheckDef(
        dg.check_cauchy_littlewood,
        "truncated Hall-Littlewood Cauchy sum matches the product kernel "
        "with a certified geometric tail",
    ),
    "sd-eigen": CheckDef(
        dg.check_sd_eigen,
        "semi-discrete eigenrelations with eigenvalue sum (z_i - 1) and the "
        "factorial-weight reflection symmetry",
    ),
    "sd-plancherel": CheckDef(
        dg.check_sd_plancherel,
        "semi-discrete transform pair resolves deltas (nested and additive-string modes)",
    ),
    "sd-biorthogonality": CheckDef(
        dg.check_sd_biorthogonality,
        "semi-discrete left/right eigenfunctions are biorthogonal under the "
        "additive-string measure",
    ),
    "sd-moment": CheckDef(
        dg.check_sd_moment,
        "semi-discrete moment formula matches the Poisson-chain closed form "
        "and the stochastic-ODE simulation",
    ),
}


class UnknownCheckError(KeyError):
    pass


def _defaults(check_id: str) -> dict:
    """The check's keywords after its leading ``acc``, at their defaults."""
    if check_id not in REGISTRY:
        raise UnknownCheckError(
            f"unknown check id {check_id!r}; known ids: {', '.join(sorted(REGISTRY))}"
        )
    return {p.name: p.default
            for p in list(inspect.signature(REGISTRY[check_id].fn).parameters.values())[1:]}


def _knob_error(key: str, value, default) -> str | None:
    """Why ``value`` cannot stand for a knob with this default, or None.

    A knob with an int default takes an int (not a bool), one with a float
    or None default a number (None too, for the latter); ``tolerance`` must
    also be > 0, where an infinite tolerance records without gating."""
    if default is None and value is None:
        return None
    if isinstance(default, numbers.Integral):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            return f"parameter {key!r} takes an integer, got {value!r}"
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"parameter {key!r} takes a number, got {value!r}"
    elif key == "tolerance" and not value > 0:
        return f"parameter 'tolerance' must be > 0, got {value!r}"
    return None


def _bind(check_id: str, overrides: dict) -> dict:
    """The check's keywords at their defaults with the overrides applied; an
    override of any other name, or of the wrong type, is refused."""
    knobs = _defaults(check_id)
    for key, value in overrides.items():
        if key not in knobs:
            raise ValueError(f"check {check_id} does not accept parameter {key!r}")
        reason = _knob_error(key, value, knobs[key])
        if reason is not None:
            raise ValueError(f"check {check_id}: {reason}")
    return {**knobs, **overrides}


def takes_seed(check_id: str) -> bool:
    """Whether the check draws random numbers, that is, declares a seed."""
    return "seed" in _defaults(check_id)


def _record(check_id: str, overrides: dict, catch: tuple = ()) -> Report:
    """Run the check on a fresh Accumulator and finish its report, or, for
    an exception in ``catch`` (refused overrides included), its error row
    with the same params."""
    params = {**_defaults(check_id), **overrides}
    seed = params.pop("seed", None)
    acc = Accumulator(check_id, params, seed)
    t0 = time.perf_counter()
    try:
        REGISTRY[check_id].fn(acc, **_bind(check_id, overrides))
    except catch as exc:
        return error_report(check_id, params, rejection_reason(exc), seed,
                            (time.perf_counter() - t0) * 1000.0)
    return acc.report()


def run_check(check_id: str, **overrides) -> Report:
    """Run one named check; any exception it raises propagates.  A
    deterministic check runs without a given seed, so one loop runs all."""
    if not takes_seed(check_id):
        overrides.pop("seed", None)
    return _record(check_id, overrides)


def _run_with_common(cid: str, common: dict) -> Report:
    """Run one check with the common parameters it accepts; one that
    rejects them (`report.REJECTIONS`) becomes an error row carrying the
    reason, so that a run goes on."""
    knobs = _defaults(cid)
    return _record(cid, {k: v for k, v in common.items() if k in knobs}, REJECTIONS)


def run_all(common: dict | None = None, jobs: int = 1,
            check_ids: list[str] | None = None) -> list[Report]:
    """Run several checks (default all), in registry order, optionally in
    parallel; the returned list follows registry order regardless.  Every
    check runs: one that rejects its parameters (ValueError or
    ArithmeticError) yields an error row (`Report.is_error`) instead of
    stopping the run.

    With jobs > 1 the checks run in a pool of min(jobs, #checks, #cpus)
    worker processes, started fresh (spawn), since the checks hold the
    interpreter lock.  Checks depend only on their parameters and seed, so
    the reports equal the serial ones apart from runtime_ms.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be a positive number of workers, got {jobs}")
    ids = list(REGISTRY) if check_ids is None else list(check_ids)
    common = common or {}
    workers = min(jobs, len(ids), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_with_common(cid, common) for cid in ids]
    # Imported here: the pool machinery costs every serial run memory.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(_run_with_common, ids, [common] * len(ids)))
