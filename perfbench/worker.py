"""One round of one workload in a fresh process; prints one JSON line.

Started by run.py, never imported by it.  The process imports qboson and
builds the check registry (its set-up), runs the workload's operations
serially with the clock on, reads its peak resident set, and only then checks
every output against the oracles, outside the timed region.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
QUERY_TOL = 1e-6  # the program's own tolerance for moment and transition checks


def _set_up():
    import qboson.registry  # imports every layer and builds the registry

    ready = time.monotonic()
    where = os.path.dirname(os.path.abspath(qboson.registry.__file__))
    if not where.startswith(os.path.join(SRC, "qboson")):
        raise SystemExit(f"qboson was imported from {where}, not from {SRC}")
    return ready, qboson.registry


def _strict_report(rep) -> dict:
    """Report fields as strict JSON: the rel_err of sigma-scaled comparisons
    is inf by construction, so it is written as null with its kind named."""
    d = rep.to_dict()
    d["comparisons"] = int(rep.params.get("comparisons", 0))
    d["worst_case"] = rep.params.get("worst_case")
    d["error_kind"] = "abs/rel"
    if not math.isfinite(d["rel_err"]):
        d["rel_err"] = None
        d["error_kind"] = "sigma"
    return d


def run_sampler(cid: str, seed: int):
    from qboson import degenerations
    from workloads import SAMPLERS

    a = SAMPLERS[cid]
    return degenerations.oy_simulate(a["N"], a["t"], a["dt"], a["paths"], seed=seed + 5)


def run_checks(registry, ids, seed: int) -> tuple[float, list[dict]]:
    from workloads import SAMPLERS

    ops = []
    start = time.perf_counter()
    for cid in ids:
        t0 = time.perf_counter()
        try:
            if cid in SAMPLERS:
                rep, error = run_sampler(cid, seed), None
            else:
                rep, error = registry.run_check(cid, seed=seed), None
        except Exception as exc:  # verify_ops marks it wrong
            rep, error = None, f"{type(exc).__name__}: {exc}"
        ops.append({"op": cid, "seconds": time.perf_counter() - t0, "result": rep,
                    "error": error})
    return time.perf_counter() - start, ops


def _call(query, dynamics, degenerations, WeylVector):
    # module attributes are looked up per call, so a tracer's wrappers apply
    if query.kind == "sd":
        return degenerations.sd_moment_formula(WeylVector(query.n), query.t)
    if query.kind == "transition":
        return dynamics.transition_probability(
            "spectral", WeylVector(query.source), WeylVector(query.target), query.t, 0.5)
    init = "step" if query.kind == "step" else "half-stationary"
    spec = dynamics.MomentSpec(WeylVector(query.n), query.t, init, alpha=query.alpha, q=0.5)
    return dynamics.moment_formula(spec)


def run_queries(queries) -> tuple[float, list[dict]]:
    from qboson import degenerations, dynamics
    from qboson.qcore import WeylVector

    ops = []
    start = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        try:
            value, error = complex(_call(query, dynamics, degenerations, WeylVector)), None
        except Exception as exc:  # the known-fault queries raise ContourError
            value, error = None, f"{type(exc).__name__}: {exc}"
        ops.append({"op": query.label, "seconds": time.perf_counter() - t0, "result": value,
                    "error": error, "query": query})
    return time.perf_counter() - start, ops


def expected_value(query) -> float:
    import oracles

    if query.kind == "transition":
        if len(query.source) == 1:
            return oracles.qboson_single_transition(query.source[0], query.target[0], 0.5, query.t)
        return oracles.qboson_transition(query.source, query.target, 0.5, query.t)
    if query.kind == "sd":
        if len(query.n) == 1:
            return oracles.sd_moment_k1(query.n[0], query.t)
        return oracles.sd_moment(query.n, query.t)
    if query.n == (1,):
        if query.kind == "step":
            return oracles.step_moment_k1(0.5, query.t)
        return oracles.half_moment_k1(0.5, query.t, query.alpha)
    return oracles.qtasep_moment(query.n, 0.5, query.t, query.alpha)


def verify_ops(ops) -> None:
    """Fill in each op's status: ok, failed (a known-fault query that raises
    or misses its oracle) or wrong (any other op that raises, or a value
    outside tolerance)."""
    import oracles
    from workloads import SAMPLERS

    for op in ops:
        query = op.pop("query", None)
        if op["error"] is not None:
            op["status"] = "failed" if query is not None and query.known_fault else "wrong"
            continue
        if op["op"] in SAMPLERS:  # an SdeResult
            law = oracles.one_site_law(op["result"].Z, SAMPLERS[op["op"]]["t"])
            op["result"] = law
            op["status"] = "ok" if law["reason"] is None else "wrong"
            op["reason"] = law["reason"]
            continue
        if query is None:  # a check report
            rep = _strict_report(op["result"])
            op["result"] = rep
            reason = oracles.report_within_tolerance(rep)
            op["status"] = "ok" if reason is None else "wrong"
            op["reason"] = reason
            continue
        value, expected = op["result"], expected_value(query)
        err = oracles.scaled_error(value, expected)
        op["result"] = {"value": [value.real, value.imag], "expected": expected,
                        "scaled_error": err, "tolerance": QUERY_TOL}
        if err <= QUERY_TOL:
            op["status"] = "ok"
        elif query.known_fault:
            op["status"] = "failed"
            op["error"] = f"{query.known_fault}: scaled error {err:.3e}"
        else:
            op["status"] = "wrong"


def probes(seed: int) -> list[dict]:
    """Two direct checks of the layers, against the benchmark's own oracles:
    the backward generator applied to eigen_eval, and a product contour
    integral with known residues through contours.integrate."""
    import numpy as np

    import oracles
    from qboson.contours import QuadratureSpec, integrate, nested_contours
    from qboson.eigenfunctions import EigenFamily, eigen_eval
    from qboson.qcore import WeylVector

    rng = np.random.default_rng(seed)
    out = []
    q = 0.5
    fam = EigenFamily("qboson-left", q)
    for n in ((2, 2, 1), (3, 0), (1, 1, 1), (4,)):
        z = [complex(v) for v in 1.0 + rng.uniform(0.4, 1.6, len(n))
             * np.exp(1j * rng.uniform(0.0, 2 * np.pi, len(n)))]

        def psi(m, _z=z):
            return eigen_eval(fam, _z, WeylVector(m), validate=False)

        lhs = oracles.qboson_backward_apply(psi, n, q)
        rhs = (q - 1.0) * sum(z) * psi(n)
        err = oracles.scaled_error(lhs, rhs)
        out.append({"probe": f"backward generator on qboson-left n={n}",
                    "scaled_error": err, "tolerance": 1e-10, "ok": err <= 1e-10})

    cs = nested_contours(3, q)
    radii = [c.radius for c in cs.circles]
    poles = [1.0 + 0.3 * r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2)) for r in radii]
    a, (b, c), d = poles[0][0], poles[1], poles[2][0]

    def integrand(zs):
        z1, z2, z3 = zs
        return np.exp(z1) / (z1 - a) * z2**2 / ((z2 - b) * (z2 - c)) / (z3 - d)

    res = integrate(cs, integrand, QuadratureSpec(64))
    err = oracles.scaled_error(res.value, oracles.residue_product(a, (b, c), d))
    ok = err <= 1e-12 and float(res.error_estimate) <= 1e-10
    out.append({"probe": "contours.integrate of a 3-fold product with known residues",
                "scaled_error": err, "error_estimate": float(res.error_estimate),
                "tolerance": 1e-12, "ok": ok})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    ready, registry = _set_up()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        if args.workload in workloads.VERIFY_WORKLOADS:
            wall, ops = run_checks(registry, workloads.VERIFY_WORKLOADS[args.workload], args.seed)
        else:
            wall, ops = run_queries(workloads.moment_queries(args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verify_ops(ops)
    import numpy
    import scipy

    out = {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "probes": probes(args.seed),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.span_table()
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
