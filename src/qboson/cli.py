"""Command line front end: run verification checks, evaluate moment
formulas, simulate the particle systems, and print transition kernels.

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 usage or configuration error, including a check of 'verify all' that
rejected its parameters (its error row carries the reason) and an
arithmetic failure (overflow, a floating-point trap) of any command.  Flags
override the JSON config file, which overrides built-in defaults.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

import numpy as np

from qboson.qcore import WeylVector
from qboson.registry import REGISTRY, UnknownCheckError, run_all, run_check
from qboson.report import REJECTIONS, emit_report, rejection_reason


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _collect_params(args) -> dict:
    params = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                params.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot read config {args.config}: {exc}")
    for item in getattr(args, "param", None) or []:
        if "=" not in item:
            raise SystemExit(f"error: --param expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        params[key] = _parse_value(val)
    if getattr(args, "seed", None) is not None:
        params["seed"] = args.seed
    if getattr(args, "q", None) is not None:
        params["q"] = args.q
    return params


def _cmd_verify(args) -> int:
    params = _collect_params(args)
    params.setdefault("seed", 0)
    try:
        if args.check == "all":
            reports = run_all(common=params, jobs=args.jobs)
        else:
            reports = [run_check(args.check, **params)]
    except UnknownCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TypeError, *REJECTIONS) as exc:
        print(f"error: {rejection_reason(exc)}", file=sys.stderr)
        return 2
    for r in reports:
        print(r.summary_line())
    if args.json:
        emit_report(reports, "json", args.json)
    if args.csv:
        emit_report(reports, "csv", args.csv)
    errors = [r.check_id for r in reports if r.is_error]
    failing = [r.check_id for r in reports if not r.passed and not r.is_error]
    if failing:
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
    if errors:
        print("checks with errors: " + ", ".join(errors), file=sys.stderr)
        return 2
    return 1 if failing else 0


def _cmd_list(args) -> int:
    for cid, cd in REGISTRY.items():
        tol = inspect.signature(cd.fn).parameters["tolerance"].default
        print(f"{cid:30s} tol={tol:<8.0e} {cd.claim}")
    return 0


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise SystemExit(f"error: expected comma-separated integers, got {text!r}")


def _cmd_moments(args) -> int:
    n = _parse_ints(args.n)
    try:
        if args.model == "qtasep":
            from qboson.dynamics import MomentSpec, moment_formula

            init = {"step": "step", "half": "half-stationary"}.get(args.init)
            if init is None:
                print("error: q-TASEP moments need --init step|half", file=sys.stderr)
                return 2
            spec = MomentSpec(WeylVector(n), args.t, init, alpha=args.alpha, q=args.q)
            value = moment_formula(spec)
        elif args.model == "sd":
            from qboson.degenerations import sd_moment_formula

            if args.init != "delta":
                print("error: semi-discrete moments implement --init delta", file=sys.stderr)
                return 2
            value = sd_moment_formula(WeylVector(n), args.t)
        else:
            print(f"error: unknown model {args.model}", file=sys.stderr)
            return 2
    except REJECTIONS as exc:
        print(f"error: {rejection_reason(exc)}", file=sys.stderr)
        return 2
    out = {"model": args.model, "init": args.init, "t": args.t, "n": list(n),
           "alpha": args.alpha, "q": args.q, "value": [value.real, value.imag]}
    print(json.dumps(out))
    return 0


def _cmd_simulate(args) -> int:
    if args.paths < 1:
        print(f"error: --paths must be at least 1, got {args.paths}", file=sys.stderr)
        return 2
    try:
        if args.model == "oy":
            from qboson.degenerations import oy_simulate

            res = oy_simulate(args.sites, args.t, args.dt, args.paths, seed=args.seed,
                              trajectory_csv=args.out)
            means = res.Z.mean(axis=0)
            print(json.dumps({"model": "oy", "t": args.t, "paths": args.paths,
                              "mean_Z": [float(v) for v in means]}))
            return 0
        from qboson.dynamics import simulate

        if args.model == "qboson":
            init = WeylVector(_parse_ints(args.init_state or "0"))
        elif args.model == "qtasep":
            init = _parse_ints(args.init_state or "-1")
        else:
            print(f"error: unknown model {args.model}", file=sys.stderr)
            return 2
        if args.paths == 1:
            traj = simulate(args.model, init, args.t, args.seed, q=args.q)
            if args.out:
                traj.to_csv(args.out)
            print(json.dumps({"model": args.model, "t": args.t,
                              "events": len(traj.events) - 1,
                              "final": list(traj.final_state())}))
        else:
            seeds = np.random.SeedSequence(args.seed).spawn(args.paths)
            finals = []
            for s in seeds:
                traj = simulate(args.model, init, args.t, s.generate_state(1)[0], q=args.q)
                finals.append(traj.final_state())
            arr = np.asarray(finals, dtype=float)
            print(json.dumps({"model": args.model, "t": args.t, "paths": args.paths,
                              "mean_final": [float(v) for v in arr.mean(axis=0)]}))
        return 0
    except REJECTIONS as exc:
        print(f"error: {rejection_reason(exc)}", file=sys.stderr)
        return 2


def _cmd_transition(args) -> int:
    try:
        from qboson.dynamics import transition_probability

        y = WeylVector(_parse_ints(args.source))
        x = WeylVector(_parse_ints(args.target))
        v = transition_probability(args.method, y, x, args.t, args.q)
        print(json.dumps({"from": list(y.coords), "to": list(x.coords), "t": args.t,
                          "q": args.q, "method": args.method,
                          "probability": [v.real, v.imag]}))
        return 0
    except REJECTIONS as exc:
        print(f"error: {rejection_reason(exc)}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qboson",
        description="q-Boson spectral theory: verification checks, moment "
                    "formulas, and particle-system simulators.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run one named check or all of them")
    pv.add_argument("check", help="check id or 'all'")
    pv.add_argument("--json", help="write reports to this JSON file")
    pv.add_argument("--csv", help="write reports to this CSV file")
    pv.add_argument("--config", help="JSON file of parameter defaults")
    pv.add_argument("--param", action="append",
                    help="override one parameter, key=value (repeatable)")
    pv.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    pv.add_argument("--q", type=float, default=None,
                    help="q for every selected check that takes q; a single "
                         "check without q exits 2")
    pv.add_argument("--jobs", type=int, default=1,
                    help="worker processes for 'verify all' (at least 1)")
    pv.set_defaults(fn=_cmd_verify)

    pl = sub.add_parser("list", help="list registered checks")
    pl.set_defaults(fn=_cmd_list)

    pm = sub.add_parser("moments", help="evaluate a duality moment formula")
    pm.add_argument("--model", choices=["qtasep", "sd"], required=True)
    pm.add_argument("--init", choices=["step", "half", "delta"], required=True)
    pm.add_argument("--t", type=float, required=True)
    pm.add_argument("--n", required=True, help="comma-separated moment indices")
    pm.add_argument("--alpha", type=float, default=0.0)
    pm.add_argument("--q", type=float, default=0.5)
    pm.set_defaults(fn=_cmd_moments)

    ps = sub.add_parser("simulate", help="simulate a particle system")
    ps.add_argument("--model", choices=["qtasep", "qboson", "oy"], required=True)
    ps.add_argument("--t", type=float, required=True)
    ps.add_argument("--paths", type=int, default=1)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--q", type=float, default=0.5)
    ps.add_argument("--dt", type=float, default=1e-3, help="SDE step size (oy)")
    ps.add_argument("--sites", type=int, default=2, help="number of sites (oy)")
    ps.add_argument("--init-state", help="comma-separated initial coordinates")
    ps.add_argument("--out", help="write the trajectory to this CSV file")
    ps.set_defaults(fn=_cmd_simulate)

    pt = sub.add_parser("transition", help="q-Boson transition probability")
    pt.add_argument("--t", type=float, required=True)
    pt.add_argument("--from", dest="source", required=True,
                    help="comma-separated initial coordinates")
    pt.add_argument("--to", dest="target", required=True,
                    help="comma-separated final coordinates")
    pt.add_argument("--q", type=float, default=0.5)
    pt.add_argument("--method", choices=["spectral", "uniformization"],
                    default="spectral")
    pt.set_defaults(fn=_cmd_transition)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
