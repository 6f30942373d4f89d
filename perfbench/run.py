"""Benchmark for ``qboson verify`` and the moment queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-spectral, verify-transforms, verify-montecarlo,
moment-queries, or ``all`` to run the four in turn.  Each round of a workload
runs serially in a fresh worker process (perfbench/worker.py), which imports
qboson from the checkout's ``src`` only.  Rounds repeat until the measured
time reaches --seconds (verify-spectral makes at least three); round r passes
the seed workloads.round_seed(N, r) on, so round 0 runs exactly seed N.

--trace 0 reports the end-to-end metrics: wall_s (on a verify-* workload
the sum over its checks of each check's median time over the rounds, on
moment-queries the median round time; set-up excluded), setup_s (fastest of at least six fresh processes, one started
before each round, of the time from process start until qboson is imported
and the registry built) and peak_rss_mb (largest peak resident set of a
round's process).  --trace 1 makes round 0 untraced, then the same seed
once more traced, and reports the per-layer metrics instead.  Every output is
checked against the oracles in perfbench/oracles.py.  The last line printed
is one JSON object; the full record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 6  # at least, per untraced run
SETUP_PER_ROUND = 1  # set-up-only workers before each round
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0  # per workload; each run must end within 180 s

sys.path.insert(0, HERE)
from tracer import metric_names  # noqa: E402
from workloads import (  # noqa: E402
    ALL_CHECKS, MIN_ROUNDS, VERIFY_WORKLOADS, WORKLOADS, round_seed)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    [f"check.{cid}.s" for cid in ALL_CHECKS]
    + ["checks.comparisons"]
    + metric_names()
    + ["trace.overhead_s"]
)


class BenchError(RuntimeError):
    pass


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    return "s" if metric.endswith((".s", "_s")) else "count"


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion; its set-up time is measured from here."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {args} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data.pop("ready") - t0
    return data


def wall_time(workload: str, rounds: list[dict]) -> float:
    """A verify-* workload's wall_s is the sum over its operations of each
    one's median time over the rounds: a check that is dear at one round's
    seed does not carry the rest of its round with it.  With one round this
    is the round's own time."""
    if workload not in VERIFY_WORKLOADS:
        return statistics.median(r["wall_s"] for r in rounds)
    return sum(check_time(rounds, cid) for cid in VERIFY_WORKLOADS[workload])


def check_time(rounds: list[dict], cid: str) -> float:
    return statistics.median(op["seconds"] for r in rounds for op in r["ops"] if op["op"] == cid)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    rounds, setups = [], []

    def sample_setup():
        setups.append(spawn(base + ["--setup-only"], deadline)["setup_s"])

    def more_rounds() -> bool:
        if trace:  # one untraced round, at the traced round's seed
            return not rounds
        return (len(rounds) < MIN_ROUNDS.get(workload, 1)
                or sum(r["wall_s"] for r in rounds) < seconds)

    while more_rounds():
        for _ in range(0 if trace else SETUP_PER_ROUND):
            sample_setup()
        round_args = ["--workload", workload, "--seed", str(round_seed(seed, len(rounds)))]
        rounds.append(spawn(round_args, deadline))
        setups.append(rounds[-1]["setup_s"])
    traced = spawn(base + ["--trace"], deadline) if trace else None
    while not trace and len(setups) < SETUP_SAMPLES:
        sample_setup()

    every = rounds + ([traced] if traced else [])
    ops = [op for r in every for op in r["ops"]]
    probes = [p for r in every for p in r["probes"]]
    if trace:
        metrics = dict(traced["layers"])
        for cid in ALL_CHECKS:
            ran = cid in VERIFY_WORKLOADS.get(workload, ())
            metrics[f"check.{cid}.s"] = check_time(rounds, cid) if ran else 0.0
        metrics["checks.comparisons"] = sum(
            op["result"]["comparisons"] for op in traced["ops"]
            if op["op"] in ALL_CHECKS and op["error"] is None)
        # rounds[0] ran the same seed as the traced round
        metrics["trace.overhead_s"] = traced["wall_s"] - rounds[0]["wall_s"]
        names = PER_LAYER
    else:
        # the machine drifts between a fast and a slow state, often for
        # seconds at a time;
        # a slow state only adds to a set-up sample, so the fastest is kept
        metrics = {"wall_s": wall_time(workload, rounds),
                   "setup_s": min(setups),
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds)}
        names = list(END_TO_END)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": (all(op["status"] != "wrong" for op in ops)
                    and all(p["ok"] for p in probes)),
        "attempted": len(ops),
        "failed": sum(op["status"] == "failed" for op in ops),
        "metrics": {m: {"value": metrics[m], "unit": unit_of(m)} for m in names},
        "rounds": rounds,
        "traced_round": traced,
        "setup_samples_s": setups,
        "environment": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "blas_threads": int(BLAS_THREADS),
            **(rounds[0].get("versions", {})),
        },
    }


def summary_line(res: dict) -> str:
    metrics = res["metrics"]
    if res["trace"]:
        metrics = {m: metrics[m] for m in ("checks.comparisons", "trace.overhead_s")}
    shown = "  ".join(f"{m} {v['value']:.6g} {v['unit']}" for m, v in metrics.items())
    return (f"{res['workload']}: {shown}  attempted {res['attempted']} "
            f"failed {res['failed']} correct {str(res['correct']).lower()}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "qboson", "__init__.py")):
        print(f"error: no qboson sources under {SRC}", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(RESULTS, exist_ok=True)
    for workload in chosen:
        try:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(RESULTS, f"{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1, allow_nan=False)
        print(summary_line(res))
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")},
                         allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
