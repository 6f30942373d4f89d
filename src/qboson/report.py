"""Verification reports: one record per named check, serializable to JSON/CSV.

A check may run many subcomparisons; the Report carries the worst-scoring
one (error measured against its own tolerance) so a single pass flag and a
single (lhs, rhs) pair summarize the run.  The pass rule is
(abs_err <= tolerance or rel_err <= tolerance) and tail_bound <= tolerance,
with rel_err = abs_err / (1 + |rhs|).  A sigma-scaled comparison (error_kind
"sigma") stores its deviation in standard errors in abs_err and has no
rel_err: inf in memory, null in the strict JSON output.  The JSON and the
CSV params column share one encoder, which writes every non-finite number
as null.  A report's params are its check's keywords but the seed, under
their own names, plus ``worst_case``, ``comparisons`` and what the check
adds.  A check that raised one of `REJECTIONS` under `registry.run_all`
becomes an error row (`error_report`): the reason in params["error"], NaN
sides, inf errors, and a failing pass flag.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass


# The exceptions by which a check or a command rejects its configuration:
# a ValueError names the bad setting, an ArithmeticError (an overflow, a
# floating-point trap) is named by its type.
REJECTIONS = (ValueError, ArithmeticError)


def rejection_reason(exc: Exception) -> str:
    return str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"


def _jsonable(obj):
    """Plain JSON-ready values: numpy scalars unwrapped, complex numbers as
    [re, im], and each non-finite number as None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return _jsonable(obj.item())
    if isinstance(obj, complex):
        return _jsonable([obj.real, obj.imag])
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


@dataclass
class Report:
    check_id: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tail_bound: float
    tolerance: float
    passed: bool
    runtime_ms: float
    seed: int
    error_kind: str = "abs/rel"

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": _jsonable(self.params),
            "lhs": [float(self.lhs.real), float(self.lhs.imag)],
            "rhs": [float(self.rhs.real), float(self.rhs.imag)],
            "abs_err": float(self.abs_err),
            "rel_err": float(self.rel_err),
            "tail_bound": float(self.tail_bound),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "runtime_ms": float(self.runtime_ms),
            "seed": int(self.seed),
            "error_kind": self.error_kind,
        }

    @property
    def is_error(self) -> bool:
        """True for the row of a check that raised instead of reporting."""
        return "error" in self.params

    def to_json_dict(self) -> dict:
        """to_dict() with each non-finite number as None, so that strict JSON
        can hold it: a sigma-scaled row has no rel_err, and an overflowed
        comparison or an infinite tolerance is still reported."""
        return _jsonable(self.to_dict())

    def summary_line(self) -> str:
        if self.is_error:
            return f"ERROR {self.check_id}: {self.params['error']}"
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"{flag} {self.check_id}: abs_err={self.abs_err:.3e} "
            f"rel_err={self.rel_err:.3e} tail={self.tail_bound:.3e} "
            f"tol={self.tolerance:.1e} ({self.runtime_ms:.0f} ms)"
        )


def error_report(check_id: str, params: dict, reason: str, seed: int,
                 runtime_ms: float) -> Report:
    """The row of a check that raised, at the tolerance in its params: the
    reason goes in params["error"], both sides are NaN and both errors inf
    (null in strict JSON), and the row fails."""
    nan = complex(math.nan, math.nan)
    return Report(check_id, {**params, "error": reason}, nan, nan, math.inf, math.inf, 0.0,
                  params["tolerance"], False, runtime_ms, seed)


class Accumulator:
    """Collects labeled comparisons and reports the worst one.

    Each comparison scores as min(abs_err, rel_err) / tol (matching the
    pass rule's or-semantics); sigma-scaled comparisons (Monte Carlo
    agreement in standard errors) score as deviation / tol.  A NaN error,
    tail or tolerance fails the check and scores inf, so that it ranks
    above every finite score.
    """

    def __init__(self, check_id: str, params: dict, seed: int = 0):
        self.check_id = check_id
        self.params = dict(params)
        self.seed = seed
        self._t0 = time.perf_counter()
        self._worst_score = -math.inf
        self._worst = None
        self._all_pass = True
        self.count = 0

    def add(self, label: str, lhs: complex, rhs: complex, tol: float,
            tail: float = 0.0, sigma: float | None = None) -> None:
        lhs, rhs = complex(lhs), complex(rhs)
        if sigma is not None:
            abs_err = abs(lhs - rhs) / sigma if sigma > 0 else math.inf
            rel_err = math.inf
        else:
            abs_err = abs(lhs - rhs)
            rel_err = abs_err / (1.0 + abs(rhs))
        err = min(abs_err, rel_err)
        score = max(err / tol, tail / tol if tol > 0 else math.inf)
        if math.isnan(score) or math.isnan(tail):
            score = math.inf
        ok = err <= tol and tail <= tol
        self._all_pass = self._all_pass and ok
        self.count += 1
        if score > self._worst_score:
            self._worst_score = score
            self._worst = (label, lhs, rhs, abs_err, rel_err, tail, tol,
                           "abs/rel" if sigma is None else "sigma")

    def add_residual(self, label: str, residual: float, tol: float, tail: float = 0.0) -> None:
        """Comparison already reduced to a scalar residual against zero."""
        self.add(label, complex(residual), 0.0, tol, tail=tail)

    def report(self) -> Report:
        if self._worst is None:
            raise ValueError(f"check {self.check_id} recorded no comparisons")
        label, lhs, rhs, abs_err, rel_err, tail, tol, kind = self._worst
        params = dict(self.params)
        params["worst_case"] = label
        params["comparisons"] = self.count
        return Report(
            check_id=self.check_id,
            params=params,
            lhs=lhs,
            rhs=rhs,
            abs_err=abs_err,
            rel_err=rel_err,
            tail_bound=tail,
            tolerance=tol,
            passed=self._all_pass,
            runtime_ms=(time.perf_counter() - self._t0) * 1000.0,
            seed=self.seed,
            error_kind=kind,
        )


CSV_FIELDS = [
    "check_id", "params", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
    "abs_err", "rel_err", "tail_bound", "tolerance", "pass", "runtime_ms", "seed",
    "error_kind",
]


def reports_to_json(reports: list[Report]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True,
                      allow_nan=False)


def reports_to_csv(reports: list[Report]) -> str:
    """Flat CSV of to_dict(): params as one strict JSON column, complex
    sides split re/im."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, extrasaction="ignore")
    writer.writeheader()
    for r in reports:
        d = r.to_dict()
        writer.writerow({**d, "params": json.dumps(d["params"], sort_keys=True, allow_nan=False),
                         "lhs_re": d["lhs"][0], "lhs_im": d["lhs"][1],
                         "rhs_re": d["rhs"][0], "rhs_im": d["rhs"][1]})
    return buf.getvalue()


def emit_report(reports: list[Report], fmt: str, destination: str) -> None:
    """Write reports to a file; fmt is 'json' or 'csv'."""
    if not reports:
        raise ValueError("no reports to emit")
    if fmt == "json":
        text = reports_to_json(reports)
    elif fmt == "csv":
        text = reports_to_csv(reports)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(destination, "w") as fh:
        fh.write(text)
