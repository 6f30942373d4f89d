import csv
import inspect
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qboson.cli import main
from qboson.registry import REGISTRY, UnknownCheckError, run_all, run_check
from qboson.report import (
    Accumulator,
    Report,
    emit_report,
    reports_to_csv,
    reports_to_json,
)

FAST_CHECKS = ["measure-consistency", "residue-weight", "identity-qbinomial"]


def _inf_if_none(x):
    return math.inf if x is None else x


def _complex_from_json(pair):
    """A JSON [re, im] pair; a part written as null (non-finite) reads as nan."""
    return complex(*(math.nan if x is None else x for x in pair))


def reports_from_json(text):
    """Reports read back from strict JSON: a null error or tolerance is inf
    and a null part of lhs or rhs is nan."""
    return [Report(check_id=d["check_id"], params=d["params"],
                   lhs=_complex_from_json(d["lhs"]), rhs=_complex_from_json(d["rhs"]),
                   abs_err=_inf_if_none(d["abs_err"]), rel_err=_inf_if_none(d["rel_err"]),
                   tail_bound=_inf_if_none(d["tail_bound"]),
                   tolerance=_inf_if_none(d["tolerance"]), passed=d["pass"],
                   runtime_ms=d["runtime_ms"], seed=d["seed"], error_kind=d["error_kind"])
            for d in json.loads(text)]


def _fast_report(seed=0):
    return run_check("measure-consistency", seed=seed)


def test_registry_has_all_ids():
    expected = {
        "eigen-relation", "boundary-conditions", "pt-invariance", "extended-operator",
        "plancherel-forward", "plancherel-dual", "plancherel-pairing",
        "biorthogonality-spatial", "orthogonality-spectral", "residue-expansion",
        "residue-weight", "measure-consistency", "backward-solver", "forward-solver",
        "transition-prob", "moment-step", "moment-half", "identity-mqinverse",
        "identity-qbinomial", "identity-halfstat-transform", "eps-plancherel",
        "eps-orthogonality", "eps-deriv-relation", "hl-identification",
        "cauchy-littlewood", "sd-eigen", "sd-plancherel", "sd-biorthogonality",
        "sd-moment",
    }
    assert set(REGISTRY) == expected
    for cid, cd in REGISTRY.items():
        assert cd.claim, cid


def test_every_check_has_a_positive_default_tolerance():
    # `qboson list` prints this default; it is the one copy of it
    for cid, cd in REGISTRY.items():
        tol = inspect.signature(cd.fn).parameters["tolerance"].default
        assert isinstance(tol, float) and tol > 0, cid


def test_unknown_check_and_bad_param():
    with pytest.raises(UnknownCheckError):
        run_check("nope")
    with pytest.raises(ValueError):
        run_check("measure-consistency", bogus=True)


def test_report_roundtrip_json():
    reports = [_fast_report()]
    text = reports_to_json(reports)
    back = reports_from_json(text)
    assert back[0].to_dict() == reports[0].to_dict()


def test_report_csv_has_all_fields():
    text = reports_to_csv([_fast_report()])
    header = text.splitlines()[0].split(",")
    assert header[0] == "check_id" and "pass" in header and "tail_bound" in header


def test_emit_report(tmp_path):
    r = [_fast_report()]
    emit_report(r, "json", str(tmp_path / "out.json"))
    back = reports_from_json((tmp_path / "out.json").read_text())
    assert back[0].check_id == "measure-consistency"
    emit_report(r, "csv", str(tmp_path / "out.csv"))
    with pytest.raises(ValueError):
        emit_report([], "json", str(tmp_path / "x.json"))
    with pytest.raises(ValueError):
        emit_report(r, "yaml", str(tmp_path / "x.yaml"))


def test_determinism_same_seed():
    a = run_check("residue-weight", seed=3)
    b = run_check("residue-weight", seed=3)
    da, db = a.to_dict(), b.to_dict()
    da.pop("runtime_ms")
    db.pop("runtime_ms")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_run_all_subset_order_and_parallel():
    seq = run_all(check_ids=FAST_CHECKS, common={"seed": 1})
    par = run_all(check_ids=FAST_CHECKS, common={"seed": 1}, jobs=3)
    assert [r.check_id for r in seq] == FAST_CHECKS
    for a, b in zip(seq, par):
        da, db = a.to_dict(), b.to_dict()
        da.pop("runtime_ms"), db.pop("runtime_ms")
        assert da == db


def test_accumulator_pass_rule():
    acc = Accumulator("demo", {}, 0)
    acc.add("fine abs", 1.0 + 1e-9, 1.0, 1e-6)
    acc.add("fine rel only", 2e6 + 1.0, 2e6, 1e-6)  # abs err 1 but rel tiny
    r = acc.report()
    assert r.passed
    acc = Accumulator("demo", {}, 0)
    acc.add("bad tail", 1.0, 1.0, 1e-6, tail=1e-3)
    assert not acc.report().passed
    acc = Accumulator("demo", {}, 0)
    acc.add("mc", 1.5, 1.0, 4.0, sigma=0.2)  # 2.5 sigma: fine
    assert acc.report().passed
    acc = Accumulator("demo", {}, 0)
    acc.add("mc", 2.0, 1.0, 4.0, sigma=0.2)  # 5 sigma: fail
    assert not acc.report().passed


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "qboson.cli", *args],
                          capture_output=True, text=True)


def test_cli_verify_single_and_outputs(tmp_path):
    out_json = tmp_path / "r.json"
    out_csv = tmp_path / "r.csv"
    p = _cli("verify", "measure-consistency", "--json", str(out_json),
             "--csv", str(out_csv), "--seed", "5")
    assert p.returncode == 0, p.stderr
    assert "PASS measure-consistency" in p.stdout
    reports = reports_from_json(out_json.read_text())
    assert reports[0].seed == 5
    assert out_csv.read_text().startswith("check_id")


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(text, parse_constant=reject)


def test_sigma_rows_write_strict_json(tmp_path):
    acc = Accumulator("demo", {}, 0)
    acc.add("mc", 2.0, 1.0, 4.0, sigma=0.2)
    rep = acc.report()
    assert rep.error_kind == "sigma" and rep.rel_err == math.inf
    emit_report([rep], "json", str(tmp_path / "s.json"))
    d = _strict_loads((tmp_path / "s.json").read_text())[0]
    assert d["rel_err"] is None and d["error_kind"] == "sigma"
    assert d["abs_err"] == pytest.approx(5.0)
    back = reports_from_json((tmp_path / "s.json").read_text())[0]
    assert back.rel_err == math.inf and back.error_kind == "sigma"


def test_cli_moment_json_is_strict(tmp_path):
    # at its defaults the worst comparison of moment-step is a Monte Carlo one
    out = tmp_path / "m.json"
    p = _cli("verify", "moment-step", "--json", str(out))
    assert p.returncode == 0, p.stderr
    d = _strict_loads(out.read_text())[0]
    assert d["error_kind"] == "sigma" and d["rel_err"] is None


def test_nonfinite_values_write_strict_json(tmp_path):
    # an overflowed comparison scores inf and so is always the worst one
    acc = Accumulator("demo", {}, 0)
    acc.add("fine", 1.0, 1.0, 1e-12)
    acc.add("overflow", complex(math.inf, 1.0), 2.0, 1e-12)
    loose = Accumulator("loose", {}, 0)
    loose.add("any", 1.0, 2.0, math.inf)
    reps = [acc.report(), loose.report()]
    assert reps[0].lhs.real == math.inf and reps[1].tolerance == math.inf
    emit_report(reps, "json", str(tmp_path / "o.json"))
    d = _strict_loads((tmp_path / "o.json").read_text())
    assert d[0]["lhs"] == [None, 1.0] and d[0]["rhs"] == [2.0, 0.0]
    assert d[0]["abs_err"] is None and d[0]["rel_err"] is None
    assert d[1]["tolerance"] is None and d[1]["abs_err"] == 1.0
    back = reports_from_json((tmp_path / "o.json").read_text())
    assert math.isnan(back[0].lhs.real) and back[0].lhs.imag == 1.0
    assert back[0].abs_err == math.inf and back[1].tolerance == math.inf


def test_cli_infinite_tolerance_writes_strict_json(tmp_path):
    out = tmp_path / "t.json"
    p = _cli("verify", "residue-weight", "--param", "tolerance=Infinity", "--json", str(out))
    assert p.returncode == 0, p.stderr
    d = _strict_loads(out.read_text())[0]
    assert d["tolerance"] is None and d["pass"] is True


def test_cli_unknown_check_exits_2():
    p = _cli("verify", "not-a-check")
    assert p.returncode == 2
    assert "unknown check" in p.stderr


def test_cli_oversized_oracle_box_exits_2():
    # the k = 1 spectral leg runs first and is cheap; the k = 1 oracle box
    # at t = 2000 holds 2188 states and is refused before it is built
    p = _cli("verify", "forward-solver", "--param", "t=2000")
    assert p.returncode == 2
    assert "enumerate and densify a box, so at most 2000 are allowed" in p.stderr


def test_accumulator_ranks_a_nan_comparison_worst():
    acc = Accumulator("demo", {}, 0)
    acc.add("fine", 1, 1, 1e-6)
    acc.add("nan", math.nan, 1, 1e-6)
    acc.add("large but finite", 1e9, 1, 1e-6)
    r = acc.report()
    assert not r.passed
    assert r.params["worst_case"] == "nan" and math.isnan(r.abs_err)
    acc = Accumulator("demo", {}, 0)
    acc.add("fine", 1, 1, 1e-6)
    acc.add("nan tail", 1, 1, 1e-6, tail=math.nan)
    assert acc.report().params["worst_case"] == "nan tail"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_verify_all_rejects_nonpositive_jobs(jobs):
    p = _cli("verify", "all", "--jobs", jobs)
    assert p.returncode == 2
    assert "jobs must be a positive number" in p.stderr


@pytest.mark.parametrize("eps", ["0", "-0.5"])
def test_cli_eps_plancherel_rejects_nonpositive_eps(eps):
    p = _cli("verify", "eps-plancherel", "--param", f"eps={eps}")
    assert p.returncode == 2
    assert "needs eps > 0; use the Hall-Littlewood route at eps = 0" in p.stderr


def test_cli_param_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 1, "seed": 9}))
    p = _cli("verify", "residue-weight", "--config", str(cfg), "--param", "trials=2")
    assert p.returncode == 0
    # flag overrode config: comparisons = 2 per partition set
    p2 = _cli("verify", "residue-weight", "--config", str(cfg), "--json",
              str(tmp_path / "o.json"))
    assert p2.returncode == 0
    r = reports_from_json((tmp_path / "o.json").read_text())[0]
    assert r.seed == 9 and r.params["trials"] == 1


def test_cli_list():
    p = _cli("list")
    assert p.returncode == 0
    assert "plancherel-forward" in p.stdout


def test_cli_moments_and_transition():
    p = _cli("moments", "--model", "qtasep", "--init", "step", "--t", "1.0",
             "--n", "1", "--q", "0.5")
    assert p.returncode == 0
    out = json.loads(p.stdout)
    assert out["value"][0] == pytest.approx(np.exp(-0.5), abs=1e-10)
    p = _cli("moments", "--model", "sd", "--init", "delta", "--t", "1.0", "--n", "1")
    out = json.loads(p.stdout)
    assert out["value"][0] == pytest.approx(np.exp(-1.0), abs=1e-10)
    p = _cli("transition", "--t", "0.5", "--from", "0", "--to", "-1")
    out = json.loads(p.stdout)
    lam = 0.25
    assert out["probability"][0] == pytest.approx(np.exp(-lam) * lam, abs=1e-9)
    for method in ("spectral", "uniformization"):
        p = _cli("transition", "--method", method, "--t", "0.5", "--from", "1,0", "--to", "0")
        assert p.returncode == 2 and p.stdout == ""
        assert "the source has 2 and the target 1" in p.stderr
    # invalid moment spec: usage error
    p = _cli("moments", "--model", "qtasep", "--init", "half", "--t", "1.0",
             "--n", "1", "--alpha", "0.9")
    assert p.returncode == 2


def test_cli_simulate(tmp_path):
    p = _cli("simulate", "--model", "qboson", "--t", "1.0", "--seed", "7",
             "--init-state", "1,0", "--out", str(tmp_path / "t.csv"))
    assert p.returncode == 0
    out = json.loads(p.stdout)
    assert len(out["final"]) == 2
    assert (tmp_path / "t.csv").read_text().startswith("time,coord_1,coord_2")
    p = _cli("simulate", "--model", "oy", "--t", "0.1", "--paths", "200",
             "--sites", "2", "--dt", "0.01")
    assert p.returncode == 0


def _cli_in_process(capsys, *args):
    """Exit code and stderr of one CLI call, run in this interpreter."""
    code = main(list(args))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("model", ["oy", "qtasep", "qboson"])
@pytest.mark.parametrize("paths", ["0", "-1"])
def test_cli_simulate_rejects_nonpositive_paths(capsys, model, paths):
    code, err = _cli_in_process(capsys, "simulate", "--model", model, "--t", "0.1",
                                "--paths", paths)
    assert code == 2
    assert f"--paths must be at least 1, got {paths}" in err


def test_cli_simulate_oy_rejects_zero_sites(capsys):
    code, err = _cli_in_process(capsys, "simulate", "--model", "oy", "--t", "0.1",
                                "--sites", "0")
    assert code == 2
    assert "need N >= 1 sites" in err


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
def test_cli_simulate_oy_overflow_exits_2(capsys, tmp_path):
    # five sites at t = 0.05 overflow on every path at dt = 1e-3
    out = tmp_path / "t.csv"
    code = main(["simulate", "--model", "oy", "--t", "0.05", "--paths", "3",
                 "--sites", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "the Euler scheme overflowed" in captured.err and "sites [5]" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("check", ["moment-step", "sd-moment"])
def test_cli_monte_carlo_check_needs_two_paths(capsys, check):
    code, err = _cli_in_process(capsys, "verify", check, "--param", "paths=1")
    assert code == 2
    assert "paths >= 2" in err


def test_cli_verify_failure_exit_code(tmp_path):
    # an impossible tolerance forces a controlled failure -> exit code 1
    p = _cli("verify", "measure-consistency", "--param", "tolerance=1e-30")
    assert p.returncode == 1
    assert "failing checks: measure-consistency" in p.stderr


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_all_turns_a_raising_check_into_an_error_row(jobs):
    # at q = 0.9 the innermost eps-plancherel circle contains q * eps; the
    # run records that and goes on to the next check
    reports = run_all(common={"q": 0.9}, check_ids=["eps-plancherel", "measure-consistency"],
                      jobs=jobs)
    bad, good = reports
    assert bad.is_error and not bad.passed
    # the row carries every knob of the check, at its bound value
    assert bad.params == {"q": 0.9, "eps": 0.5, "nodes": 128, "tolerance": 1e-6,
                          "error": "innermost circle contains 0.45"}
    assert bad.summary_line() == "ERROR eps-plancherel: innermost circle contains 0.45"
    d = _strict_loads(reports_to_json([bad]))[0]
    assert d["lhs"] == [None, None] and d["abs_err"] is None and d["pass"] is False
    assert d["tolerance"] == 1e-6 and d["seed"] == 0
    assert good.passed and not good.is_error
    # run_check itself still raises
    with pytest.raises(ValueError, match="innermost circle contains 0.45"):
        run_check("eps-plancherel", q=0.9)


def test_cli_verify_all_exits_2_on_an_error_row(capsys, monkeypatch, tmp_path):
    import qboson.cli

    def subset(common, jobs):
        return run_all(common, jobs, check_ids=["eps-plancherel", "measure-consistency"])

    monkeypatch.setattr(qboson.cli, "run_all", subset)
    out = tmp_path / "all.json"
    code = main(["verify", "all", "--q", "0.9", "--json", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "ERROR eps-plancherel: innermost circle contains 0.45" in captured.out
    assert "PASS measure-consistency" in captured.out
    assert "checks with errors: eps-plancherel" in captured.err
    rows = _strict_loads(out.read_text())
    assert [r["params"].get("error") for r in rows] == ["innermost circle contains 0.45", None]


@pytest.mark.parametrize("args", [
    ("verify", "backward-solver", "--param", "t=1e400"),
    ("verify", "transition-prob", "--param", "t=NaN"),
    ("moments", "--model", "qtasep", "--init", "step", "--t", "inf", "--n", "1"),
    ("moments", "--model", "sd", "--init", "delta", "--t", "inf", "--n", "1"),
    ("transition", "--t", "inf", "--from", "1,0", "--to", "0,-1"),
    ("simulate", "--model", "qboson", "--t", "nan"),
    ("simulate", "--model", "oy", "--t", "inf", "--paths", "10"),
])
def test_cli_rejects_a_nonfinite_time(capsys, args):
    code, err = _cli_in_process(capsys, *args)
    assert code == 2
    assert "t must be a finite number >= 0" in err


@pytest.mark.parametrize("check,overrides", [
    ("pt-invariance", {"box_radius": 3, "kmax": 2}),
    ("residue-weight", {"trials": 2}),
    ("identity-mqinverse", {"m_max": 4}),
    ("cauchy-littlewood", {"depth": 30}),
    ("hl-identification", {"n_max": 4}),
])
def test_report_params_replay_the_run(check, overrides):
    # a report's params are its check's keywords under their own names, so
    # passing them back (with the seed) reruns the same comparisons
    first = run_check(check, seed=3, q=0.4, **overrides)
    knobs = {k: v for k, v in first.params.items() if k not in ("worst_case", "comparisons")}
    assert set(knobs) == set(inspect.signature(REGISTRY[check].fn).parameters) - {"acc", "seed"}
    again = run_check(check, seed=first.seed, **knobs)
    assert (again.lhs, again.rhs, again.abs_err, again.rel_err) == (
        first.lhs, first.rhs, first.abs_err, first.rel_err)


def test_cli_rejects_the_accumulator_as_a_param(capsys):
    code, err = _cli_in_process(capsys, "verify", "residue-weight", "--param", "acc=1")
    assert code == 2
    assert "does not accept parameter 'acc'" in err


@pytest.mark.parametrize("args,reason", [
    # the k = 1 Poisson closed form of the check overflows
    (("verify", "backward-solver", "--param", "t=1e300"), "OverflowError: "),
    # the integrand overflows on the quadrature nodes
    (("moments", "--model", "sd", "--init", "delta", "--t", "1e300", "--n", "2,1"),
     "FloatingPointError: integrand returned a non-finite value"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered in exp",
                            "ignore:invalid value encountered in multiply")
def test_cli_arithmetic_errors_exit_2(capsys, args, reason):
    code, err = _cli_in_process(capsys, *args)
    assert code == 2
    assert err.startswith("error: " + reason)


def test_run_all_turns_arithmetic_errors_into_rows():
    rows = run_all(common={"t": 1e300}, check_ids=["backward-solver", "transition-prob"])
    assert [r.is_error for r in rows] == [True, True]
    assert rows[0].params["error"].startswith("OverflowError: ")
    assert "needs more than 10000000 Poisson terms" in rows[1].params["error"]
    assert rows[0].params["t"] == 1e300 and rows[0].params["tolerance"] == 1e-6


def test_nonfinite_params_are_null_in_json_and_csv():
    row = run_all(common={"alpha": math.nan}, check_ids=["moment-half"])[0]
    assert row.is_error and math.isnan(row.params["alpha"])
    assert _strict_loads(reports_to_json([row]))[0]["params"]["alpha"] is None
    params = next(csv.DictReader(io.StringIO(reports_to_csv([row]))))["params"]
    assert _strict_loads(params)["alpha"] is None
