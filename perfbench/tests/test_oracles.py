"""The benchmark's oracles against hand-computed values and each other."""

import json
import math

import numpy as np
import pytest

import oracles
import workloads
import worker


def test_single_particle_closed_forms():
    assert oracles.step_moment_k1(0.5, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert oracles.half_moment_k1(0.5, 1.0, 0.1) == pytest.approx(math.exp(-0.5) / 0.8, rel=1e-15)
    assert oracles.sd_moment_k1(3, 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
    assert oracles.qboson_single_transition(2, 0, 0.5, 1.0) == pytest.approx(
        math.exp(-0.5) * 0.125, rel=1e-15)
    assert oracles.qboson_single_transition(0, 1, 0.5, 1.0) == 0.0


def test_two_particle_values_by_hand():
    # (1,1) -> (1,0) at rate 1 - q^2 = 0.75, then (1,0) leaves at rate 2(1 - q) = 1
    assert oracles.qboson_transition((1, 1), (1, 0), 0.5, 1.0) == pytest.approx(
        3.0 * (math.exp(-0.75) - math.exp(-1.0)), rel=1e-13)
    # q-TASEP step data, n = (1,1): the dual pair at site 1 leaves at rate 0.75
    assert oracles.qtasep_moment((1, 1), 0.5, 1.0) == pytest.approx(math.exp(-0.75), rel=1e-13)
    # semi-discrete: u(1,1) = e^{-t}, u(2,1) solves u' = -2u + e^{-t}
    t = 0.7
    assert oracles.sd_moment((1, 1), t) == pytest.approx(math.exp(-t), rel=1e-13)
    assert oracles.sd_moment((2, 1), t) == pytest.approx(math.exp(-t) - math.exp(-2 * t), rel=1e-12)


@pytest.mark.parametrize("t", [0.3, 1.1])
def test_matrix_oracles_reduce_to_closed_forms(t):
    assert oracles.qtasep_moment((1,), 0.5, t) == pytest.approx(oracles.step_moment_k1(0.5, t))
    assert oracles.qtasep_moment((1,), 0.5, t, 0.1) == pytest.approx(
        oracles.half_moment_k1(0.5, t, 0.1))
    for n in range(1, 5):
        assert oracles.sd_moment((n,), t) == pytest.approx(oracles.sd_moment_k1(n, t))
        assert oracles.qboson_transition((n,), (0,), 0.5, t) == pytest.approx(
            oracles.qboson_single_transition(n, 0, 0.5, t))


def test_transition_box_conserves_mass():
    # from (1,1) the box down to (-12,-12) holds all but a negligible tail
    y, t = (1, 1), 0.8
    total = sum(oracles.qboson_transition(y, x, 0.5, t)
                for x in oracles.box_states((-12, -12), y))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_residue_product_against_plain_trapezoid():
    a, b, c, d = 0.1 + 0.05j, -0.02j, 0.03, 0.01 - 0.01j
    m = 64
    z = 0.5 * np.exp(2j * np.pi * np.arange(m) / m)
    w = z / m  # dz / (2 pi i) on the circle of radius 0.5 about 0

    def one(f):
        return complex(np.sum(f(z) * w))

    value = (one(lambda s: np.exp(s) / (s - a))
             * one(lambda s: s**2 / ((s - b) * (s - c)))
             * one(lambda s: 1.0 / (s - d)))
    assert abs(value - oracles.residue_product(a, (b, c), d)) < 1e-14


def test_report_tolerance_rule():
    good = {"tolerance": 1e-6, "abs_err": 2e-7, "rel_err": 1e-7, "tail_bound": 0.0,
            "pass": True, "comparisons": 3}
    assert oracles.report_within_tolerance(good) is None
    sigma = dict(good, tolerance=4.0, abs_err=1.5, rel_err=None)
    assert oracles.report_within_tolerance(sigma) is None
    assert oracles.report_within_tolerance(dict(good, abs_err=1.0, rel_err=0.5)) is not None
    assert oracles.report_within_tolerance(dict(good, tail_bound=1e-3)) is not None
    assert oracles.report_within_tolerance(dict(good, **{"pass": False})) is not None


def test_sigma_report_is_strict_json():
    from qboson.report import Accumulator

    acc = Accumulator("demo", {}, seed=0)
    acc.add("mc", 1.01, 1.0, 4.0, sigma=0.01)
    rep = worker._strict_report(acc.report())
    assert rep["rel_err"] is None and rep["error_kind"] == "sigma"
    json.dumps(rep, allow_nan=False)


def test_workloads_cover_every_check_once():
    from qboson.registry import REGISTRY

    assert sorted(workloads.ALL_CHECKS + workloads.LEFT_OUT) == sorted(REGISTRY)


def test_queries_follow_the_seed():
    a, b = workloads.moment_queries(3), workloads.moment_queries(3)
    c = workloads.moment_queries(4)
    assert a == b and a != c and len(a) == len(c) == 78
    faults = [q for q in a if q.known_fault]
    assert faults == [q for q in c if q.known_fault] and len(faults) == 4
    assert workloads.round_seed(3, 0) == 3 and workloads.round_seed(3, 1) != 3
    for q in a:
        if q.kind == "transition":
            assert all(x <= y for x, y in zip(q.target, q.source))


def test_an_op_that_raises_is_wrong_unless_a_known_fault():
    class RaisingRegistry:
        @staticmethod
        def run_check(cid, seed):
            raise TypeError(f"{cid}() got an unexpected keyword argument 'seed'")

    _, ops = worker.run_checks(RaisingRegistry, ["eigen-relation"], seed=0)
    plain = workloads.Query("step", 0.5, (2, 1))
    fault = workloads.Query("half", 0.5, (3, 2, 1), 0.1, known_fault=workloads.KNOWN_FAULT)
    ops += [{"op": q.label, "seconds": 0.0, "result": None, "query": q,
             "error": "ContourError: exclusion point lies inside circle 1"}
            for q in (plain, fault)]
    worker.verify_ops(ops)
    assert [op["status"] for op in ops] == ["wrong", "wrong", "failed"]
    assert ops[0]["error"].startswith("TypeError: eigen-relation()")


def test_one_site_law():
    rng = np.random.default_rng(7)
    t, paths = 1.0, 100_000
    z1 = np.exp(-1.5 * t + math.sqrt(t) * rng.standard_normal(paths))
    good = np.column_stack([z1, np.ones(paths)])
    law = oracles.one_site_law(good, t)
    assert law["reason"] is None and abs(law["z_log_mean"]) < 5 and abs(law["z_mean"]) < 5
    assert "standard errors" in oracles.one_site_law(good * 1.02, t)["reason"]
    good[3, 1] = 0.0
    assert "positive" in oracles.one_site_law(good, t)["reason"]


def test_the_sampler_op_is_checked_by_its_one_site_law():
    from qboson.degenerations import oy_simulate

    res = oy_simulate(2, 1.0, 0.01, 20_000, seed=3)
    ops = [{"op": "oy-simulate", "seconds": 0.0, "result": res, "error": None}]
    worker.verify_ops(ops)
    assert ops[0]["status"] == "ok" and ops[0]["result"]["paths"] == 20_000
    res.Z[:, 0] *= 1.05
    ops = [{"op": "oy-simulate", "seconds": 0.0, "result": res, "error": None}]
    worker.verify_ops(ops)
    assert ops[0]["status"] == "wrong"
