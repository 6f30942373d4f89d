"""The tracer's counts and self times, on a synthetic package and on qboson."""

import json
import os
import sys
import types

import pytest

import run
import tracer
from tracer import Target, Tracer


@pytest.fixture
def fakepkg():
    outer = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")

    def leaf(x):
        return x + 1

    def middle(x, reps=2):
        return sum(inner.leaf(x) for _ in range(reps))

    inner.leaf, inner.middle = leaf, middle
    outer.middle = middle  # a name bound with "from fakepkg.inner import middle"
    sys.modules.update({"fakepkg": outer, "fakepkg.inner": inner})
    yield outer, inner, leaf, middle
    del sys.modules["fakepkg"], sys.modules["fakepkg.inner"]


def test_self_time_is_span_minus_children(fakepkg):
    outer, inner, leaf, middle = fakepkg
    ticks = iter(range(1000))
    targets = (Target("fakepkg.inner", "middle", work=("reps", lambda a: a["reps"])),
               Target("fakepkg.inner", "leaf"))
    tr = Tracer(targets=targets, package="fakepkg", clock=lambda: float(next(ticks)))
    with tr:
        assert outer.middle is inner.middle is not middle
        assert outer.middle(1, reps=3) == 6
    # clock reads: middle 0; leaf (1,2) (3,4) (5,6); middle 7
    m = tr.metrics()
    assert m == {"inner.middle.calls": 1, "inner.middle.self_s": 4.0, "inner.middle.reps": 3,
                 "inner.leaf.calls": 3, "inner.leaf.self_s": 3.0}
    spans = {(s["parent"], s["span"]): s for s in tr.span_table()}
    assert spans[("", "inner.middle")]["total_s"] == 7.0
    assert spans[("inner.middle", "inner.leaf")]["calls"] == 3
    assert outer.middle is middle and inner.leaf is leaf


def test_counts_on_a_tiny_qboson_call():
    from qboson import dynamics, plancherel
    from qboson.contours import integrate
    from qboson.eigenfunctions import EigenFamily
    from qboson.qcore import WeylVector

    original_scattering = EigenFamily.scattering
    with Tracer() as tr:
        spec = dynamics.MomentSpec(WeylVector((1,)), 0.5, "step")
        dynamics.moment_formula(spec)
        assert dynamics.integrate is not integrate and plancherel.integrate is dynamics.integrate
    m = tr.metrics()
    assert m["qcore.WeylVector.calls"] == 1
    assert m["dynamics.moment_formula.calls"] == 1
    assert m["contours.integrate.calls"] == 1
    assert m["contours.integrate.nodes"] == 256  # k = 1 uses 256 nodes
    assert m["dynamics.moment_formula.self_s"] >= 0.0
    assert m["eigenfunctions.eigen_eval.calls"] == 0
    assert dynamics.integrate is integrate and EigenFamily.scattering is original_scattering
    assert sorted(m) == sorted(tracer.metric_names())


def test_benchmark_json_names_every_metric():
    root = os.path.dirname(run.HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == run.PER_LAYER
    assert len(run.PER_LAYER) == 84
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
