"""Static checks on the package source that no installed linter covers."""

import ast
import functools
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qboson"


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including names inside quoted
    annotations and the strings of ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                     if isinstance(n, ast.Name)}
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_module_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import whose name the module never
    reads, unless its line carries flake8's ``noqa: F401`` marker."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, bound))
    return unused


def test_unused_import_detection():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json  # noqa: F401\n"
              "from typing import (\n"
              "    Callable,\n"
              "    Sequence,\n"
              ")\n"
              "__all__ = ['os']\n"
              "def f(x: 'Sequence[int]'):\n"
              "    return x\n")
    assert unused_module_imports(source) == [(5, "Callable")]


def test_no_unused_module_level_imports():
    found = [f"{path.relative_to(SRC.parent)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_module_imports(path.read_text())]
    assert not found, "unused module-level imports:\n" + "\n".join(found)


def public_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each public module-level function and class, and as
    ``Class.method`` of each public method of a public module-level class."""
    out = []
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            out.append((node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(m.lineno, f"{node.name}.{m.name}") for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not m.name.startswith("_")]
    return out


def names_read(source: str) -> tuple[set[str], set[str]]:
    """The names the source reads: (bare names, attribute names)."""
    bare, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return bare, attributes


def unread_public_definitions(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """``module:line name`` of each public definition that no source reads,
    unless ``exempt`` holds its (module, name).  A function or class is read
    by a bare name or an attribute of that name; a method only by an
    attribute (``.total``), since a local variable of the same name does
    not reach it."""
    reads = [names_read(text) for text in sources.values()]
    bare = set().union(*(b for b, _ in reads))
    attributes = set().union(*(a for _, a in reads))

    def read(name: str) -> bool:
        cls, _, attr = name.rpartition(".")
        return attr in attributes or (not cls and attr in bare)

    return [f"{module}:{line} {name}" for module, text in sorted(sources.items())
            for line, name in public_definitions(text)
            if not read(name) and (module, name) not in exempt]


def _load_tracer():
    path = SRC.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer


def test_unread_public_definition_detection():
    sources = {
        "qboson.a": ("class Used:\n    pass\n"
                     "def helper():\n    return Used()\n"
                     "def traced():\n    pass\n"
                     "def only_stored():\n    pass\n"
                     "def _private():\n    pass\n"
                     "class Box:\n"
                     "    def used(self):\n        return self._own()\n"
                     "    def unused(self):\n        pass\n"
                     "    def _own(self):\n        pass\n"
                     "    def traced(self):\n        pass\n"
                     "    def total(self):\n        pass\n"),
        "qboson.b": ("from qboson import a\n"
                     "only_stored = None\n"
                     "def entry():\n    total = 0\n    return a.helper(), a.Box().used(), total\n"
                     "if __name__ == '__main__':\n    entry()\n"),
    }
    exempt = {("qboson.a", "traced"), ("qboson.a", "Box.traced")}
    assert unread_public_definitions(sources, exempt) == [
        "qboson.a:7 only_stored", "qboson.a:14 Box.unused", "qboson.a:20 Box.total"]


def test_no_public_api_that_only_tests_reach():
    # a public function, class or method that nothing in the package reads
    # is reached only by tests, or by nothing; the benchmark's tracer
    # targets are read from outside the package and are exempt
    sources = {"qboson." + ".".join(path.relative_to(SRC).with_suffix("").parts):
               path.read_text() for path in sorted(SRC.rglob("*.py"))}
    exempt = {(tg.module, tg.attr) for tg in _load_tracer().QBOSON_TARGETS}
    found = unread_public_definitions(sources, exempt)
    assert not found, "public definitions read nowhere in src/qboson:\n" + "\n".join(found)


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names with a bare getattr on
    # sys.modules, in a process that has imported qboson.registry only, so a
    # deleted or renamed one, or a module the registry no longer loads, makes
    # Tracer.install raise and breaks only a traced benchmark run unless
    # caught here; a fresh process keeps other tests' imports out of it
    tracer = _load_tracer()
    assert tracer.QBOSON_TARGETS
    for tg in tracer.QBOSON_TARGETS:
        obj = functools.reduce(getattr, tg.attr.split("."), importlib.import_module(tg.module))
        assert callable(obj), tg.name
    code = ("import sys\n"
            f"sys.path[:0] = [{str(SRC.parents[1] / 'perfbench')!r}, {str(SRC.parent)!r}]\n"
            "import qboson.registry\n"
            "from tracer import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "tracer.remove()\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_checks_and_commands_run_without_scipy():
    # scipy serves the tests and generators.dense_exponential_transition
    # alone; these six checks reached it through the box matrices and the
    # matrix oracle's exponential.  A fresh process, so other tests' imports
    # stay out of sys.modules.
    code = ("import sys\n"
            f"sys.path[:0] = [{str(SRC.parent)!r}]\n"
            "import qboson.cli\n"
            "from qboson.registry import run_check\n"
            "loaded = [sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]\n"
            "for cid in ('pt-invariance', 'backward-solver', 'forward-solver',\n"
            "            'transition-prob'):\n"
            "    run_check(cid)\n"
            "for cid in ('moment-step', 'moment-half'):\n"
            "    run_check(cid, paths=200)\n"
            "assert qboson.cli.main(['transition', '--t', '0.7', '--from', '1,0',\n"
            "                        '--to', '0,-1', '--method', 'uniformization']) == 0\n"
            "loaded.append(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print(loaded)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[[], []]"


def test_benchmark_probes_pass():
    # perfbench/worker.py's probes call the layers directly (the backward
    # generator on eigen_eval, and contours.integrate on
    # nested_contours(3, q)); a break there would show only as an incorrect
    # benchmark run unless caught here.  A fresh process, as in the worker.
    code = ("import json, sys\n"
            f"sys.path[:0] = [{str(SRC.parents[1] / 'perfbench')!r}, {str(SRC.parent)!r}]\n"
            "import worker\n"
            "print(json.dumps(worker.probes(0)))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    probes = json.loads(done.stdout)
    assert probes and all(p["ok"] for p in probes), probes


def report_constructions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call that constructs an Accumulator or a Report,
    by bare name or as a module attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("Accumulator", "Report"):
                found.append((node.lineno, name))
    return sorted(found)


def test_report_construction_detection():
    source = ("from qboson import report\n"
              "from qboson.report import Accumulator\n"
              "def check(acc: Accumulator, tolerance=1e-9):\n"
              "    acc.add('x', 1, 1, tolerance)\n"
              "def own():\n"
              "    return Accumulator('x', {}, 0)\n"
              "def built():\n"
              "    return report.Report(*range(11))\n")
    assert report_constructions(source) == [(6, "Accumulator"), (8, "Report")]


def test_checks_leave_the_report_to_the_registry():
    # registry.run_check is the one place that builds an Accumulator and
    # finishes its report; a check only records comparisons in its ``acc``
    found = [f"{path.relative_to(SRC.parent)}:{line} {name}"
             for path in sorted((SRC / "checks").rglob("*.py"))
             for line, name in report_constructions(path.read_text())]
    assert not found, "checks that build their own report:\n" + "\n".join(found)
    from qboson.registry import REGISTRY

    wrong = [cid for cid, cd in REGISTRY.items()
             if next(iter(inspect.signature(cd.fn).parameters), None) != "acc"]
    assert not wrong, "checks whose first parameter is not acc: " + ", ".join(wrong)


def _annotation_names(annotation) -> set[str]:
    """Every name in an annotation, a quoted one included, bare or as the
    attribute of a module."""
    if annotation is None:
        return set()
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval")
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(annotation)
            if isinstance(n, (ast.Name, ast.Attribute))}


def contour_system_knobs(source: str) -> list[tuple[int, str]]:
    """(line, name) of each function that takes a ContourSystem parameter
    together with a parameter named q, model or eps."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if (any("ContourSystem" in _annotation_names(p.annotation) for p in params)
                    and {p.arg for p in params} & {"q", "model", "eps"}):
                found.append((node.lineno, node.name))
    return found


def test_contour_system_knob_detection():
    source = ("from qboson import contours\n"
              "from qboson.contours import ContourSystem\n"
              "def reads(cs: ContourSystem, spec, side='left'):\n    pass\n"
              "def knob(G, cs: ContourSystem, spec, q: float):\n    pass\n"
              "def quoted(cs: 'ContourSystem | None', *, model='qboson'):\n    pass\n"
              "def attr(inner: contours.ContourSystem | int, eps=1.0):\n    pass\n"
              "def bare(cs, q):\n    pass\n"
              "class C:\n"
              "    def method(self, cs: ContourSystem, **eps):\n        pass\n")
    assert contour_system_knobs(source) == [
        (5, "knob"), (7, "quoted"), (9, "attr"), (14, "method")]


def test_contour_systems_are_the_one_source_of_q_eps_and_the_model():
    # an evaluator reads q, the marked point eps and the model from its
    # contour system; a second copy beside it could disagree without a word
    found = [f"{path.relative_to(SRC.parent)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in contour_system_knobs(path.read_text())]
    assert not found, ("functions taking q, model or eps beside a ContourSystem:\n"
                       + "\n".join(found))


def unread_check_keywords(source: str) -> list[tuple[str, str]]:
    """(function, keyword) of each keyword after a leading ``acc`` that the
    function's body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            if params[:1] != ["acc"]:
                continue
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [(node.name, p) for p in params[1:] if p not in read]
    return found


def test_unread_check_keyword_detection():
    source = ("def check_a(acc, q=0.5, seed=0, tolerance=1e-9):\n"
              "    rng = default_rng(seed)\n"
              "    acc.add('x', q, 1, tolerance)\n"
              "def check_b(acc, q=0.5, seed=0, *, nodes=16, tolerance=1e-9):\n"
              "    seed = 3\n"
              "    def inner():\n"
              "        return nodes\n"
              "    acc.add('x', inner(), 1, tolerance)\n"
              "def helper(x, seed=0):\n"
              "    return x\n")
    assert unread_check_keywords(source) == [("check_b", "q"), ("check_b", "seed")]


def test_every_check_reads_each_keyword_it_declares():
    # a keyword is a knob the CLI offers (--param, --seed); one that the
    # check never reads would print the same report for every value
    from qboson.registry import REGISTRY

    found = [f"{cid}: {kw}" for cid, cd in REGISTRY.items()
             for _, kw in unread_check_keywords(textwrap.dedent(inspect.getsource(cd.fn)))]
    assert not found, "check keywords that the check never reads:\n" + "\n".join(found)


def model_branches(source: str, owner: str = "GeneratorKind") -> list[tuple[int, str]]:
    """(line, what) of each read of a ``.model`` attribute and each
    comparison with the string "sd" or "qboson", outside the class ``owner``."""
    tree = ast.parse(source)
    inside = {id(n) for node in tree.body if isinstance(node, ast.ClassDef)
              and node.name == owner for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "model" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, ".model"))
        elif isinstance(node, ast.Compare):
            found += [(node.lineno, repr(n.value)) for side in (node.left, *node.comparators)
                      for n in ast.walk(side)
                      if isinstance(n, ast.Constant) and n.value in ("sd", "qboson")]
    return sorted(found)


def test_model_branch_detection():
    source = ("MODELS = ('qboson', 'sd')\n"
              "class GeneratorKind:\n"
              "    model: str = 'qboson'\n"
              "    def rate(self, c):\n"
              "        return c if self.model == 'sd' else 1.0 - self.q**c\n"
              "def apply(gk, f):\n"
              "    if gk.model == 'sd':\n"
              "        return f(0)\n"
              "    return gk.rate(1) if 'qboson' != gk.kind else 0.0\n"
              "def build(gk, model):\n"
              "    gk.model = model\n"
              "    return model in ('sd', 'other')\n"
              "class Other:\n"
              "    def read(self, gk):\n"
              "        return gk.model\n")
    assert model_branches(source) == [(7, "'sd'"), (7, ".model"), (9, "'qboson'"),
                                      (12, "'sd'"), (15, ".model")]


def test_generators_branch_on_the_model_only_in_generator_kind():
    # both models are one rule, r(c) and d(c) of GeneratorKind; a branch on
    # the model elsewhere in generators.py would write a model out by hand
    found = model_branches((SRC / "generators.py").read_text())
    assert not found, "model branches outside GeneratorKind:\n" + "\n".join(
        f"generators.py:{line} {what}" for line, what in found)


def half_grid_constructions(source: str) -> list[tuple[int, str]]:
    """(line, what) of each slice with step 2, written ``::2`` or as
    ``slice(..., 2)``, and each read of ``finfo``: the embedded half grid
    and the rounding bound of the half-grid rule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Slice) and isinstance(node.step, ast.Constant)
                and node.step.value == 2):
            found.append((node.lineno, "::2"))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "slice"
              and len(node.args) == 3 and isinstance(node.args[2], ast.Constant)
              and node.args[2].value == 2):
            found.append((node.lineno, "slice(..., 2)"))
        elif ((isinstance(node, ast.Name) and node.id == "finfo")
              or (isinstance(node, ast.Attribute) and node.attr == "finfo")):
            found.append((node.lineno, "finfo"))
    return sorted(found)


def test_half_grid_construction_detection():
    source = ("import numpy as np\n"
              "from numpy import finfo\n"
              "def coarse(T, bases):\n"
              "    half = (slice(None, None, 2),) * T.ndim\n"
              "    every = [b[::2] for b in bases]\n"
              "    odd = bases[0][1::2], T[::3], T[:2], slice(0, 2)\n"
              "    return T[half].sum(), np.finfo(float).eps * abs(T).sum()\n"
              "def bound(x):\n"
              "    return finfo(float).eps * x\n")
    assert half_grid_constructions(source) == [
        (4, "slice(..., 2)"), (5, "::2"), (6, "::2"), (7, "finfo"), (9, "finfo")]


def test_contours_owns_the_half_grid_rule():
    # contours.half_grid_sums is the one accumulator of the embedded half
    # grid and its rounding bound; a second copy elsewhere could pick other
    # nodes, another scale or another bound, and skip the non-finite check
    found = [f"{path.relative_to(SRC.parent)}:{line} {what}"
             for path in sorted(SRC.rglob("*.py")) if path != SRC / "contours.py"
             for line, what in half_grid_constructions(path.read_text())]
    assert not found, ("half grids or rounding bounds outside contours.py:\n"
                       + "\n".join(found))


TRANSITION_ORACLES = ("uniformized_transition", "dense_exponential_transition")


def transition_oracle_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import, name, attribute or string constant that
    is one of TRANSITION_ORACLES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.name if isinstance(node, ast.alias) else
                node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.value if isinstance(node, ast.Constant) else None)
        if name in TRANSITION_ORACLES:
            found.append((node.lineno, name))
    return sorted(found)


def test_transition_oracle_name_detection():
    source = ("from qboson.generators import StateBox, uniformized_transition\n"
              "from qboson import generators\n"
              "def price(gk, t, y, box):\n"
              "    a = uniformized_transition(gk, t, y, box)\n"
              "    b = generators.dense_exponential_transition(gk, t, y, box)\n"
              "    c = getattr(generators, 'uniformized_transition')\n"
              "    return a, b, c, generators.matrix_on_box, 'uniformized_transition, once'\n")
    assert transition_oracle_names(source) == [
        (1, "uniformized_transition"), (4, "uniformized_transition"),
        (5, "dense_exponential_transition"), (6, "uniformized_transition")]


def test_transitions_run_through_the_matrix_oracle():
    # the package prices a transition as the forward solve of
    # dynamics.matrix_evolution_batch; the two transition oracles on a given
    # box in generators.py serve the tests and the benchmark's tracer alone
    found = [f"{path.relative_to(SRC.parent)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py")) if path != SRC / "generators.py"
             for line, name in transition_oracle_names(path.read_text())]
    assert not found, ("transition oracles named outside generators.py:\n"
                       + "\n".join(found))
