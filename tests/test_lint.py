"""Static checks on the package source that no installed linter covers."""

import ast
import functools
import importlib
import importlib.util
import inspect
import sys
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


def names_read(source: str) -> set[str]:
    """Every name the source reads, as a bare name or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_public_definitions(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """``module:line name`` of each public definition that no source reads
    by name (a method by its own name), unless ``exempt`` holds its
    (module, name)."""
    read = set().union(*(names_read(text) for text in sources.values()))
    return [f"{module}:{line} {name}" for module, text in sorted(sources.items())
            for line, name in public_definitions(text)
            if name.rsplit(".", 1)[-1] not in read and (module, name) not in exempt]


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
                     "    def traced(self):\n        pass\n"),
        "qboson.b": ("from qboson import a\n"
                     "only_stored = None\n"
                     "def entry():\n    return a.helper(), a.Box().used()\n"
                     "if __name__ == '__main__':\n    entry()\n"),
    }
    exempt = {("qboson.a", "traced"), ("qboson.a", "Box.traced")}
    assert unread_public_definitions(sources, exempt) == [
        "qboson.a:7 only_stored", "qboson.a:14 Box.unused"]


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
    # perfbench/tracer.py wraps these names with a bare getattr, so a
    # deleted or renamed one breaks only the benchmark unless caught here
    tracer = _load_tracer()
    assert tracer.QBOSON_TARGETS
    for tg in tracer.QBOSON_TARGETS:
        obj = functools.reduce(getattr, tg.attr.split("."), importlib.import_module(tg.module))
        assert callable(obj), tg.name


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
