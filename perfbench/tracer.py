"""Spans around the calls into qboson's layers, recorded from outside.

The tracer replaces each named public function with a wrapper: in its home
module, in every other module of the package that bound the same object with
``from ... import``, and, for methods and constructors, on the class.  A
timed wrapper records a span (its duration, its self time = duration minus
the time its child spans cover, and any work count derived from the call's
arguments); a counting wrapper only counts calls, for callees hit millions
of times where a clock read per call would swamp the work.  Spans are
aggregated in memory per (parent span, span) edge and read out when the run
ends; ``remove`` puts every original back.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _integrate_nodes(a) -> int:
    return a["spec"].nodes ** a["cs"].k


def _ensemble_paths(a) -> int:
    return int(a["paths"])


def _euler_path_steps(a) -> int:
    # oy_simulate takes max(1, round(t / dt)) Euler steps per path
    return int(a["paths"]) * max(1, int(round(a["t"] / a["dt"])))


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` is a dotted path inside ``module``."""

    module: str
    attr: str
    timed: bool = True
    work: tuple[str, Callable] | None = None  # (metric suffix, fn of bound args)

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


QBOSON_TARGETS = (
    Target("qboson.eigenfunctions", "eigen_eval_grid"),
    Target("qboson.eigenfunctions", "eigen_eval"),
    Target("qboson.eigenfunctions", "EigenFamily.scattering", timed=False),
    Target("qboson.qcore", "WeylVector", timed=False),
    Target("qboson.generators", "generator_apply"),
    Target("qboson.generators", "matrix_on_box"),
    Target("qboson.generators", "uniformized_transition"),
    Target("qboson.generators", "dense_exponential_transition"),
    Target("qboson.contours", "integrate", work=("nodes", _integrate_nodes)),
    Target("qboson.contours", "contract_powers"),
    Target("qboson.plancherel", "mu_density_grid"),
    Target("qboson.plancherel", "inverse_J"),
    Target("qboson.plancherel", "inverse_J_batch"),
    Target("qboson.plancherel", "composition_table"),
    Target("qboson.plancherel", "residue_expand_nested"),
    Target("qboson.plancherel", "residue_expand_sum"),
    Target("qboson.plancherel", "transform_F_grid"),
    Target("qboson.dynamics", "qtasep_sample_ensemble", work=("paths", _ensemble_paths)),
    Target("qboson.dynamics", "qboson_sample_ensemble"),
    Target("qboson.dynamics", "moment_formula"),
    Target("qboson.dynamics", "transition_probability"),
    Target("qboson.dynamics", "solve_evolution_batch"),
    Target("qboson.dynamics", "identity_halfstat_transform"),
    Target("qboson.degenerations", "deriv_matrices"),
    Target("qboson.degenerations", "spectral_orthogonality_sides"),
    Target("qboson.degenerations", "sd_moment_formula"),
    Target("qboson.degenerations", "oy_simulate", work=("path_steps", _euler_path_steps)),
)


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0
    work: int = 0


@dataclass
class Tracer:
    targets: tuple[Target, ...] = QBOSON_TARGETS
    package: str = "qboson"
    clock: Callable[[], float] = time.perf_counter
    stats: dict[str, _Stat] = field(default_factory=dict)
    # (parent span name or "", span name) -> [calls, total_s, self_s]
    edges: dict[tuple[str, str], list] = field(default_factory=dict)
    _stack: list = field(default_factory=list)  # [name, child_s] per open span
    _patches: list = field(default_factory=list)  # (owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, tg: Target, orig: Callable) -> Callable:
        stat = self.stats[tg.name]
        stack, edges, clock, name = self._stack, self.edges, self.clock, tg.name
        sig = inspect.signature(orig) if tg.work else None

        def wrapper(*args, **kwargs):
            if sig is not None:
                stat.work += tg.work[1](sig.bind(*args, **kwargs).arguments)
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                stat.calls += 1
                stat.self_s += own
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += own

        return wrapper

    def _counted(self, tg: Target, orig: Callable) -> Callable:
        stat = self.stats[tg.name]

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return orig(*args, **kwargs)

        return wrapper

    # -- install / remove ---------------------------------------------------

    def _package_modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._package_modules()
        for tg in self.targets:
            self.stats[tg.name] = _Stat()
            home = sys.modules[tg.module]
            *path, leaf = tg.attr.split(".")
            obj = home
            for part in path:
                obj = getattr(obj, part)
            orig = getattr(obj, leaf)
            if isinstance(orig, type):
                # a constructor: count through __init__ so every module's
                # reference to the class (and isinstance) keeps working
                self._set(orig, "__init__", self._counted(tg, orig.__init__))
                continue
            wrapper = self._timed(tg, orig) if tg.timed else self._counted(tg, orig)
            if path:  # a method: patch it on its class
                self._set(obj, leaf, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for tg in self.targets:
            st = self.stats.get(tg.name, _Stat())
            out[f"{tg.name}.calls"] = st.calls
            if tg.timed:
                out[f"{tg.name}.self_s"] = st.self_s
            if tg.work is not None:
                out[f"{tg.name}.{tg.work[0]}"] = st.work
        return out

    def span_table(self) -> list[dict]:
        return [{"parent": p, "span": s, "calls": c, "total_s": tot, "self_s": own}
                for (p, s), (c, tot, own) in sorted(self.edges.items())]


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in target order."""
    return list(Tracer().metrics())
