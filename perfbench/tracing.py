"""Per-layer timing of the wignerosc modules, measured from outside.

The tracer replaces each traced function at every module attribute that
binds it (``from .x import y`` makes several bindings), and methods on
their class, with a wrapper that records a span and counts calls, self
time, work size and raised exceptions.  Nothing in the library changes.
A symbol that no longer exists is listed as absent and reports zeros.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "wignerosc"


def _size(*arrays) -> int:
    return int(np.broadcast(*arrays).size)


# (module, attribute path, metric name, work size of one call from its arguments)
SYMBOLS = (
    ("quadrature", "integrate_grid", "quadrature.integrate_grid", lambda a: _size(a[0])),
    ("quadrature", "laguerre", "quadrature.laguerre", lambda a: _size(a[1])),
    ("quadrature", "gauss_hermite", "quadrature.gauss_hermite", None),
    ("fock_dynamics", "marginal_profile", "fock_dynamics.marginal_profile", lambda a: _size(a[3], a[4])),
    ("info_measures", "negativity", "info_measures.negativity", None),
    ("info_measures", "WignerField.__call__", "info_measures.WignerField.call", lambda a: _size(*a[1:])),
    ("info_measures", "marginal_field", "info_measures.marginal_field", None),
    ("info_measures", "mutual_information", "info_measures.mutual_information", None),
    ("info_measures", "linear_entropy", "info_measures.linear_entropy", None),
    ("gaussian_states", "GaussianState.__init__", "gaussian_states.GaussianState.init", None),
    ("gaussian_states", "fidelity", "gaussian_states.fidelity", None),
    ("gaussian_states", "coherence", "gaussian_states.coherence", None),
    ("gaussian_states", "reduce_mode", "gaussian_states.reduce_mode", None),
    ("gaussian_states", "symplectic_nu", "gaussian_states.symplectic_nu", None),
    ("open_dynamics", "evolve_coupled", "open_dynamics.evolve_coupled", lambda a: _size(a[3])),
    ("open_dynamics", "backflow_intervals", "open_dynamics.intervals", None),
    ("open_dynamics", "rising_intervals", "open_dynamics.intervals", None),
    ("cli", "main", "cli.main", None),
    ("cli", "resolve_config", "cli.resolve_config", None),
    ("cli", "run_fig1", "cli.run", None),
    ("cli", "run_fig3", "cli.run", None),
    ("cli", "run_query", "cli.run", None),
)

# Which per-layer metrics each traced name reports.
FIELDS = {
    "quadrature.integrate_grid": ("calls", "self_s", "points"),
    "quadrature.laguerre": ("calls", "self_s", "points"),
    "quadrature.gauss_hermite": ("calls", "self_s"),
    "fock_dynamics.marginal_profile": ("calls", "self_s", "points"),
    "info_measures.negativity": ("calls", "self_s", "failed"),
    "info_measures.WignerField.call": ("calls", "self_s", "points"),
    "info_measures.marginal_field": ("calls", "self_s"),
    "info_measures.mutual_information": ("calls", "self_s"),
    "info_measures.linear_entropy": ("calls", "self_s"),
    "gaussian_states.GaussianState.init": ("calls", "self_s"),
    "gaussian_states.fidelity": ("calls", "self_s"),
    "gaussian_states.coherence": ("calls", "self_s"),
    "gaussian_states.reduce_mode": ("calls", "self_s"),
    "gaussian_states.symplectic_nu": ("calls", "self_s"),
    "open_dynamics.evolve_coupled": ("calls", "self_s", "points"),
    "open_dynamics.intervals": ("self_s",),
    "cli.main": ("calls", "self_s"),
    "cli.resolve_config": ("self_s",),
    "cli.run": ("self_s",),
}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    points: int = 0
    failed: int = 0


class Tracer:
    """Installs and removes the wrappers; spans stay in memory until written."""

    def __init__(self):
        self.stats = {name: Stat() for name in FIELDS}
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent id, name, start, end
        self.absent: list[str] = []
        self._stack: list[list] = []  # open frames: [span id, child time]
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {name: Stat() for name in FIELDS}
        self.spans = []

    def install(self) -> None:
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, path, name, points in SYMBOLS:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, points)
            if outer:  # a method: its class is the only binding
                self._bind(owner, attr, original, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _bind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, name: str, fn, points):
        stack, clock, ids = self._stack, time.perf_counter, self._ids

        def wrapper(*args, **kwargs):
            stat = self.stats[name]
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat.failed += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if points is not None:
                    try:
                        stat.points += points(args)
                    except (IndexError, ValueError):  # called with another signature
                        pass
                if parent is not None:
                    parent[1] += duration
                self.spans.append((frame[0], parent[0] if parent else 0, name, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Flat per-layer values, keyed like the BENCHMARK.json per_layer names."""
        out = {}
        for name, fields in FIELDS.items():
            stat = self.stats[name]
            for f in fields:
                out[f"{name}.{f}"] = getattr(stat, f)
        return out
