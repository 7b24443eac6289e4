"""Checks CLI outputs against the independent references in reference.py.

Each check returns the largest absolute deviation found, the number of
values compared, and a list of problems; a problem is a value outside its
tolerance, a wrong row count, or a backflow-interval count that differs
from the reference.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

import reference

# Absolute tolerances the seed code meets, with headroom.  The grid
# negativity certifies about 1e-4 (its step-halving accepts two refinements
# within max(5e-4 |value|, 2e-4)); the RK4 tracks are within 4e-10 of the
# exact propagator; mutual information is a Gauss-Hermite sum of a
# polynomial, exact to rounding.
TOLERANCES = {
    "theta": 1e-12,
    "t": 1e-12,
    "mutual_information": 1e-9,
    "negativity_mode1": 5e-4,
    "negativity_mode2": 5e-4,
    "negativity": 5e-4,
    "fidelity": 1e-8,
    "coherence_normalized": 1e-8,
    "coherence_raw": 1e-8,
}


@dataclass
class Outcome:
    max_err: float = 0.0
    values: int = 0
    problems: list[str] = field(default_factory=list)

    def compare(self, name: str, got, want) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.problems.append(f"{name}: {got.size} values, reference has {want.size}")
            return
        err = np.abs(got - want)
        err[~np.isfinite(err)] = np.inf
        if not err.size:
            return
        i = int(np.argmax(err))
        worst = float(err[i])
        self.max_err = max(self.max_err, worst)
        self.values += err.size
        if worst > TOLERANCES[name]:
            self.problems.append(
                f"{name}[{i}] = {got[i]!r}, reference {want[i]!r}: off by {worst:.3g} > {TOLERANCES[name]:g}"
            )

    def intervals(self, name: str, got: list, want: list, step: float) -> None:
        if len(got) != len(want):
            self.problems.append(f"{name}: {len(got)} intervals, reference has {len(want)}")
            return
        for (a, b), (c, d) in zip(got, want):
            if abs(a - c) > step or abs(b - d) > step:
                self.problems.append(f"{name}: interval ({a}, {b}), reference ({c}, {d})")


def _read_columns(text: str, fmt: str) -> tuple[dict[str, list[float]], dict]:
    """Columns and, for fig3, the interval summary of a CSV or JSON output."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["columns"], payload.get("summary", {})
    lines = text.splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    table = list(csv.reader(io.StringIO("\n".join(rows))))
    header, body = table[0], table[1:]
    columns = {name: [float(row[i]) for row in body] for i, name in enumerate(header)}
    backflow = [
        [float(a), float(b)]
        for tag, a, b in (line[2:].split(",") for line in lines if line.startswith("# backflow_interval,"))
    ]
    counts = [int(line.split(",")[1]) for line in lines if line.startswith("# backflow_intervals,")]
    if not counts:
        return columns, {}
    if counts != [len(backflow)]:
        raise ValueError(f"backflow summary lists {counts} intervals but {len(backflow)} lines")
    return columns, {"backflow_intervals": backflow}


class Checker:
    """Compares outputs with the references; the stored fig1 table is read once."""

    def __init__(self):
        self._fock = None

    def fock(self, k: int, ell: int) -> dict:
        if self._fock is None:
            self._fock = reference.load_fock_table()
        return self._fock[f"{k},{ell}"]

    def check(self, spec: dict, text: str) -> Outcome:
        """Check one successful operation's output (file text or stdout)."""
        outcome = Outcome()
        try:
            getattr(self, "_check_" + spec["kind"])(spec, text, outcome)
        except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            outcome.problems.append(f"unreadable output: {exc!r}")
        return outcome

    def _check_fig1(self, spec, text, outcome):
        columns, _ = _read_columns(text, spec["format"])
        ref = self.fock(*spec["pair"])
        outcome.compare("theta", columns["theta"], reference.theta_grid())
        for name in ("mutual_information", "negativity_mode1", "negativity_mode2"):
            outcome.compare(name, columns[name], ref[name])

    def _check_query(self, spec, text, outcome):
        want = self.fock(*spec["pair"])[f"negativity_mode{spec['mode']}"][spec["index"]]
        outcome.compare("negativity", [float(text.strip())], [want])

    def _check_fig3(self, spec, text, outcome):
        columns, summary = _read_columns(text, spec["format"])
        ref = reference.fig3_reference(spec["t_max"], spec["t_step"], spec["displacement"])
        for name, want in ref["columns"].items():
            outcome.compare(name, columns[name], want)
        step = spec["t_step"]
        outcome.intervals("backflow_intervals", summary["backflow_intervals"], ref["backflow_intervals"], step)
        if spec["format"] == "json":
            outcome.intervals(
                "coherence_rise_intervals", summary["coherence_rise_intervals"], ref["coherence_rise_intervals"], step
            )
