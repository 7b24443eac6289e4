"""The numeric half of the command line: the runs of ``fig1``, ``fig3`` and ``query``, and the writers.

``cli`` resolves and validates a configuration without numpy and imports this
module only when a run starts computing.  Each function takes the resolved
configuration of ``cli.resolve_config``, whose values are canonical text.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import ConfigError, NumericFailure, __version__
from .floattext import json_join
from .fock_dynamics import FockPairState, OscillatorParams, energy, mode_populations
from .gaussian_states import GaussianState, ThermalBath, coherence, fidelity, state_to_record
from .info_measures import MAX_QUANTA, NegativityError, negativity, pair_information
from .open_dynamics import backflow_intervals, evolve_coupled, rising_intervals


def _axis(start: float, stop: float, step: float, key: str) -> np.ndarray:
    """start, start + step, ... up to stop, which a rounding error of 1e-9 steps still includes.

    A point count too large to allocate is a ConfigError naming key, the step's key.
    """
    points = np.floor((stop - start) / step + 1e-9) + 1  # a float, inf once the count passes the floats
    try:
        return start + step * np.arange(int(points))
    except (OverflowError, MemoryError, ValueError):  # an infinite count, or too many points to allocate
        raise ConfigError(f"{key} = {step!r} gives {points:.6g} points, too many to allocate") from None


def _pair(k: int, ell: int) -> FockPairState:
    """|k> x |l> at unit coupling, so that its time is the mixing angle theta = gamma*t.

    Pairs past the negativity's quanta limit fail here, before their
    (k + l + 1)^2 generator is built.
    """
    if k + ell > MAX_QUANTA:
        raise NumericFailure(
            f"negativity at k + l = {k + ell}: past {MAX_QUANTA} quanta the negativity scan leaves the floats"
        )
    return FockPairState(k, ell, OscillatorParams(gamma=1.0))


def _negativity(probs: np.ndarray, quanta: int):
    try:
        return negativity(probs)
    except NegativityError as exc:
        raise NumericFailure(f"negativity at k + l = {quanta}: {exc}") from exc


def fig1(cfg: dict[str, str]) -> dict:
    """Sweep theta and tabulate mutual information and both negativities."""
    k, ell = int(cfg["physics.k"]), int(cfg["physics.l"])
    state = _pair(k, ell)
    keys = ("numeric.theta_min", "numeric.theta_max", "numeric.theta_step")
    lo, hi, step = (float(cfg[key]) for key in keys)
    thetas = _axis(lo, hi, step, keys[2])
    try:
        probs = mode_populations(state, thetas)
    except OverflowError as exc:
        raise NumericFailure(f"populations at k + l = {k + ell}: {exc}") from None
    # mode 2's populations are mode 1's reversed: one call takes both sweeps
    both = _negativity(np.concatenate([probs, probs[:, ::-1]]), k + ell)
    return {
        "columns": {
            "theta": thetas,
            "mutual_information": pair_information(probs),
            "negativity_mode1": both[: thetas.size],
            "negativity_mode2": both[thetas.size:],
        },
    }


def _vector(text: str) -> np.ndarray:
    return np.array([float(part) for part in text.split(",")])


def _fig3_initial_state(cfg: dict[str, str]) -> GaussianState:
    """Displacement and each mode's isotropic covariance, in vacuum units."""
    variance = 2.0 * float(cfg["physics.nbar"]) + 1.0
    d = _vector(cfg["physics.displacement"])
    quanta = [v * v for v in d.tolist()]
    adjusted = cfg["physics.initial_covariance"] == "adjusted"
    cov = np.zeros((4, 4))
    for mode in (0, 1):
        sl = slice(2 * mode, 2 * mode + 2)
        # adjusted: sized so the displaced mode carries nbar quanta
        a = variance - sum(quanta[sl]) / 2.0 if adjusted else variance
        if a < 1.0:
            raise ConfigError(
                "physics.nbar too small for the requested displacement; use physics.initial_covariance=thermal"
            )
        cov[sl, sl] = a * np.eye(2)
    return GaussianState(d, cov)


def fig3(cfg: dict[str, str], gamma: float) -> dict:
    """Propagate one coupled dissipative run and tabulate the witnesses."""
    rate, t_max = float(cfg["physics.decay_rate"]), float(cfg["numeric.t_max"])
    if not math.isfinite(t_max / rate):
        keys = ", ".join(f"{key} = {cfg[key]}" for key in ("numeric.t_max", "physics.decay_rate"))
        raise NumericFailure(f"the time span t_max / Gamma leaves the floats ({keys})")
    bath = ThermalBath(rate, float(cfg["physics.mbar"]))
    scaled = _axis(0.0, t_max, float(cfg["numeric.t_step"]), "numeric.t_step")  # dimensionless Gamma*t
    try:
        initial = _fig3_initial_state(cfg)
        record = evolve_coupled(initial, OscillatorParams(gamma=gamma), bath, scaled / rate)
    except (ArithmeticError, ValueError) as exc:  # the propagation or its trajectory checks
        reason = str(exc)
        if hasattr(exc, "index"):  # name the failing sample by its Gamma*t, as in the t column
            reason = f"{reason.partition(' at t = ')[0]} at t = {scaled[exc.index]:.6g}"
        raise NumericFailure(f"propagation at gamma = {gamma!r} failed: {reason}") from exc
    tol = float(cfg["numeric.backflow_tol"])
    c0 = record.coherence_track[0]
    normalized = record.coherence_track / c0 if c0 > 0 else np.where(record.coherence_track == 0.0, 1.0, math.inf)
    return {
        "columns": {
            "t": scaled,
            "fidelity": record.fidelity_track,
            "coherence_normalized": normalized,
            "coherence_raw": record.coherence_track,
        },
        "summary": {
            "gamma": gamma,
            "backflow_intervals": backflow_intervals(scaled, record.fidelity_track, tol),
            "coherence_rise_intervals": rising_intervals(scaled, record.coherence_track, tol),
        },
        "initial_state": state_to_record(initial),
    }


def _query_value(quantity: str, cfg: dict[str, str]) -> float:
    if quantity == "eigen":
        osc = OscillatorParams(omega=float(cfg["omega"]), hbar=float(cfg["hbar"]), gamma=float(cfg["gamma"]))
        return energy(int(cfg["k"]), int(cfg["l"]), osc)
    if quantity == "negativity":
        k, ell = int(cfg["k"]), int(cfg["l"])
        probs = mode_populations(_pair(k, ell), float(cfg["theta"]), int(cfg["mode"]))
        return _negativity(probs, k + ell)
    # thermal states of variance 2 nbar + 1 displaced to d, or d1 and d2 for the fidelity, in vacuum units
    tags = ("1", "2") if quantity == "fidelity" else ("",)
    states = [GaussianState(_vector(cfg["d" + tag]), (2.0 * float(cfg["nbar" + tag]) + 1.0) * np.eye(2))
              for tag in tags]
    return fidelity(*states) if quantity == "fidelity" else coherence(*states)


def query(quantity: str, cfg: dict[str, str]) -> str:
    """The printable value of one scalar quantity."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = _query_value(quantity, cfg)
        except OverflowError as exc:  # an integer too large for a float, or phases of an angle past the floats
            raise NumericFailure(f"{quantity} is not finite at these inputs: {exc}") from None
    if not math.isfinite(value):
        raise NumericFailure(f"{quantity} is not finite ({value}) at these inputs")
    return f"{value:.12g}" + (" bits" if quantity == "coherence" else "")


def csv_text(result: dict) -> bytes:
    """The result's columns as CSV, then the backflow summary as '#' lines, in the file's bytes."""
    columns = result["columns"]
    table = np.array(list(columns.values()), dtype=float).T
    # one C-level % over every cell; b"%.17g" % x is format(x, ".17g"), inf, nan and -0 included
    row = b",".join([b"%.17g"] * table.shape[1])
    lines = [",".join(columns).encode(), b"\n".join([row] * len(table)) % tuple(table.ravel().tolist())]
    summary = result.get("summary")
    if summary:
        lines.append(b"# backflow_intervals,%d" % len(summary["backflow_intervals"]))
        for a, b in summary["backflow_intervals"]:
            lines.append(b"# backflow_interval,%.17g,%.17g" % (a, b))
    return b"\n".join([*lines, b""])


_JSON_ITEM = ",\n      "  # separator of a column's values at indent=2, depth 3
# numpy's fixed cost of about 0.3 ms per column loses to the C encoder below this many values
_NUMPY_JSON_MIN = 1000


def _json_column(values: np.ndarray) -> bytes:
    """The column's values as json.dumps writes them, joined by _JSON_ITEM."""
    if values.size >= _NUMPY_JSON_MIN:
        return json_join(values, _JSON_ITEM.encode())
    return json.dumps(values.tolist(), separators=(_JSON_ITEM, ": "))[1:-1].encode()


def json_text(experiment: str, result: dict, cfg: dict[str, str]) -> bytes:
    """The bytes of json.dumps(payload, sort_keys=True, indent=2) of the result, and a newline.

    indent=2 falls back to the pure-Python encoder, so the columns, which
    sort first, are written one at a time with the indented separator, and
    one join puts them before the text of the rest.  A column of fewer than
    _NUMPY_JSON_MIN values goes through the C encoder (indent=None); a
    longer one through floattext.json_join, which finds the same
    shortest round-trip digits for all its values at once in numpy.
    """
    payload = {
        "experiment": experiment,
        "metadata": {"config": dict(sorted(cfg.items())), "version": __version__},
    }
    if "summary" in result:
        payload["summary"] = result["summary"]  # json writes the interval tuples as lists
    if "initial_state" in result:
        payload["metadata"]["initial_state"] = result["initial_state"]
    parts = [b'{\n  "columns": {\n']
    for i, (name, values) in enumerate(sorted(result["columns"].items())):
        head = b"%s    %s: [\n      " % (b",\n" if i else b"", json.dumps(name).encode())
        parts += [head, _json_column(np.asarray(values, dtype=float)), b"\n    ]"]
    rest = json.dumps(payload, sort_keys=True, indent=2)
    parts.append(("\n  },\n" + rest[2:] + "\n").encode())
    return b"".join(parts)
