"""Command-line front end.

Three subcommands: ``fig1`` sweeps the mixing angle and tabulates mutual
information and both single-mode negativities for a number-state pair;
``fig3`` integrates the coupled dissipative dynamics and tabulates the
reduced-mode fidelity and normalized coherence, with the detected
backflow intervals in a summary block; ``query`` prints a single number
(energy eigenvalue, Gaussian fidelity, coherence, or a marginal
negativity).

Configuration is a flat text file of dotted ``key=value`` pairs,
overridable with repeated ``--set key=value`` flags (flags win).
``--dump-config`` prints the fully resolved configuration in the same
format; re-running from that dump reproduces the output byte for byte.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fock_dynamics import FockPairState, OscillatorParams, energy, mode_populations
from .gaussian_states import (
    GaussianState,
    ThermalBath,
    UnphysicalStateError,
    coherence,
    fidelity,
    state_to_record,
    thermal_state,
)
from .info_measures import mutual_information, negativity
from .open_dynamics import evolve_coupled, rising_intervals

__all__ = ["ConfigError", "main", "resolve_config", "run_fig1", "run_fig3", "run_query"]


class ConfigError(Exception):
    """Bad key, bad value, or unparseable configuration input."""


def _fmt(value: float) -> str:
    """Canonical lossless decimal form of a double."""
    return format(float(value), ".17g")


_COMMON_DEFAULTS = {
    "physics.hbar": "1",
    "physics.mass": "1",
    "physics.omega": "1",
}

FIG1_DEFAULTS = {
    **_COMMON_DEFAULTS,
    "physics.k": "1",
    "physics.l": "0",
    "numeric.theta_min": "0",
    "numeric.theta_max": _fmt(math.pi),
    "numeric.theta_step": _fmt(math.pi / 200),
}

FIG3_DEFAULTS = {
    **_COMMON_DEFAULTS,
    "physics.gamma": "0.1",
    "physics.decay_rate": "0.1",
    "physics.nbar": "2",
    "physics.mbar": "4",
    "physics.displacement": "1,1,1,1",
    "physics.initial_covariance": "adjusted",
    "numeric.t_max": "6",
    "numeric.t_step": "0.005",
    "numeric.backflow_tol": "1e-09",
}


def load_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _merged(defaults: dict[str, str], sources: list[dict[str, str]]) -> dict[str, str]:
    merged = dict(defaults)
    for source in sources:
        for key, value in source.items():
            if key not in defaults:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = value
    return merged


def _as_float(cfg: dict[str, str], key: str) -> float:
    try:
        value = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite")
    return value


def _as_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from exc


def _as_floats(cfg: dict[str, str], key: str, count: int | None = None) -> list[float]:
    parts = [p for p in cfg[key].split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{key} must be comma-separated numbers, got {cfg[key]!r}") from exc
    if count is not None and len(values) != count:
        raise ConfigError(f"{key} must have {count} entries, got {len(values)}")
    return values


def resolve_config(experiment: str, path: str | None, sets: list[str]) -> dict[str, str]:
    """Defaults + config file + --set overrides, with derived keys filled in.

    The result is fully materialized: every value the run consumes appears
    as a canonical string, so dumping and re-loading it cannot change the
    output.
    """
    defaults = {"fig1": FIG1_DEFAULTS, "fig3": FIG3_DEFAULTS}[experiment]
    sources = []
    if path is not None:
        sources.append(load_config_file(path))
    sources.append(parse_overrides(sets))
    cfg = _merged(defaults, sources)

    if experiment == "fig1":
        k, ell = _as_int(cfg, "physics.k"), _as_int(cfg, "physics.l")
        if k < 0 or ell < 0:
            raise ConfigError("quantum numbers must be nonnegative")
        for key in ("numeric.theta_min", "numeric.theta_max", "numeric.theta_step"):
            cfg[key] = _fmt(_as_float(cfg, key))
        if _as_float(cfg, "numeric.theta_step") <= 0:
            raise ConfigError("numeric.theta_step must be positive")
        if _as_float(cfg, "numeric.theta_max") < _as_float(cfg, "numeric.theta_min"):
            raise ConfigError("numeric.theta_max must not be below numeric.theta_min")
    else:
        gammas = _as_floats(cfg, "physics.gamma")
        if not gammas:
            raise ConfigError("physics.gamma must list at least one value")
        if len(set(gammas)) != len(gammas):
            raise ConfigError("physics.gamma lists a value twice; each value names its own output file")
        cfg["physics.gamma"] = ",".join(_fmt(g) for g in gammas)
        if _as_float(cfg, "physics.decay_rate") <= 0:
            raise ConfigError("physics.decay_rate must be positive for the fig3 time axis")
        if _as_float(cfg, "physics.nbar") < 0 or _as_float(cfg, "physics.mbar") < 0:
            raise ConfigError("occupation numbers must be nonnegative")
        _as_floats(cfg, "physics.displacement", 4)
        if cfg["physics.initial_covariance"] not in ("adjusted", "thermal"):
            raise ConfigError("physics.initial_covariance must be 'adjusted' or 'thermal'")
        for key in ("numeric.t_max", "numeric.t_step", "numeric.backflow_tol"):
            cfg[key] = _fmt(_as_float(cfg, key))
        if _as_float(cfg, "numeric.t_step") <= 0 or _as_float(cfg, "numeric.t_max") <= 0:
            raise ConfigError("time grid values must be positive")

    for key in ("physics.hbar", "physics.mass", "physics.omega"):
        if _as_float(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive")
        cfg[key] = _fmt(_as_float(cfg, key))
    return cfg


def _params(cfg: dict[str, str], gamma: float) -> OscillatorParams:
    return OscillatorParams(
        mass=_as_float(cfg, "physics.mass"),
        omega=_as_float(cfg, "physics.omega"),
        hbar=_as_float(cfg, "physics.hbar"),
        gamma=gamma,
    )


def run_fig1(cfg: dict[str, str]) -> dict:
    """Sweep theta and tabulate mutual information and both negativities."""
    k, ell = _as_int(cfg, "physics.k"), _as_int(cfg, "physics.l")
    # curves depend on the dimensionless angle theta = gamma*t only, so
    # the sweep runs at unit coupling with t = theta
    state = FockPairState(k, ell, _params(cfg, gamma=1.0))
    lo = _as_float(cfg, "numeric.theta_min")
    hi = _as_float(cfg, "numeric.theta_max")
    step = _as_float(cfg, "numeric.theta_step")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    thetas = lo + step * np.arange(count)
    probs = mode_populations(state, thetas)
    return {
        "columns": {
            "theta": thetas,
            "mutual_information": mutual_information(state, thetas),
            "negativity_mode1": negativity(probs),
            "negativity_mode2": negativity(probs[:, ::-1]),
        },
    }


def _fig3_initial_state(cfg: dict[str, str]) -> GaussianState:
    hbar = _as_float(cfg, "physics.hbar")
    nbar = _as_float(cfg, "physics.nbar")
    d = np.asarray(_as_floats(cfg, "physics.displacement", 4))
    cov = np.zeros((4, 4))
    for mode in (0, 1):
        sl = slice(2 * mode, 2 * mode + 2)
        if cfg["physics.initial_covariance"] == "adjusted":
            # isotropic block sized so the displaced mode carries nbar quanta
            a = hbar * (4 * nbar + 2 - float(d[sl] @ d[sl]) / hbar) / 2.0
            if a < hbar:
                raise ConfigError(
                    "physics.nbar too small for the requested displacement; "
                    "use physics.initial_covariance=thermal"
                )
        else:
            a = (2 * nbar + 1) * hbar
        cov[sl, sl] = a * np.eye(2)
    return GaussianState(d, cov, hbar)


def run_fig3(cfg: dict[str, str], gamma: float) -> dict:
    """Integrate one coupled dissipative run and tabulate the witnesses."""
    rate = _as_float(cfg, "physics.decay_rate")
    bath = ThermalBath(rate, _as_float(cfg, "physics.mbar"))
    initial = _fig3_initial_state(cfg)
    t_max = _as_float(cfg, "numeric.t_max")
    t_step = _as_float(cfg, "numeric.t_step")
    count = int(math.floor(t_max / t_step + 1e-9)) + 1
    scaled = t_step * np.arange(count)  # dimensionless Gamma*t axis
    record = evolve_coupled(initial, _params(cfg, gamma), bath, scaled / rate)
    tol = _as_float(cfg, "numeric.backflow_tol")
    backflow = [(a * rate, b * rate) for a, b in record.backflow_intervals]
    rises = [(a * rate, b * rate) for a, b in rising_intervals(record.times, record.coherence_track, tol)]
    c0 = record.coherence_track[0]
    if c0 > 0:
        normalized = record.coherence_track / c0
    else:
        normalized = np.where(record.coherence_track == 0.0, 1.0, math.inf)
    return {
        "columns": {
            "t": scaled,
            "fidelity": record.fidelity_track,
            "coherence_normalized": normalized,
            "coherence_raw": record.coherence_track,
        },
        "summary": {
            "gamma": gamma,
            "backflow_intervals": backflow,
            "coherence_rise_intervals": rises,
        },
        "initial_state": state_to_record(initial),
    }


def _csv_text(result: dict) -> str:
    columns = result["columns"]
    names = list(columns)
    lines = [",".join(names)]
    length = len(next(iter(columns.values())))
    for i in range(length):
        lines.append(",".join(_fmt(columns[name][i]) for name in names))
    summary = result.get("summary")
    if summary:
        lines.append(f"# backflow_intervals,{len(summary['backflow_intervals'])}")
        for a, b in summary["backflow_intervals"]:
            lines.append(f"# backflow_interval,{_fmt(a)},{_fmt(b)}")
    return "\n".join(lines) + "\n"


def _json_text(experiment: str, result: dict, cfg: dict[str, str]) -> str:
    payload = {
        "experiment": experiment,
        "columns": {name: [float(v) for v in values] for name, values in result["columns"].items()},
        "metadata": {"config": dict(sorted(cfg.items())), "version": __version__},
    }
    if "summary" in result:
        payload["summary"] = {
            "gamma": result["summary"]["gamma"],
            "backflow_intervals": [[float(a), float(b)] for a, b in result["summary"]["backflow_intervals"]],
            "coherence_rise_intervals": [
                [float(a), float(b)] for a, b in result["summary"]["coherence_rise_intervals"]
            ],
        }
    if "initial_state" in result:
        payload["metadata"]["initial_state"] = result["initial_state"]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


QUERY_PARAMS = {
    "eigen": {"k": "1", "l": "0", "gamma": "0", "hbar": "1", "mass": "1", "omega": "1"},
    "fidelity": {"nbar1": "0", "nbar2": "0", "d1": "0,0", "d2": "0,0", "hbar": "1"},
    "coherence": {"nbar": "0", "d": "0,0", "hbar": "1"},
    "negativity": {"k": "1", "l": "0", "theta": "0", "mode": "1", "hbar": "1", "mass": "1", "omega": "1"},
}


def run_query(quantity: str, params: dict[str, str]) -> str:
    """Evaluate one scalar quantity and return its printable form."""
    cfg = _merged(QUERY_PARAMS[quantity], [params])
    if quantity == "eigen":
        osc = OscillatorParams(
            mass=_as_float(cfg, "mass"), omega=_as_float(cfg, "omega"),
            hbar=_as_float(cfg, "hbar"), gamma=_as_float(cfg, "gamma"),
        )
        value = energy(_as_int(cfg, "k"), _as_int(cfg, "l"), osc)
        return f"{value:.12g}"
    if quantity == "fidelity":
        hbar = _as_float(cfg, "hbar")
        states = []
        for tag in ("1", "2"):
            base = thermal_state(_as_float(cfg, "nbar" + tag), hbar)
            d = np.asarray(_as_floats(cfg, "d" + tag, 2))
            states.append(GaussianState(d, base.cov, hbar))
        return f"{fidelity(states[0], states[1]):.12g}"
    if quantity == "coherence":
        hbar = _as_float(cfg, "hbar")
        base = thermal_state(_as_float(cfg, "nbar"), hbar)
        d = np.asarray(_as_floats(cfg, "d", 2))
        return f"{coherence(GaussianState(d, base.cov, hbar)):.12g} bits"
    if quantity == "negativity":
        k, ell = _as_int(cfg, "k"), _as_int(cfg, "l")
        if _as_int(cfg, "mode") not in (1, 2):
            raise ConfigError("mode must be 1 or 2")
        osc = OscillatorParams(
            mass=_as_float(cfg, "mass"), omega=_as_float(cfg, "omega"),
            hbar=_as_float(cfg, "hbar"), gamma=1.0,
        )
        probs = mode_populations(FockPairState(k, ell, osc), _as_float(cfg, "theta"), _as_int(cfg, "mode"))
        return f"{negativity(probs):.12g}"
    raise ConfigError(f"unknown query quantity {quantity!r}")


def _dump(cfg: dict[str, str]) -> str:
    return "\n".join(f"{key}={value}" for key, value in sorted(cfg.items())) + "\n"


def _with_suffix(path: Path, suffix: str) -> Path:
    return path.with_name(path.stem + suffix + path.suffix)


def _run_experiment(args) -> int:
    cfg = resolve_config(args.command, args.config, args.set)
    if args.dump_config:
        sys.stdout.write(_dump(cfg))
        return 0
    fmt = args.format
    out = Path(args.out) if args.out else Path(f"{args.command}.{fmt}")
    if args.command == "fig1":
        result = run_fig1(cfg)
        text = _csv_text(result) if fmt == "csv" else _json_text("fig1", result, cfg)
        out.write_text(text)
        print(out)
        return 0
    gammas = _as_floats(cfg, "physics.gamma")
    # shortest round-trip form, so distinct values (rejected if repeated) never share a file
    targets = [out] if len(gammas) == 1 else [
        _with_suffix(out, "_gamma" + repr(g).removesuffix(".0")) for g in gammas
    ]
    for gamma, target in zip(gammas, targets):
        result = run_fig3(cfg, gamma)
        text = _csv_text(result) if fmt == "csv" else _json_text("fig3", result, cfg)
        target.write_text(text)
        print(target)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerosc",
        description="Phase-space experiments for two coupled oscillators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("fig1", "mixing-angle sweep: mutual information and negativities"),
        ("fig3", "dissipative run: fidelity and normalized coherence"),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", help="flat key=value configuration file")
        sp.add_argument("--out", help=f"output path (default {name}.<format>)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one configuration key (repeatable; wins over --config)")
        sp.add_argument("--dump-config", action="store_true",
                        help="print the resolved configuration and exit")
    qp = sub.add_parser("query", help="print a single quantity")
    qp.add_argument("quantity", choices=sorted(QUERY_PARAMS))
    qp.add_argument("params", nargs="*", metavar="KEY=VALUE")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "query":
            print(run_query(args.quantity, parse_overrides(args.params)))
            return 0
        return _run_experiment(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except UnphysicalStateError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
