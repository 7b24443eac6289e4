"""Command-line front end.

Three subcommands: ``fig1`` sweeps the mixing angle and tabulates mutual
information and both single-mode negativities for a number-state pair;
``fig3`` propagates the coupled dissipative dynamics and tabulates the
reduced-mode fidelity and normalized coherence, with the detected
backflow intervals in a summary block; ``query`` prints a single number
(energy eigenvalue, Gaussian fidelity, coherence, or a marginal
negativity).

Configuration is a flat text file of dotted ``key=value`` pairs,
overridable with repeated ``--set key=value`` flags (flags win).
``KEYS`` names every key of each command with its parser and default,
and every resolved value is canonical text.  ``--dump-config`` prints
the fully resolved configuration in the same format; re-running from
that dump reproduces the output byte for byte.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.

This module needs only the standard library: ``--help``, ``--version``,
``--dump-config`` and every configuration error finish without numpy.  The
runs import numpy and the library, through ``experiments``, once they start
computing.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import MAX_MOMENT, ConfigError, NumericFailure, __version__

__all__ = [
    "KEYS", "main", "resolve_config", "run_fig1", "run_fig3", "run_query",
]


def _parser(kind: type, need: str = "", holds=lambda value: True):
    """Parser of one int, finite float or word for which holds(value) is true.

    It takes (key, text) and returns the value's canonical text: str(int)
    for ints, the shortest round-trip form without a trailing '.0' for
    floats, and the word itself.
    """

    def parse(key: str, text: str) -> str:
        try:
            value = kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {what}, got {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite")
        if not holds(value):
            raise ConfigError(f"{key} must be {need}, got {text!r}")
        return repr(value).removesuffix(".0") if kind is float else str(value)

    return parse


_REAL = _parser(float)
_POSITIVE = _parser(float, "positive", lambda x: x > 0)
_NONNEGATIVE = _parser(float, "nonnegative", lambda x: x >= 0)
_COUNT = _parser(int, "nonnegative", lambda n: n >= 0)
# the library's numeric domain: occupations and each entry of a mean at most MAX_MOMENT
_OCCUPATION = _parser(float, f"nonnegative and at most {MAX_MOMENT:g}", lambda x: 0 <= x <= MAX_MOMENT)
_MEAN_ENTRY = _parser(float, f"at most {MAX_MOMENT:g} in magnitude", lambda x: abs(x) <= MAX_MOMENT)


def _reals(count: int | None = None, entry=_REAL):
    """Parser of count comma-separated entries, each read by entry, or with no count of one or more distinct ones."""

    def parse(key: str, text: str) -> str:
        values = [entry(key, part) for part in text.split(",") if part.strip()]
        if count is not None and len(values) != count:
            raise ConfigError(f"{key} must have {count} entries, got {len(values)}")
        if count is None and (not values or len(set(map(float, values))) != len(values)):
            raise ConfigError(f"{key} must list one or more distinct values; each names its own output file")
        return ",".join(values)

    return parse


# Every key of every command, with its parser and default; any other key is unknown.
# fig1 and query negativity depend on the pair and the mixing angle only; fig3 and
# query fidelity and coherence read their means in vacuum units, so no unit enters them.
KEYS = {
    "fig1": {
        "physics.k": (_COUNT, "1"),
        "physics.l": (_COUNT, "0"),
        "numeric.theta_min": (_REAL, "0"),
        "numeric.theta_max": (_REAL, repr(math.pi)),
        "numeric.theta_step": (_POSITIVE, repr(math.pi / 200)),
    },
    "fig3": {
        "physics.gamma": (_reals(), "0.1"),
        "physics.decay_rate": (_POSITIVE, "0.1"),
        "physics.nbar": (_OCCUPATION, "2"),
        "physics.mbar": (_OCCUPATION, "4"),
        "physics.displacement": (_reals(4, _MEAN_ENTRY), "1,1,1,1"),
        "physics.initial_covariance": (
            _parser(str, "adjusted or thermal", lambda word: word in ("adjusted", "thermal")), "adjusted"
        ),
        "numeric.t_max": (_POSITIVE, "6"),
        "numeric.t_step": (_POSITIVE, "0.005"),
        "numeric.backflow_tol": (_NONNEGATIVE, "1e-09"),
    },
    "eigen": {
        "k": (_COUNT, "1"),
        "l": (_COUNT, "0"),
        "gamma": (_REAL, "0"),
        "hbar": (_POSITIVE, "1"),
        "omega": (_POSITIVE, "1"),
    },
    "fidelity": {
        "nbar1": (_OCCUPATION, "0"),
        "nbar2": (_OCCUPATION, "0"),
        "d1": (_reals(2, _MEAN_ENTRY), "0,0"),
        "d2": (_reals(2, _MEAN_ENTRY), "0,0"),
    },
    "coherence": {
        "nbar": (_OCCUPATION, "0"),
        "d": (_reals(2, _MEAN_ENTRY), "0,0"),
    },
    "negativity": {
        "k": (_COUNT, "1"),
        "l": (_COUNT, "0"),
        "theta": (_REAL, "0"),
        "mode": (_parser(int, "1 or 2", lambda mode: mode in (1, 2)), "1"),
    },
}
QUERIES = ("eigen", "fidelity", "coherence", "negativity")


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


def _resolve(command: str, sources: list[dict[str, str]]) -> dict[str, str]:
    """The command's defaults overridden by each source in turn, every value canonical."""
    table = KEYS[command]
    merged = {key: default for key, (_, default) in table.items()}
    for source in sources:
        for key, value in source.items():
            if key not in table:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = value
    return {key: table[key][0](key, value) for key, value in merged.items()}


def resolve_config(experiment: str, path: str | None, sets: list[str]) -> dict[str, str]:
    """Defaults + config file + --set overrides, each value in canonical form.

    The result is fully materialized: every value the run consumes appears
    as a canonical string, so dumping and re-loading it cannot change the
    output.
    """
    sources = [] if path is None else [load_config_file(path)]
    cfg = _resolve(experiment, [*sources, parse_overrides(sets)])
    if experiment == "fig1" and float(cfg["numeric.theta_max"]) < float(cfg["numeric.theta_min"]):
        raise ConfigError("numeric.theta_max must not be below numeric.theta_min")
    return cfg


def run_fig1(cfg: dict[str, str]) -> dict:
    """Sweep theta and tabulate mutual information and both negativities."""
    from .experiments import fig1

    return fig1(cfg)


def run_fig3(cfg: dict[str, str], gamma: float) -> dict:
    """Propagate one coupled dissipative run and tabulate the witnesses."""
    from .experiments import fig3

    return fig3(cfg, gamma)


def run_query(quantity: str, params: dict[str, str]) -> str:
    """Evaluate one scalar quantity and return its printable form."""
    if quantity not in QUERIES:
        raise ConfigError(f"unknown query quantity {quantity!r}")
    cfg = _resolve(quantity, [params])
    from .experiments import query

    return query(quantity, cfg)


def _run_experiment(args) -> int:
    cfg = resolve_config(args.command, args.config, args.set)
    if args.dump_config:
        sys.stdout.write("".join(f"{key}={value}\n" for key, value in sorted(cfg.items())))
        return 0
    fmt = args.format
    out = Path(args.out) if args.out else Path(f"{args.command}.{fmt}")
    gammas = cfg["physics.gamma"].split(",") if args.command == "fig3" else [None]
    # canonical forms are shortest round trips, so distinct values (repeats are rejected) never share a file
    targets = [out] if len(gammas) == 1 else [
        out.with_name(f"{out.stem}_gamma{gamma}{out.suffix}") for gamma in gammas
    ]
    # every run and every file's bytes first, so that a failing value leaves no file
    results = [run_fig1(cfg) if gamma is None else run_fig3(cfg, float(gamma)) for gamma in gammas]
    from .experiments import csv_text, json_text

    files = [csv_text(result) if fmt == "csv" else json_text(args.command, result, cfg) for result in results]
    for data, target in zip(files, targets):
        target.write_bytes(data)
        print(target)
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
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
    qp.add_argument("quantity", choices=sorted(QUERIES))
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
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
