"""The benchmark's workloads: which CLI invocations make up one batch.

Seed 0 gives exactly the documented commands.  Any other seed draws each
operation from its symmetry orbit, so the inputs differ while the work,
the reference values and the known failures stay the same, which keeps
runs on different seeds comparable:

* a pair (k, l) may become (l, k), with the mode index swapped in a query
  (mode 2 of (l, k) is mode 1 of (k, l));
* a query angle theta on the default grid may become its mirror pi - theta
  (the populations depend on cos^2 and sin^2 only);
* the fig3 displacement (1, 1, 1, 1) is turned by a random angle in both
  mode planes at once, which commutes with the coupled, phase-insensitive
  dynamics, so fidelity and coherence are unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

THETA_STEP = math.pi / 200  # the CLI's default fig1 grid step
THETA_LAST = 200  # index of theta = pi


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its reference check needs to know."""

    argv: tuple[str, ...]
    rows: int  # output rows when the invocation succeeds
    check: dict = field(default_factory=dict)
    out: str | None = None  # output file name inside the work directory; None = stdout


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    setup_argv: tuple[str, ...]  # resolved by --dump-config in a fresh interpreter
    warmup: tuple[tuple[str, ...], ...]  # cheap invocations run once before timing


def _fig1(k: int, ell: int, fmt: str, out: str) -> Op:
    argv = ["fig1"]
    if (k, ell) != (1, 0):
        argv += ["--set", f"physics.k={k}", "--set", f"physics.l={ell}"]
    if fmt != "csv":
        argv += ["--format", fmt]
    argv += ["--out", out]
    return Op(tuple(argv), rows=201, check={"kind": "fig1", "pair": [k, ell], "format": fmt}, out=out)


def _query(k: int, ell: int, mode: int, index: int) -> Op:
    theta = repr(THETA_STEP * index)
    argv = ("query", "negativity", f"k={k}", f"l={ell}", f"theta={theta}", f"mode={mode}")
    return Op(argv, rows=1, check={"kind": "query", "pair": [k, ell], "mode": mode, "index": index})


def _fig3(t_step: float | None, fmt: str, out: str, displacement: list[float] | None) -> Op:
    argv = ["fig3", "--set", "numeric.t_max=60"]
    if t_step is not None:
        argv += ["--set", f"numeric.t_step={t_step}"]
    if displacement is not None:
        argv += ["--set", "physics.displacement=" + ",".join(repr(v) for v in displacement)]
    if fmt != "csv":
        argv += ["--format", fmt]
    argv += ["--out", out]
    step = 0.005 if t_step is None else t_step
    rows = int(math.floor(60 / step + 1e-9)) + 1
    check = {"kind": "fig3", "t_max": 60.0, "t_step": step, "displacement": displacement, "format": fmt}
    return Op(tuple(argv), rows=rows, check=check, out=out)


def _rotated_displacement(rng: random.Random) -> list[float]:
    phi = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(phi), math.sin(phi)
    return [c + s, c - s, c + s, c - s]  # R(phi) (1, 1) in each mode plane


def _swap(rng: random.Random, k: int, ell: int) -> tuple[int, int, bool]:
    flip = rng.random() < 0.5
    return (ell, k, True) if flip else (k, ell, False)


def _fock_sweep(rng):
    ops = []
    for (k, ell), fmt, out in (((1, 0), "csv", "fig1.csv"), ((2, 1), "json", "fig1b.json")):
        if rng:
            k, ell, _ = _swap(rng, k, ell)
        ops.append(_fig1(k, ell, fmt, out))
    first = ops[0].check["pair"]
    setup = ("fig1", "--set", f"physics.k={first[0]}", "--set", f"physics.l={first[1]}", "--dump-config")
    warm = (("fig1", "--set", f"numeric.theta_max={THETA_STEP!r}", "--out", "warm.csv"),)
    return ops, setup, warm


def _fock_highpair(rng):
    ops = []
    for k, ell in ((3, 2), (5, 0)):
        mode, index = 1, 5
        if rng:
            k, ell, flipped = _swap(rng, k, ell)
            mode = 2 if flipped else 1
            index = rng.choice((5, THETA_LAST - 5))
        ops.append(_query(k, ell, mode, index))
    first = ops[0].check["pair"]
    # query has no configuration file, so set-up resolves the pair's fig1 config
    setup = ("fig1", "--set", f"physics.k={first[0]}", "--set", f"physics.l={first[1]}", "--dump-config")
    warm = (("query", "negativity", "k=1", "l=0", "theta=0", "mode=1"),)
    return ops, setup, warm


def _damped(t_step, fmt, out):
    def build(rng):
        op = _fig3(t_step, fmt, out, _rotated_displacement(rng) if rng else None)
        setup = op.argv[: op.argv.index("--out")] + ("--dump-config",)
        warm = (("fig3", "--set", "numeric.t_max=0.5", "--out", "warm.csv"),)
        return [op], setup, warm

    return build


_BUILDERS = {
    "fock_sweep": _fock_sweep,
    "fock_highpair": _fock_highpair,
    "damped_fine": _damped(None, "json", "fig3.json"),
    "damped_coarse": _damped(0.5, "csv", "fig3.csv"),
}

NAMES = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload's batch for this seed; seed 0 is the documented configuration."""
    rng = random.Random(f"{name}:{seed}") if seed else None
    ops, setup, warm = _BUILDERS[name](rng)
    return Workload(tuple(ops), tuple(setup), tuple(warm))
