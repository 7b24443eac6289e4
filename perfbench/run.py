"""Benchmark of the wignerosc command line, one workload per run.

    python3 perfbench/run.py --workload fock_sweep --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py              # all four workloads once, seed 0

Run from anywhere; the package is imported from the ``src`` directory next
to this one, never from an installed copy.  A run measures set-up time in
fresh interpreters, then starts worker.py, which repeats the workload's
batch of CLI invocations for about ``--seconds``.  Every successful output
is checked against reference.py; a value outside its tolerance makes the
run exit 1 after printing its result.  A run that cannot start exits 2
without a result.

The last line of standard output is the result as JSON: ``correct``,
``attempted`` and ``failed`` operations, and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  The lines before
it print every metric with its unit and sample count, and the run's
provenance.  See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before numpy loads, here and in every child process.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from check import Checker  # noqa: E402
from tracing import FIELDS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 15  # fresh interpreters before and again after the batches; the minimum is reported

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "max_err": "abs", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{name}.{f}": ("s" if f == "self_s" else "count") for name, fields in FIELDS.items() for f in fields},
    "cli.out_bytes": "bytes",
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.absent_symbols": "count",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wignerosc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to record
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
    }


def measure_setup(argv: tuple[str, ...], workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and resolve the config."""
    cmd = [sys.executable, "-m", "wignerosc.cli", *argv]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=_child_env(), cwd=workdir, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
        if i:  # the first interpreter also writes the bytecode caches
            times.append(elapsed)
    return times


def run_worker(name: str, seed: int, seconds: float, trace: int, workdir: Path) -> dict:
    spans = OUT / f"spans-{name}-{seed}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir), "--spans", str(spans),
    ]
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=seconds + 100)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    origin = Path(report["wignerosc_file"]).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"wignerosc was imported from {origin}, not from {SRC}")
    return report


def check_outputs(workload: workloads.Workload, report: dict, workdir: Path):
    """Reference-check the last batch's outputs and the batches' agreement."""
    checker = Checker()
    last = report["batches"][-1]
    max_err, values, problems = 0.0, 0, []
    for i, op in enumerate(workload.ops):
        digests = {b["digests"][i] for b in report["batches"] if b["exits"][i] == 0}
        if len(digests) > 1:
            problems.append(f"{' '.join(op.argv)}: output differs between batches")
        if last["exits"][i] != 0:
            continue  # a failed operation is counted, not checked
        text = last["stdout"][i] if op.out is None else (workdir / op.out).read_text()
        outcome = checker.check(op.check, text)
        max_err, values = max(max_err, outcome.max_err), values + outcome.values
        problems += [f"{' '.join(op.argv)}: {p}" for p in outcome.problems]
    return max_err, values, problems


def tally(batches) -> tuple[int, int]:
    """Attempted and failed operations; every nonzero exit code is a failure."""
    attempted = sum(len(b["exits"]) for b in batches)
    failed = sum(code != 0 for b in batches for code in b["exits"])
    return attempted, failed


def good_rows(ops, batch) -> int:
    """Output rows of the batch's successful operations."""
    return sum(op.rows for op, code in zip(ops, batch["exits"]) if code == 0)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str], dict]:
    """Result JSON, printable lines, and the full record of one run."""
    workload = workloads.build(name, seed)
    workdir = OUT / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Set-up is timed on both sides of the batches, so the minimum sees two moments of the machine.
    setup = [] if trace else measure_setup(workload.setup_argv, workdir)
    report = run_worker(name, seed, seconds, trace, workdir)
    setup += [] if trace else measure_setup(workload.setup_argv, workdir)
    max_err, values, problems = check_outputs(workload, report, workdir)

    batches = report["batches"]
    plain = [b for b in batches if not b["traced"]]
    attempted, failed = tally(batches)
    walls = [b["wall_s"] for b in plain]
    if trace:
        traced = [b for b in batches if b["traced"]]
        values_by_name = {
            key: statistics.median(layer[key] for layer in report["layers"]) for key in report["layers"][0]
        }
        values_by_name["cli.out_bytes"] = traced[-1]["out_bytes"]
        values_by_name["failed_frac"] = failed / attempted
        values_by_name["trace.overhead_frac"] = (
            statistics.median(b["wall_s"] for b in traced) / statistics.median(walls) - 1.0
        )
        values_by_name["trace.absent_symbols"] = len(report["absent"])
        units = PER_LAYER
        samples = {key: len(traced) for key in units}
        samples["failed_frac"] = attempted
        samples["trace.overhead_frac"] = len(batches)
    else:
        # Minima, not medians: on a shared machine the speed drifts by tens of percent
        # within a run, and the fastest sample is the one least disturbed by that.
        rows = [good_rows(workload.ops, b) / b["wall_s"] for b in plain]
        values_by_name = {
            "setup_s": min(setup),
            "wall_s": min(walls),
            "rows_per_s": max(rows),
            "max_err": max_err,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END
        samples = {"setup_s": len(setup), "wall_s": len(walls), "rows_per_s": len(rows),
                   "max_err": values, "peak_rss_mb": 1}

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values_by_name[key], "unit": unit} for key, unit in units.items()},
    }
    lines = [f"{name} seed={seed} trace={trace}: {len(batches)} batches, {attempted} operations, {failed} failed"]
    if not trace:
        lines.append(f"  {'failed_frac':<42} {failed / attempted:>14.6g} ratio  n={attempted}")
    for key, unit in units.items():
        lines.append(f"  {key:<42} {values_by_name[key]:>14.6g} {unit:<6} n={samples[key]}")
    for op, code, err in zip(workload.ops, batches[0]["exits"], batches[0]["stderr"]):
        if code:
            lines.append(f"  exit {code}: {' '.join(op.argv)}: {(err.strip().splitlines() or [''])[-1]}")
    lines += [f"  REFERENCE CHECK FAILED: {p}" for p in problems]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": [list(op.argv) for op in workload.ops], "provenance": _provenance(),
        "setup_samples_s": setup, "batch_walls_s": [b["wall_s"] for b in batches],
        "traced": [b["traced"] for b in batches], "exits": [b["exits"] for b in batches],
        "absent": report["absent"], "problems": problems, "result": result,
    }
    return result, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wignerosc CLI benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0, help="0 runs the documented commands")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wignerosc" / "cli.py").is_file():
        print(f"benchmark could not run: no wignerosc sources under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.NAMES)
    OUT.mkdir(exist_ok=True)
    results = {}
    for name in names:
        try:
            result, lines, record = run_workload(name, args.seed, args.seconds, args.trace)
        except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"benchmark could not run {name}: {exc}", file=sys.stderr)
            return 2
        (OUT / f"result-{name}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
        print("\n".join(lines))
        print("provenance " + json.dumps(record["provenance"], sort_keys=True))
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
