"""Runs one workload's batches of CLI invocations in this interpreter.

run.py starts this file in a fresh process, with the checkout's ``src`` as
the only PYTHONPATH entry and BLAS/OpenMP pinned to one thread, so the
process's peak memory is the CLI's own.  Each invocation calls
``wignerosc.cli.main`` with the argument list a user would type; its exit
code is recorded and a nonzero code is a failed operation, never retried.
The report is one JSON object on the last line of standard output.

With ``--trace 1`` untraced and traced batches alternate, which gives the
per-layer split and the tracing overhead from the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer


def run_op(main, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one invocation, as a shell would see them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # an uncaught error ends a shell invocation with status 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_batch(main, ops) -> dict:
    """Time one pass over the operations; outputs are read after the clock stops."""
    start = time.perf_counter()
    results = [run_op(main, op.argv) for op in ops]
    wall = time.perf_counter() - start
    digests, out_bytes = [], 0
    for op, (code, stdout, _) in zip(ops, results):
        data = stdout.encode() if op.out is None else (Path(op.out).read_bytes() if code == 0 else b"")
        out_bytes += len(data)
        digests.append(hashlib.sha256(data).hexdigest() if code == 0 else None)
    return {
        "wall_s": wall,
        "exits": [code for code, _, _ in results],
        "digests": digests,
        "out_bytes": out_bytes,
        "stdout": [stdout for _, stdout, _ in results],
        "stderr": [err[-2000:] for _, _, err in results],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", required=True, help="file for the spans of the first traced batch")
    args = parser.parse_args()

    from wignerosc import cli

    os.chdir(args.workdir)
    workload = workloads.build(args.workload, args.seed)

    def call_main(argv):
        return cli.main(argv)  # looked up per call, so the tracer's wrapper is used

    for argv in workload.warmup:
        code, _, err = run_op(call_main, argv)
        if code != 0:
            print(f"warm-up {argv} exited {code}: {err}", file=sys.stderr)
            return 2

    tracer = Tracer() if args.trace else None
    batches, layers, spans = [], [], None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(batches) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            batch = run_batch(call_main, workload.ops)
        finally:
            if traced:
                tracer.uninstall()
        batch["traced"] = traced
        batches.append(batch)
        if traced:
            layers.append(tracer.metrics())
            spans = tracer.spans if spans is None else spans
        elapsed = time.perf_counter() - start
        typical = statistics.median(b["wall_s"] for b in batches)
        if elapsed + typical > args.seconds and (tracer is None or layers):
            break

    if spans is not None:
        Path(args.spans).write_text(json.dumps({
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "absent": tracer.absent,
            "spans": spans,
        }))
    report = {
        "wignerosc_file": cli.__file__,
        "batches": batches,
        "layers": layers,
        "absent": tracer.absent if tracer else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
