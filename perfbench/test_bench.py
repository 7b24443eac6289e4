"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from check import Checker  # noqa: E402
from tracing import Tracer  # noqa: E402

from wignerosc import cli, fock_dynamics, info_measures, quadrature  # noqa: E402
from wignerosc.quadrature import ConvergenceError  # noqa: E402


def test_corrupted_output_fails_reference_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["fig3", "--set", "numeric.t_max=1", "--out", "fig3.csv"]) == 0
    spec = {"kind": "fig3", "t_max": 1.0, "t_step": 0.005, "displacement": None, "format": "csv"}
    text = (tmp_path / "fig3.csv").read_text()
    good = Checker().check(spec, text)
    assert good.problems == [] and good.values == 4 * 201

    lines = text.splitlines()
    t, fid, *rest = lines[100].split(",")
    lines[100] = ",".join([t, repr(float(fid) + 1e-6), *rest])
    bad = Checker().check(spec, "\n".join(lines) + "\n")
    assert len(bad.problems) == 1 and bad.problems[0].startswith("fidelity[99]")


def test_exit_3_operation_is_counted_as_failed(monkeypatch):
    def run_query(quantity, params):
        if quantity == "negativity":
            raise ConvergenceError("negativity did not settle")
        return "2.1"

    ops = (
        workloads.Op(("query", "eigen", "k=1", "l=0"), rows=1),
        workloads.Op(("query", "negativity", "k=3", "l=2"), rows=1),
    )
    monkeypatch.setattr(cli, "run_query", run_query)
    batch = worker.run_batch(cli.main, ops)
    assert batch["exits"] == [0, 3]
    assert "numeric failure" in batch["stderr"][1]
    assert run.tally([batch, batch]) == (4, 2)
    assert run.good_rows(ops, batch) == 1


def test_tracer_binds_every_import_and_survives_missing_symbols(monkeypatch):
    monkeypatch.delattr(fock_dynamics, "marginal_profile")
    tracer = Tracer()
    tracer.install()
    try:
        assert all(hasattr(m.laguerre, "__wrapped__") for m in (quadrature, fock_dynamics, info_measures))
        assert cli.main(["query", "eigen", "k=1", "l=0", "gamma=0.1"]) == 0
    finally:
        tracer.uninstall()
    assert not hasattr(quadrature.laguerre, "__wrapped__")
    assert tracer.absent == ["fock_dynamics.marginal_profile"]
    metrics = tracer.metrics()
    assert metrics["fock_dynamics.marginal_profile.calls"] == 0
    assert metrics["cli.main.calls"] == 1 and metrics["cli.run.self_s"] > 0


def test_seed_zero_is_the_documented_batch_and_other_seeds_stay_in_the_orbit():
    assert [op.argv for op in workloads.build("fock_sweep", 0).ops] == [
        ("fig1", "--out", "fig1.csv"),
        ("fig1", "--set", "physics.k=2", "--set", "physics.l=1", "--format", "json", "--out", "fig1b.json"),
    ]
    assert workloads.build("damped_coarse", 0).ops[0].argv == (
        "fig3", "--set", "numeric.t_max=60", "--set", "numeric.t_step=0.5", "--out", "fig3.csv",
    )
    for seed in range(1, 30):
        sweep = workloads.build("fock_sweep", seed).ops
        assert [sorted(op.check["pair"]) for op in sweep] == [[0, 1], [1, 2]]
        for op in workloads.build("fock_highpair", seed).ops:
            assert op.check["index"] in (5, 195) and sum(op.check["pair"]) == 5
            assert op.check["mode"] == (1 if op.check["pair"][0] >= op.check["pair"][1] else 2)
        d = workloads.build("damped_fine", seed).ops[0].check["displacement"]
        assert abs(d[0] ** 2 + d[1] ** 2 - 2) < 1e-12 and d[:2] == d[2:]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["fock_sweep", "damped_fine"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
