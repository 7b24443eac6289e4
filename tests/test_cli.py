import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from wignerosc.cli import (
    ConfigError,
    load_config_file,
    main,
    parse_overrides,
    resolve_config,
    run_query,
)

FAST_FIG1 = [
    "--set", "numeric.theta_max=1.5707963267948966",
    "--set", "numeric.theta_step=0.19634954084936207",  # pi/16
]
FAST_FIG3 = ["--set", "numeric.t_max=1", "--set", "numeric.t_step=0.05"]


class TestQuery:
    def test_eigen(self, capsys):
        assert main(["query", "eigen", "k=1", "l=0", "gamma=0.1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.1)

    def test_coherence_thermal(self, capsys):
        assert main(["query", "coherence", "nbar=3"]) == 0
        out = capsys.readouterr().out.split()
        assert float(out[0]) == 0.0
        assert out[1] == "bits"

    def test_coherence_coherent(self, capsys):
        assert main(["query", "coherence", "nbar=0", "d=2,0"]) == 0
        assert float(capsys.readouterr().out.split()[0]) == pytest.approx(2.0)

    def test_fidelity_vacuum_thermal(self, capsys):
        assert main(["query", "fidelity", "nbar1=0", "nbar2=4"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.2)

    def test_negativity(self, capsys):
        assert main(["query", "negativity", "k=1", "l=0", "theta=0", "mode=1"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(4 * math.exp(-0.5) - 2, abs=1e-11)

    @pytest.mark.parametrize("k,ell", [(3, 2), (10, 10), (25, 25)])
    def test_negativity_high_pairs(self, k, ell, capsys):
        theta = repr(5 * math.pi / 200)
        assert main(["query", "negativity", f"k={k}", f"l={ell}", f"theta={theta}", "mode=1"]) == 0
        assert float(capsys.readouterr().out) > 0.0

    def test_unknown_key_exits_2(self, capsys):
        assert main(["query", "eigen", "bogus=1"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_value_exits_2(self, capsys):
        assert main(["query", "eigen", "k=banana"]) == 2

    def test_run_query_direct(self):
        assert run_query("eigen", {"k": "2", "l": "1", "gamma": "0.5"}).startswith("4.5")
        with pytest.raises(ConfigError):
            run_query("negativity", {"mode": "7"})


class TestConfigHandling:
    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nphysics.k = 2\n\nphysics.l=1  # trailing\n")
        assert load_config_file(str(cfg)) == {"physics.k": "2", "physics.l": "1"}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("physics.k 2\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("fig1", None, ["physics.nope=1"])

    def test_flags_beat_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("physics.k=2\n")
        resolved = resolve_config("fig1", str(cfg), ["physics.k=3"])
        assert resolved["physics.k"] == "3"

    @pytest.mark.parametrize("key", [
        "numeric.nodes", "numeric.negativity_nodes", "numeric.grid_extent",
        "numeric.grid_points", "numeric.grid_cap", "numeric.reltol", "numeric.abstol",
    ])
    def test_grid_keys_are_unknown(self, key, capsys):
        # fig1 is exact: nothing is left for quadrature or grid keys to tune
        assert main(["fig1", "--set", f"{key}=1"]) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            resolve_config("fig1", None, ["numeric.theta_step=0"])
        with pytest.raises(ConfigError):
            resolve_config("fig1", None, ["numeric.theta_min=1", "numeric.theta_max=0.5"])
        with pytest.raises(ConfigError):
            resolve_config("fig1", None, ["physics.k=-1"])
        with pytest.raises(ConfigError):
            resolve_config("fig3", None, ["physics.decay_rate=0"])
        with pytest.raises(ConfigError):
            resolve_config("fig3", None, ["physics.initial_covariance=weird"])
        with pytest.raises(ConfigError):
            resolve_config("fig3", None, ["physics.displacement=1,2,3"])

    def test_parse_overrides(self):
        with pytest.raises(ConfigError):
            parse_overrides(["noequals"])


class TestFig1Command:
    def test_csv_schema_and_endpoints(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--out", str(out), *FAST_FIG1]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,mutual_information,negativity_mode1,negativity_mode2"
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        theta, mi, neg1, neg2 = rows.T
        assert theta[0] == 0.0
        assert theta[-1] == pytest.approx(math.pi / 2)
        assert abs(mi[0]) < 1e-8
        assert neg1[0] == pytest.approx(0.42612, abs=1e-3)
        assert neg2[0] == 0.0
        # the two curves exchange across the sweep
        assert neg1[-1] == pytest.approx(neg2[0], abs=1e-6)
        assert neg2[-1] == pytest.approx(neg1[0], abs=1e-6)

    def test_json_schema(self, tmp_path):
        out = tmp_path / "fig1.json"
        assert main(["fig1", "--out", str(out), "--format", "json", *FAST_FIG1]) == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "fig1"
        assert set(payload["columns"]) == {
            "theta", "mutual_information", "negativity_mode1", "negativity_mode2",
        }
        lengths = {len(v) for v in payload["columns"].values()}
        assert len(lengths) == 1
        assert payload["metadata"]["version"]
        assert payload["metadata"]["config"]["physics.k"] == "1"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fig1", "--out", str(a), *FAST_FIG1]) == 0
        assert main(["fig1", "--out", str(b), *FAST_FIG1]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dump_config_round_trip(self, tmp_path, capsys):
        assert main(["fig1", "--dump-config", *FAST_FIG1]) == 0
        dumped = capsys.readouterr().out
        cfg = tmp_path / "dumped.cfg"
        cfg.write_text(dumped)
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(["fig1", "--out", str(first), *FAST_FIG1]) == 0
        assert main(["fig1", "--out", str(second), "--config", str(cfg)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestFig3Command:
    def test_csv_schema_and_summary(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--out", str(out), *FAST_FIG3]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,fidelity,coherence_normalized,coherence_raw"
        assert any(line.startswith("# backflow_intervals,") for line in lines)
        data = [line for line in lines[1:] if not line.startswith("#")]
        first = data[0].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == 1.0

    def test_gamma_zero_monotone(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--out", str(out), "--set", "physics.gamma=0", *FAST_FIG3]) == 0
        lines = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        fid = np.array([float(l.split(",")[1]) for l in lines])
        assert np.all(np.diff(fid) >= -1e-12)
        summary = [l for l in out.read_text().splitlines() if l.startswith("# backflow_intervals")]
        assert summary == ["# backflow_intervals,0"]

    def test_default_run_flags_backflow(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        count = int(next(l for l in lines if l.startswith("# backflow_intervals,")).split(",")[1])
        assert count >= 1

    def test_json_summary(self, tmp_path):
        out = tmp_path / "fig3.json"
        assert main(["fig3", "--out", str(out), "--format", "json", *FAST_FIG3]) == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "fig3"
        assert set(payload["columns"]) == {
            "t", "fidelity", "coherence_normalized", "coherence_raw",
        }
        assert "backflow_intervals" in payload["summary"]
        assert payload["metadata"]["initial_state"]["N"] == 2

    def test_both_gammas(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--out", str(out), "--set", "physics.gamma=0,0.1", *FAST_FIG3]) == 0
        produced = {p.name for p in tmp_path.iterdir()}
        assert produced == {"fig3_gamma0.csv", "fig3_gamma0.1.csv"}

    def test_gamma_names_round_trip(self, tmp_path):
        out = tmp_path / "fig3.csv"
        gammas = "physics.gamma=0.1,0.1000001"
        assert main(["fig3", "--out", str(out), "--set", gammas, *FAST_FIG3]) == 0
        produced = {p.name for p in tmp_path.iterdir()}
        assert produced == {"fig3_gamma0.1.csv", "fig3_gamma0.1000001.csv"}
        first, second = (tmp_path / name for name in sorted(produced))
        assert first.read_bytes() != second.read_bytes()

    def test_duplicate_gamma_rejected(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--out", str(out), "--set", "physics.gamma=0.1,0,0.10", *FAST_FIG3]) == 2
        assert "physics.gamma" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert main(["fig3", "--out", str(target), "--format", "json", *FAST_FIG3]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thermal_covariance_option(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main([
            "fig3", "--out", str(out),
            "--set", "physics.initial_covariance=thermal", *FAST_FIG3,
        ]) == 0
        assert out.exists()

    def test_bad_config_exit_code(self, capsys):
        assert main(["fig3", "--set", "physics.decay_rate=-1"]) == 2
        assert "configuration error" in capsys.readouterr().err


def _readme_commands() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```sh\n")[1:]
    lines = [line.split("#", 1)[0].strip() for block in blocks for line in block.split("```", 1)[0].splitlines()]
    return [line for line in lines if line.startswith("wignerosc ")]


def test_readme_commands_succeed(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
