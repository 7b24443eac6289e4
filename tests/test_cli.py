import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wignerosc import __version__
from wignerosc.cli import (
    KEYS,
    ConfigError,
    load_config_file,
    main,
    parse_overrides,
    resolve_config,
    run_fig1,
    run_fig3,
    run_query,
)
from wignerosc.experiments import _NUMPY_JSON_MIN, csv_text, json_text
from wignerosc.gaussian_states import MAX_MOMENT

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k,ell", [(3, 2), (10, 10), (25, 25), (150, 150)])
    def test_negativity_high_pairs(self, k, ell, capsys):
        theta = repr(5 * math.pi / 200)
        assert main(["query", "negativity", f"k={k}", f"l={ell}", f"theta={theta}", "mode=1"]) == 0
        assert float(capsys.readouterr().out) > 0.0

    @pytest.mark.filterwarnings("error")
    def test_negativity_past_float_range_exits_3(self, tmp_path, capsys):
        # the Laguerre scan leaves the floats past k + l = 313
        assert main(["query", "negativity", "k=400", "l=0"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numeric failure: negativity at k + l = 400: ")
        assert err.count("\n") == 1
        target = tmp_path / "f.csv"
        assert main(["fig1", "--out", str(target), "--set", "physics.k=400", *FAST_FIG1]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numeric failure: negativity at k + l = 400: ")
        assert err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["query", "negativity", "k=10000000", "l=0"],
        ["fig1", "--set", "physics.k=10000000", "--out", "f.csv"],
    ], ids=["query", "fig1"])
    def test_oversized_pair_exits_3_before_any_work(self, argv, tmp_path, monkeypatch, capsys):
        # its (k + l + 1)^2 generator alone would take 728 TiB
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numeric failure: negativity at k + l = 10000000: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,theta", [
        (["query", "negativity", "k=2", "l=1", "theta=1.7e308"], "1.7e+308"),
        (["fig1", "--set", "physics.k=2", "--set", "physics.l=1", "--set", "numeric.theta_max=1.7e308",
          "--set", "numeric.theta_step=1e307", "--out", "f.csv"], "6e+307"),
    ], ids=["query", "fig1"])
    def test_huge_mixing_angle_exits_3(self, argv, theta, tmp_path, monkeypatch, capsys):
        # the phases theta * lambda of the pair's generator pass the floats; the first such angle is named
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numeric failure: ")
        assert err.endswith(f"the phases theta * lambda leave the floats at theta = {theta}\n")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params,code,printed", [
        (["eigen", "k=1", "l=0", "gamma=1e308", "hbar=10"], 3, ""),  # hbar * gamma overflows
        (["coherence", "nbar=0", "d=1e200,0"], 2, "d"),  # |d|^2 would pass the floats
        (["coherence", "nbar=0", "d=1e-154,0"], 0, "2.56649137067e-306 bits\n"),  # 1 / (|d|^2 / 4) overflows
        (["fidelity", "d1=1e200,0"], 2, "d1"),
        (["eigen", f"k={10**400}"], 3, ""),  # an integer too large for a float
        (["coherence", "nbar=1e308"], 2, "nbar"),  # the variance 2 nbar + 1 would overflow
        (["fidelity", "nbar2=1e308"], 2, "nbar2"),
        (["coherence", "nbar=1e160", "d=0,0"], 2, "nbar"),  # det sigma would pass the floats
        (["fidelity", "nbar1=1e160", "nbar2=1e160"], 2, "nbar1"),
        (["fidelity", "nbar1=8e307", "nbar2=8e307"], 2, "nbar1"),  # a trace would pass the floats
        (["coherence", "nbar=8.9e307", "d=1,0"], 2, "nbar"),
        (["fidelity", "d1=1.5e308,0", "d2=-1.5e308,0"], 2, "d1"),  # d1 - d2 would pass the floats
    ], ids=["eigen", "coherence", "coherence_tiny_d", "fidelity", "eigen_huge_k", "coherence_nbar", "fidelity_nbar",
            "coherence_nbar_1e160", "fidelity_nbar_1e160", "fidelity_nbar_8e307", "coherence_nbar_8.9e307",
            "fidelity_means_1.5e308"])
    def test_non_finite_results_exit_3(self, params, code, printed, capsys):
        # inputs whose results leave the floats exit 3; those past the numeric domain, MAX_MOMENT, exit 2
        # before any work and name their key, here printed; the rest print their value
        assert main(["query", *params]) == code
        out, err = capsys.readouterr()
        assert err.count("\n") == (code != 0)
        if code == 3:
            assert out == "" and err.startswith(f"numeric failure: {params[0]} is not finite ")
        elif code == 2:
            assert out == "" and err.startswith(f"configuration error: {printed} must be ")
        else:
            assert out == printed

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nbar,d", [("0", "1e60,0"), ("1e3", "6e59,-8e59"), ("1e20", "1e55,0")])
    def test_far_displacement_coherence_against_mpmath(self, nbar, d, capsys):
        # |d|^2 near the bound of the numeric domain; the reference is S_th(nbar_total) - S_th(nbar) in bits,
        # whose terms near 2.5e119 log(2.5e119) need 150 digits
        import mpmath as mp

        assert main(["query", "coherence", f"nbar={nbar}", f"d={d}"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        with mp.workdps(150):
            m = mp.mpf(nbar)
            total = m + sum(mp.mpf(part) ** 2 for part in d.split(",")) / 4

            def entropy(x):
                return (x + 1) * mp.log(x + 1, 2) - (x * mp.log(x, 2) if x > 0 else 0)

            exact = float(entropy(total) - entropy(m))
        assert value == pytest.approx(exact, rel=1e-11)

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

    @pytest.mark.parametrize("command,key", [
        ("fig1", "physics.mass"), ("fig1", "physics.omega"), ("fig1", "physics.hbar"),
        ("negativity", "mass"), ("negativity", "omega"), ("negativity", "hbar"), ("eigen", "mass"),
        ("fig3", "physics.mass"), ("fig3", "physics.omega"), ("fig3", "physics.hbar"),
        ("fidelity", "hbar"), ("coherence", "hbar"),
    ])
    def test_inert_keys_are_unknown(self, command, key, capsys):
        # fig1 and the negativity depend on the pair and the angle only, the eigenvalue not on the
        # mass; fig3, the fidelity and the coherence take their means in vacuum units
        argv = [command, "--set", f"{key}=1"] if command.startswith("fig") else ["query", command, f"{key}=1"]
        assert main(argv) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    @pytest.mark.parametrize("command,typed,plain", [
        ("fig1", ["physics.k=02"], ["physics.k=2"]),
        ("fig3",
         ["physics.decay_rate=0.10", "physics.nbar=2.0", "physics.displacement=1, 1.0,1,1"],
         ["physics.decay_rate=0.1", "physics.nbar=2", "physics.displacement=1,1,1,1"]),
    ], ids=["fig1", "fig3"])
    def test_spellings_of_one_config_give_identical_bytes(self, command, typed, plain, tmp_path, capsys):
        fast = {"fig1": FAST_FIG1, "fig3": FAST_FIG3}[command]
        dumps, files = [], []
        for index, sets in enumerate((typed, plain)):
            flags = [arg for value in sets for arg in ("--set", value)] + fast
            assert main([command, *flags, "--dump-config"]) == 0
            dumps.append(capsys.readouterr().out)
            out = tmp_path / f"{index}.json"
            assert main([command, *flags, "--format", "json", "--out", str(out)]) == 0
            assert capsys.readouterr().out == f"{out}\n"
            files.append(out.read_bytes())
        assert dumps[0] == dumps[1]
        assert files[0] == files[1]

    @pytest.mark.parametrize("command", ["fig1", "fig3"])
    def test_default_dump_is_shortest_round_trip(self, command, capsys):
        assert main([command, "--dump-config"]) == 0
        dump = capsys.readouterr().out
        assert "0.10000000000000001" not in dump and "3.1415926535897931" not in dump
        for line in dump.splitlines():
            for part in line.partition("=")[2].split(","):
                if part[0].isdigit():
                    assert part == repr(float(part)).removesuffix(".0"), line

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
        for value in ("physics.displacement=1,nan,1,1", "physics.gamma=inf", "physics.gamma=nan,nan"):
            with pytest.raises(ConfigError, match="must be finite"):
                resolve_config("fig3", None, [value])

    @pytest.mark.parametrize("value", ["physics.displacement=1,nan,1,1", "physics.gamma=inf", "physics.gamma=nan,nan"])
    def test_non_finite_lists_exit_2_before_dump(self, value, capsys):
        assert main(["fig3", "--set", value, "--dump-config"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err

    # each count's int64 axis passes 2^48 bytes, beyond any machine's address space, so no run allocates it
    @pytest.mark.parametrize("command,key,step,points", [
        ("fig1", "numeric.theta_step", "1e-14", "3.14159e+14"),
        ("fig3", "numeric.t_step", "1e-13", "6e+13"),
        ("fig1", "numeric.theta_step", "1e-300", "3.14159e+300"),
        ("fig3", "numeric.t_step", "5e-324", "inf"),
    ])
    def test_axis_too_large_to_allocate_exits_2(self, command, key, step, points, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main([command, "--out", str(out), "--set", f"{key}={step}"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {key} = {step} gives {points} points, too many to allocate\n"
        )
        assert not out.exists()

    def test_parse_overrides(self):
        with pytest.raises(ConfigError):
            parse_overrides(["noequals"])

    def test_successive_calls_share_no_state(self, capsys):
        # one parser serves every call in a process; each call's --set list starts empty
        assert main(["fig1", "--set", "physics.k=2", "--set", "physics.l=1", "--dump-config"]) == 0
        first = capsys.readouterr().out
        assert main(["fig1", "--set", "numeric.theta_min=0.5", "--dump-config"]) == 0
        second = capsys.readouterr().out
        assert "physics.k=2\n" in first and "physics.l=1\n" in first and "numeric.theta_min=0\n" in first
        assert "physics.k=1\n" in second and "physics.l=0\n" in second and "numeric.theta_min=0.5\n" in second


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
    def test_dump_config_round_trip(self, tmp_path, capsys):
        sets = [*FAST_FIG3, "--set", "physics.gamma=0,0.1"]
        assert main(["fig3", "--dump-config", *sets]) == 0
        cfg = tmp_path / "dumped.cfg"
        cfg.write_text(capsys.readouterr().out)
        for name, flags in (("first", sets), ("second", ["--config", str(cfg)])):
            (tmp_path / name).mkdir()
            assert main(["fig3", "--format", "json", "--out", str(tmp_path / name / "f.json"), *flags]) == 0
        first = {p.name: p.read_bytes() for p in (tmp_path / "first").iterdir()}
        second = {p.name: p.read_bytes() for p in (tmp_path / "second").iterdir()}
        assert sorted(first) == ["f_gamma0.1.json", "f_gamma0.json"]
        assert first == second

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

    # the first sample whose moments or tracks leave the floats, by its value in the t column (Gamma*t)
    FAILING_T = {"physics.gamma=1.7e308": "0.15"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value,at_time", [
        ("physics.mbar=1e308", False),  # the asymptotic variance 2 mbar + 1 would be infinite
        ("physics.nbar=1e308", False),  # the initial variance 2 nbar + 1 would be infinite
        ("physics.gamma=1.7e308", True),  # the exchange phase kappa t passes the float range
    ])
    def test_numeric_failure_exit_code(self, value, at_time, tmp_path, capsys):
        # a failure at a time exits 3 naming the time; occupations past the numeric domain never reach the
        # propagation, and exit 2 naming their key
        out = tmp_path / "f.csv"
        assert main(["fig3", "--out", str(out), "--set", value, *FAST_FIG3]) == (3 if at_time else 2)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")  # no numpy warning ahead of it
        if at_time:
            assert err.startswith("numeric failure: ")
            assert err.endswith(f" at t = {self.FAILING_T[value]}\n")
        else:
            assert err.startswith(f"configuration error: {value.partition('=')[0]} must be ")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_time_span_past_the_floats_exits_3(self, tmp_path, capsys):
        # t_max / Gamma is checked before any time grid is built, so no numpy warning precedes the line
        out = tmp_path / "f.csv"
        assert main(["fig3", "--out", str(out), "--set", "physics.decay_rate=5e-324"]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: the time span t_max / Gamma leaves the floats "
            "(numeric.t_max = 6, physics.decay_rate = 5e-324)\n"
        )
        assert not out.exists()

    # Inputs that failed: the step maps overflowed at gamma = 1e300, for which the closed form is exact, and at
    # Gamma of 1e200 and 1e300 the overdamped M22, which integrates e^{-cs} with c t below the normal floats,
    # left the certificate
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sets,rows", [
        (["physics.gamma=1e300", "numeric.t_max=1", "numeric.t_step=0.05"], 21),
        (["physics.decay_rate=1e200", "numeric.t_max=60", "numeric.t_step=0.5"], 121),
        (["physics.decay_rate=1e300", "numeric.t_max=60", "numeric.t_step=0.5"], 121),
    ], ids=["gamma=1e300", "decay_rate=1e200", "decay_rate=1e300"])
    def test_former_overflows_run(self, sets, rows, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["fig3", "--out", str(out), *[f for key in sets for f in ("--set", key)]]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1, comments="#")
        assert table.shape == (rows, 4) and np.isfinite(table).all()
        assert np.all((table[:, 1] >= 0.0) & (table[:, 1] <= 1.0))

    # M22 = Gamma gamma^2 int o^2 leaves the floats below |gamma| of about 1e-155, but M(t) stays certified;
    # so weak a coupling leaves mode 1 as at gamma = 0
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", ["1e-160", "1e-300"])
    def test_tiny_coupling_runs(self, gamma, tmp_path):
        tables = []
        for value in (gamma, "0"):
            out = tmp_path / f"{value}.csv"
            assert main(["fig3", "--out", str(out), "--set", f"physics.gamma={value}", "--set", "numeric.t_max=1"]) == 0
            tables.append(np.loadtxt(out, delimiter=",", skiprows=1, comments="#"))
        np.testing.assert_allclose(tables[0], tables[1], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("value", ["3,0,0,0", "1,1,0.1,3", "1e200,1,1,1"])
    def test_displacement_beyond_adjusted_covariance_exits_2(self, value, tmp_path, capsys):
        # in vacuum units a displacement d carries |d|^2 / 4 quanta, more than nbar = 2 in one mode here;
        # an entry past the numeric domain is named by the bound before the covariance is sized
        out = tmp_path / "f.csv"
        assert main(["fig3", "--out", str(out), "--set", f"physics.displacement={value}", *FAST_FIG3]) == 2
        err = capsys.readouterr().err
        if value.startswith("1e200"):
            assert err == "configuration error: physics.displacement must be at most 1e+60 in magnitude, got '1e200'\n"
        else:
            assert "physics.nbar too small" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_failing_gamma_in_a_list_writes_no_file(self, tmp_path, monkeypatch, capsys):
        # gamma = 0.1 runs, but at gamma = 1e308 the phase kappa t passes the floats: every run comes
        # before the first file is written, so none is
        monkeypatch.chdir(tmp_path)
        assert main(["fig3", "--set", "physics.gamma=0.1,1e308", "--out", "g.csv"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numeric failure: propagation at gamma = 1e+308 failed: moments must be finite at t = 0.18\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_long_uncoupled_run_stays_finite(self, tmp_path):
        # e^{-Gamma t/4} cosh(Gamma t/4) as decaying exponentials: no inf * 0 at large Gamma t
        out = tmp_path / "f.csv"
        sets = ["physics.gamma=0", "numeric.t_max=5000", "numeric.t_step=1"]
        assert main(["fig3", "--out", str(out), *[f for key in sets for f in ("--set", key)]]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1, comments="#")
        assert table.shape == (5001, 4) and np.isfinite(table).all()

    def test_negative_backflow_tol_exits_2(self, tmp_path, capsys):
        # a negative tolerance would count every flat step as a drop
        out = tmp_path / "f.csv"
        assert main(["fig3", "--out", str(out), "--set", "numeric.backflow_tol=-1"]) == 2
        assert capsys.readouterr().err == "configuration error: numeric.backflow_tol must be nonnegative, got '-1'\n"
        assert not out.exists()

    def test_interval_ends_lie_on_the_t_column(self, tmp_path):
        # the intervals are found on the Gamma t values the t column writes, so each end is one of them
        out = tmp_path / "f.json"
        assert main(["fig3", "--out", str(out), "--format", "json", "--set", "numeric.t_max=60"]) == 0
        payload = json.loads(out.read_text())
        ends = [end for key in ("backflow_intervals", "coherence_rise_intervals")
                for interval in payload["summary"][key] for end in interval]
        assert len(ends) == 2 * 15
        assert set(ends) <= set(payload["columns"]["t"])

    def test_backflow_tol_sets_both_interval_lists(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["fig3", "--out", str(out), "--format", "json", "--set", "numeric.backflow_tol=1"]) == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["backflow_intervals"] == [] and summary["coherence_rise_intervals"] == []
        out = tmp_path / "f.csv"
        assert main(["fig3", "--out", str(out), "--set", "numeric.backflow_tol=1"]) == 0
        assert out.read_text().splitlines()[-1] == "# backflow_intervals,0"


# every key the numeric domain bounds, with the command that reads it
BOUNDED_KEYS = [
    ("fig3", "physics.nbar"), ("fig3", "physics.mbar"), ("fig3", "physics.displacement"),
    ("fidelity", "nbar1"), ("fidelity", "nbar2"), ("fidelity", "d1"), ("fidelity", "d2"),
    ("coherence", "nbar"), ("coherence", "d"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,key", BOUNDED_KEYS, ids=[f"{command}-{key}" for command, key in BOUNDED_KEYS])
def test_numeric_domain_bound(command, key, tmp_path, capsys):
    # occupations and mean entries of magnitude at most MAX_MOMENT: at twice the bound a value exits 2 and
    # names its key before any work, and at the bound the run is finite; a displacement that large needs
    # fig3's thermal covariance, and the means take both signs
    assert MAX_MOMENT == 1e60
    entries = {"physics.displacement": 4, "d1": 2, "d2": 2, "d": 2}.get(key, 1)
    out = tmp_path / "f.csv"

    def argv(value: float) -> list[str]:
        setting = f"{key}=" + ",".join(repr(value * (-1) ** i) for i in range(entries))
        if command == "fig3":
            return ["fig3", "--out", str(out), "--set", setting, "--set", "physics.initial_covariance=thermal",
                    *FAST_FIG3]
        return ["query", command, setting]

    assert main(argv(2 * MAX_MOMENT)) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith(f"configuration error: {key} must be ") and err.count("\n") == 1
    assert not out.exists()
    assert main(argv(MAX_MOMENT)) == 0
    printed, err = capsys.readouterr()
    assert err == ""
    if command == "fig3":
        table = np.loadtxt(out, delimiter=",", skiprows=1, comments="#")
        values = {"fidelity": table[:, 1], "coherence": table[:, 3]}
    else:
        values = {command: np.array([float(printed.split()[0])])}
    assert all(np.isfinite(v).all() and np.all(v >= 0.0) for v in values.values())
    assert np.all(values.get("fidelity", 0.0) <= 1.0)


def _stdlib_json(experiment: str, result: dict, cfg: dict) -> str:
    """The payload as the writer has always laid it out, through json.dumps(indent=2)."""
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


def _per_cell_csv(result: dict) -> str:
    """The table one format(v, ".17g") per cell, then the backflow summary."""
    columns = result["columns"]
    lines = [",".join(columns)]
    for i in range(len(next(iter(columns.values())))):
        lines.append(",".join(format(float(columns[name][i]), ".17g") for name in columns))
    summary = result.get("summary")
    if summary:
        lines.append(f"# backflow_intervals,{len(summary['backflow_intervals'])}")
        for a, b in summary["backflow_intervals"]:
            lines.append(f"# backflow_interval,{format(a, '.17g')},{format(b, '.17g')}")
    return "\n".join(lines) + "\n"


def _fig1(*sets):
    cfg = resolve_config("fig1", None, list(sets))
    return "fig1", run_fig1(cfg), cfg


def _fig3(*sets, gamma=0.1):
    cfg = resolve_config("fig3", None, list(sets))
    return "fig3", run_fig3(cfg, gamma), cfg


def _special_values(repeat=1):
    experiment, result, cfg = _fig3(*FAST_FIG3[1::2])
    cells = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.79e308, 0.1, 1 / 3, 1e16, 1e-5] * repeat
    result["columns"] = {"t": np.arange(len(cells), dtype=float), "value": np.array(cells)}
    result["summary"].update(backflow_intervals=[], coherence_rise_intervals=[])
    return experiment, result, cfg


ZERO_COHERENCE = ["physics.displacement=0,0,1,1", "physics.initial_covariance=thermal"]


# runs whose columns the JSON writer formats in numpy, as they hold at least _NUMPY_JSON_MIN values
LONG_CASES = [
    lambda: _fig3(),  # the default run, 1,201 rows
    lambda: _fig3(*ZERO_COHERENCE, gamma=0.5),  # Infinity in a long column
    lambda: _special_values(repeat=100),
]


def test_long_cases_reach_the_numpy_writer():
    for build in LONG_CASES:
        assert min(len(values) for values in build()[1]["columns"].values()) >= _NUMPY_JSON_MIN


@pytest.mark.parametrize("build", [
    lambda: _fig1(*FAST_FIG1[1::2]),
    lambda: _fig1(*FAST_FIG1[1::2], "physics.k=2", "physics.l=1"),
    lambda: _fig1("numeric.theta_max=0"),  # one row
    lambda: _fig3(*FAST_FIG3[1::2]),
    lambda: _fig3(*FAST_FIG3[1::2], "physics.gamma=0,0.1", gamma=0.0),  # no backflow interval
    lambda: _fig3(*FAST_FIG3[1::2], "physics.gamma=0,0.1", gamma=0.1),
    lambda: _fig3("numeric.t_max=0.004"),  # one row
    lambda: _fig3(*FAST_FIG3[1::2], *ZERO_COHERENCE, gamma=0.5),  # infinite normalized coherence
    _special_values,
    *LONG_CASES,
], ids=["fig1", "fig1_21", "fig1_one_row", "fig3", "fig3_gamma0", "fig3_gamma0.1", "fig3_one_row",
        "fig3_zero_coherence", "special_values", "fig3_default", "fig3_default_zero_coherence",
        "special_values_long"])
def test_writers_match_stdlib_formatting(build):
    experiment, result, cfg = build()
    assert json_text(experiment, result, cfg) == _stdlib_json(experiment, result, cfg).encode()
    assert csv_text(result) == _per_cell_csv(result).encode()


@pytest.mark.parametrize("command,sets,fmt,rows", [
    ("fig1", [], "csv", 201),
    ("fig1", ["physics.k=2", "physics.l=1"], "json", 201),
    ("fig3", [], "json", 1201),  # columns long enough for the numpy writer
    ("fig3", [*FAST_FIG3[1::2], "physics.gamma=0,0.1"], "csv", 21),  # two files
], ids=["fig1_csv", "fig1_21_json", "fig3_json", "fig3_two_gammas_csv"])
def test_written_file_is_the_writers_bytes(command, sets, fmt, rows, tmp_path, capsys):
    # main writes the writers' bytes untranslated: the same bytes, and no carriage return, on every platform
    out = tmp_path / f"run.{fmt}"
    assert main([command, "--format", fmt, "--out", str(out), *[f for value in sets for f in ("--set", value)]]) == 0
    written = capsys.readouterr().out.split()
    cfg = resolve_config(command, None, sets)
    gammas = cfg["physics.gamma"].split(",") if command == "fig3" else [None]
    assert len(written) == len(gammas)
    for path, gamma in zip(written, gammas):
        result = run_fig1(cfg) if gamma is None else run_fig3(cfg, float(gamma))
        assert all(len(values) == rows for values in result["columns"].values())
        data = Path(path).read_bytes()
        assert data == (csv_text(result) if fmt == "csv" else json_text(command, result, cfg))
        assert b"\r" not in data


# a base run and, for every key, a value other than its default that changes the run's data
KEY_CHANGES = {
    "fig1": (FAST_FIG1[1::2], {
        "physics.k": "2", "physics.l": "1", "numeric.theta_min": "0.1",
        "numeric.theta_max": "1", "numeric.theta_step": "0.1",
    }),
    "fig3": (["numeric.t_step=0.05"], {  # two backflow intervals, which backflow_tol=1 drops
        "physics.gamma": "0.2", "physics.decay_rate": "0.2", "physics.nbar": "3", "physics.mbar": "5",
        "physics.displacement": "1,0,1,1", "physics.initial_covariance": "thermal",
        "numeric.t_max": "5", "numeric.t_step": "0.1", "numeric.backflow_tol": "1",
    }),
    "eigen": ([], {"k": "2", "l": "1", "gamma": "0.5", "hbar": "2", "omega": "3"}),
    "fidelity": ([], {"nbar1": "1", "nbar2": "2", "d1": "1,0", "d2": "0,1"}),
    "coherence": (["d=1,0"], {"nbar": "1", "d": "2,0"}),  # thermal states have zero coherence at any nbar
    "negativity": (["theta=0.3"], {"k": "2", "l": "1", "theta": "0.5", "mode": "2"}),
}


def _data_output(command: str, sets: list[str], tmp_path, capsys) -> str:
    """What a run writes as data: the CSV file of fig1 and fig3, the printed value of a query."""
    if command in ("fig1", "fig3"):
        out = tmp_path / "data.csv"
        assert main([command, "--out", str(out), *[f for value in sets for f in ("--set", value)]]) == 0
        capsys.readouterr()
        return out.read_text()
    assert main(["query", command, *sets]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command,key", [(command, key) for command, keys in KEYS.items() for key in keys])
def test_every_key_changes_the_data(command, key, tmp_path, capsys):
    # a key that changes no output is inert; a new key needs an entry in KEY_CHANGES, and must change the data
    base, changes = KEY_CHANGES[command]
    assert key in changes, f"KEY_CHANGES lists no value for {command} {key}"
    assert changes[key] != KEYS[command][key][1]
    reference = _data_output(command, list(base), tmp_path, capsys)
    assert _data_output(command, [*base, f"{key}={changes[key]}"], tmp_path, capsys) != reference


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


def _readme_key_tables() -> dict[str, dict[str, str]]:
    """key -> default of each '#### `<command>`' table, under the query's name for a query."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tables = {}
    for section in text.split("\n#### ")[1:]:
        heading, _, body = section.partition("\n")
        command = heading.strip("`").split()[-1]
        tables[command] = dict(re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", body.split("\n#")[0], re.M))
    return tables


def test_readme_key_tables_match_cli():
    # the README lists exactly the keys and defaults of the CLI's table, in canonical form
    assert _readme_key_tables() == {
        command: {key: default for key, (_, default) in keys.items()} for command, keys in KEYS.items()
    }
    for keys in KEYS.values():
        for key, (parse, default) in keys.items():
            assert parse(key, default) == default


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    record = namespace["record"]
    assert record.times.size == 1201
    assert record.backflow_intervals


def _src() -> str:
    import wignerosc

    return str(Path(wignerosc.__file__).resolve().parents[1])


def test_cli_import_pulls_in_no_scipy_or_mpmath():
    # resolving, dumping and rejecting a configuration load no numeric module: neither scipy nor mpmath,
    # which only the tests use, nor numpy, which a run imports when it starts computing
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wignerosc.cli as cli; "
        "codes = [cli.main(['fig3', '--dump-config']), cli.main(['fig1', '--set', 'physics.q=1'])]; "
        "print(codes, sorted(m for m in ('scipy', 'mpmath', 'numpy') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code, _src()], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 2] []"
    assert out.stderr == "configuration error: unknown configuration key 'physics.q'\n"


@pytest.mark.parametrize("argv,code,printed", [
    (["fig3", "--set", "numeric.t_step=1e-300"], 2, "configuration error: numeric.t_step = 1e-300 gives 6e+300 points"),
    (["fig1", "--set", "physics.k=400"], 3, "numeric failure: negativity at k + l = 400: "),
], ids=["config_error", "numeric_failure"])
def test_module_run_exit_codes(argv, code, printed, tmp_path):
    # under python -m the CLI runs as __main__; the errors its runs raise are still the classes main catches
    env = dict(os.environ, PYTHONPATH=_src())
    proc = subprocess.run([sys.executable, "-m", "wignerosc.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.startswith(printed) and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
