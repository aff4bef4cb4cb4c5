import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import notchlab.cli
from notchlab import ValidationError
from notchlab.cli import build_parser, run
from notchlab.device import (DEVICE_SCHEMA, device_from_dict, device_to_dict,
                             load_device, load_paper_device,
                             paper_device_path)
from notchlab.io import format_float, write_csv, write_json


@pytest.fixture()
def device_path(tmp_path):
    import shutil
    dst = tmp_path / "dev.json"
    shutil.copy(str(paper_device_path()), dst)
    return dst


class TestDeviceFile:
    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(DEVICE_SCHEMA)

    def test_paper_device_loads(self):
        dev = load_paper_device()
        assert dev.line.z0 == 66.0
        assert dev.z0_line == 50.0
        assert set(dev.geometry) == {"Q1", "Cap"}
        assert len(dev.channels) == 4
        assert dev.qubit("Q3").f_q == 9046e6

    def test_unknown_keys_rejected(self, device_path):
        raw = json.loads(device_path.read_text())
        raw["extra"] = 1
        with pytest.raises(ValidationError, match="extra"):
            device_from_dict(raw)
        raw2 = json.loads(device_path.read_text())
        raw2["channels"][0]["bogus_mhz"] = 1.0
        with pytest.raises(ValidationError, match="bogus"):
            device_from_dict(raw2)

    def test_negative_length_named(self, device_path):
        raw = json.loads(device_path.read_text())
        raw["geometry"][0]["l_r_open_um"] = -5.0
        with pytest.raises(ValidationError, match="l_r_open_um"):
            device_from_dict(raw)

    @pytest.mark.parametrize("key,value", [
        ("f_r_g_mhz", math.nan), ("f_r_g_mhz", math.inf),
        ("chi_mhz", -math.inf),
        pytest.param("chi_mhz", 10 ** 400, id="chi_mhz-int-overflow")])
    def test_non_finite_dict_value_rejected(self, key, value):
        # the dict path shares load_device's check; the schema alone lets
        # all four through
        raw = device_to_dict(load_paper_device())
        raw["channels"][1][key] = value
        with pytest.raises(ValidationError,
                           match=f"channels/1/{key}: non-finite"):
            device_from_dict(raw)

    def test_round_trip_canonical(self, tmp_path, device_path):
        dev = load_device(device_path)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_json(p1, device_to_dict(dev))
        dev2 = load_device(p1)
        write_json(p2, device_to_dict(dev2))
        assert p1.read_bytes() == p2.read_bytes()


class TestEmission:
    def test_float_format_nine_digits(self):
        assert format_float(math.pi) == "3.14159265"
        assert format_float(8.2776850306e9) == "8.27768503e+09"
        assert format_float(0.066759) == "0.066759"
        assert format_float(float("inf")) == "inf"
        assert format_float(float("nan")) == "nan"

    def test_mixed_and_float_rows(self, tmp_path):
        path = tmp_path / "mixed.csv"
        write_csv(path, ["a", "b", "c"],
                  [("Q1", True, 3), (1.5, float("nan"), -0.0),
                   [np.float64(math.pi), float("-inf"), 2e300]])
        assert path.read_text() == ("a,b,c\nQ1,true,3\n1.5,nan,-0\n"
                                    "3.14159265,-inf,2e+300\n")

    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["time_s", "value"], [])
        assert path.read_text() == "time_s,value\n"

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [(1.0,), (2.0,)])
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestCliCommands:
    def test_notch_golden(self, device_path, capsys):
        code = run(["notch", "--device", str(device_path), "--pair", "Q1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "8.278 GHz"

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        raw = json.loads(paper_device_path().read_text())
        raw["geometry"][0]["l_r_short_um"] = -10.0
        bad.write_text(json.dumps(raw))
        code = run(["z21", "--device", str(bad), "--pair", "Q1",
                    "--fmin", "8e9", "--fmax", "9e9",
                    "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "l_r_short_um" in capsys.readouterr().err

    def test_unknown_flag_exit_code(self, device_path):
        assert run(["notch", "--device", str(device_path), "--pair", "Q1",
                    "--bogus"]) == 2

    def test_numerical_exit_code(self, device_path, tmp_path, capsys):
        # a sweep point landing inside the pole guard is a numerical error
        dev = load_device(device_path)
        f_pole = dev.pair("Q1").f_r
        code = run(["z21", "--device", str(device_path), "--pair", "Q1",
                    "--fmin", str(f_pole - 100.0), "--fmax",
                    str(f_pole + 100.0), "--points", "3",
                    "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "pole" in capsys.readouterr().err.lower()

    def test_z21_sweep_csv(self, device_path, tmp_path):
        out = tmp_path / "z21.csv"
        code = run(["z21", "--device", str(device_path), "--pair", "Q1",
                    "--fmin", "8.0e9", "--fmax", "8.5e9", "--points", "101",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "freq_hz,im_z21_ohm"
        assert len(lines) == 102
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        # sign change at the notch inside this window
        assert np.sum(np.diff(np.sign(data[:, 1])) != 0) == 1

    def test_modes_json_structure(self, device_path, tmp_path):
        out = tmp_path / "modes.json"
        code = run(["modes", "--device", str(device_path), "--state", "gggg",
                    "--out", str(out)])
        assert code == 0
        modes = json.loads(out.read_text())
        assert isinstance(modes, list) and len(modes) == 8
        assert set(modes[0]) == {"channel", "character", "f_hz", "kappa_hz"}
        ro = {m["channel"]: m["f_hz"] for m in modes
              if m["character"] == "readout"}
        assert ro["Q1"] == pytest.approx(10221e6, abs=5e6)

    def test_reflect_sweep(self, device_path, tmp_path):
        out = tmp_path / "refl.csv"
        code = run(["reflect", "--device", str(device_path), "--state",
                    "gggg", "--fmin", "10.0e9", "--fmax", "10.9e9",
                    "--points", "201", "--out", str(out)])
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        mags = np.hypot(data[:, 1], data[:, 2])
        assert np.max(np.abs(mags - 1.0)) < 1e-9

    def test_simulate_trace_columns(self, device_path, tmp_path):
        out = tmp_path / "trace.csv"
        pulse = json.dumps({"carrier_mhz": 10357.0,
                            "rectangular": {"amplitude": 1e6,
                                            "duration_ns": 40.0}})
        code = run(["simulate", "--device", str(device_path), "--state",
                    "gggg", "--pulse", pulse, "--dt-ns", "1.0",
                    "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        # time plus four columns per channel plus the output field
        assert len(header) == 4 * 4 + 3
        assert header[0] == "time_s" and header[-2:] == ["re_sout", "im_sout"]

    def test_separation_prints_steady_state(self, device_path, tmp_path,
                                            capsys):
        pulse = json.dumps({"carrier_mhz": 10357.0,
                            "rectangular": {"amplitude": 1e6,
                                            "duration_ns": 80.0}})
        code = run(["separation", "--device", str(device_path), "--pair",
                    "Q2", "--pulse", pulse,
                    "--out", str(tmp_path / "sep.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "S_ss" in out and "Gamma_m" in out

    def test_purcell_sweep(self, device_path, tmp_path):
        out = tmp_path / "purcell.csv"
        code = run(["purcell", "--device", str(device_path), "--pair", "Q1",
                    "--fmin", "7.8e9", "--fmax", "8.8e9", "--points", "41",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "freq_hz,t1_mtl_s,t1_cap_s,xi"
        rows = [ln.split(",") for ln in lines[1:]]
        f_n = 8.2777e9
        # the MTL T1 dwarfs the capacitive one near the notch
        for cells in rows:
            f = float(cells[0])
            if abs(f - f_n) < 0.1e9:
                t_mtl = float(cells[1])
                t_cap = float(cells[2])
                assert t_mtl > 10 * t_cap

    def test_fit_round_trip_via_cli(self, device_path, tmp_path):
        from notchlab import synth_spectrum
        from notchlab.device import load_device

        dev = load_device(device_path)
        net = dev.mux_network()
        grid = np.linspace(10.0e9, 10.9e9, 601)
        for state, name in (("g", "g.csv"), ("e", "e.csv")):
            spec = synth_spectrum(net, state, 0.4, 0.2e-9, grid, 0.0)
            write_csv(tmp_path / name, ["freq_hz", "phase_rad"],
                      list(zip(spec.freq_hz, spec.phase_rad)))
        out = tmp_path / "fit.json"
        code = run(["fit", "--device", str(device_path),
                    "--spec-g", str(tmp_path / "g.csv"),
                    "--spec-e", str(tmp_path / "e.csv"),
                    "--theta0", "0.3", "--tau-ns", "0.15",
                    "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["converged"] is True
        fitted = {c["name"]: c for c in result["channels"]}
        for ch in net.channels:
            assert fitted[ch.name]["chi_mhz"] * 1e6 == pytest.approx(
                ch.chi, abs=1e3)

    def test_budget_json(self, tmp_path):
        out = tmp_path / "budget.json"
        code = run(["budget", "--snr", "8.4", "--tau-meas-ns", "56",
                    "--t1-us", "26", "--out", str(out)])
        assert code == 0
        budget = json.loads(out.read_text())
        assert budget["eps_sep"] < 1e-4
        assert budget["eps_cl"] == pytest.approx(0.0010769, rel=1e-4)

    def test_calibrate_photons(self, capsys):
        code = run(["calibrate", "--delta-ac-hz=-15.6e6",
                    "--chi-hz=-7.8e6"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_photons"] == 1.0

    @pytest.mark.parametrize("command,key,value", [
        ("reflect", "f_r_g_mhz", "NaN"),
        ("modes", "chi_mhz", "NaN"),
        ("modes", "f_r_g_mhz", "Infinity"),
        ("reflect", "kappa_p_mhz", "1e999"),
        pytest.param("modes", "f_p_mhz", "1" + "0" * 400,
                     id="modes-f_p_mhz-int-overflow"),
    ])
    def test_non_finite_device_number_rejected(self, tmp_path, capsys,
                                               command, key, value):
        raw = json.loads(paper_device_path().read_text())
        raw["channels"][0][key] = "@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw).replace('"@"', value))
        out = tmp_path / "out"
        argv = [command, "--device", str(bad), "--out", str(out)]
        if command == "reflect":
            argv += ["--fmin", "10.0e9", "--fmax", "10.9e9", "--points", "11"]
        assert run(argv) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_default_state_loads_device_once(self, device_path, tmp_path,
                                             monkeypatch):
        paths = []

        def counting_load(path):
            paths.append(path)
            return load_device(path)

        monkeypatch.setattr(notchlab.cli, "load_device", counting_load)
        assert run(["reflect", "--device", str(device_path), "--fmin",
                    "10.0e9", "--fmax", "10.9e9", "--points", "11",
                    "--out", str(tmp_path / "r.csv")]) == 0
        assert paths == [str(device_path)]

    def test_repeat_invocations_byte_identical(self, device_path, tmp_path):
        args = ["z21", "--device", str(device_path), "--pair", "Q1",
                "--fmin", "8.0e9", "--fmax", "9.0e9", "--points", "64"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_device_command_canonicalizes(self, device_path, tmp_path):
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        assert run(["device", "--device", str(device_path),
                    "--out", str(out1)]) == 0
        assert run(["device", "--device", str(out1),
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["modes", "--state", "gegg"],
        ["device"],
        ["design"],
        ["budget", "--snr", "8.4", "--tau-meas-ns", "56", "--t1-us", "26"],
        ["calibrate", "--delta-ac-hz=-15.6e6", "--chi-hz=-7.8e6",
         "--p-w", "1e-16", "--rabi-hz", "5e6", "--f-d-hz", "10.3e9"],
    ], ids=lambda argv: argv[0])
    def test_stdout_bytes_equal_out_file(self, device_path, tmp_path, capsys,
                                         argv):
        if argv[0] in ("modes", "device", "design"):
            argv = argv[:1] + ["--device", str(device_path)] + argv[1:]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


STARK_OK = "power_w,f_q_ac_hz\n0,8.0e9\n1e-15,7.9e9\n2e-15,7.8e9\n"
SPEC_OK = "freq_hz,phase_rad\n10.0e9,0.1\n10.1e9,-0.25\n10.2e9,0.3\n"


def _shots_csv(labels=("g", "e"), n=400, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["label,i,q"]
    for k in range(n):
        lab = labels[k % 2]
        i, q = rng.normal(size=2) + (4.0 * (k % 2), 0.0)
        lines.append(f"{lab},{float(i)!r},{float(q)!r}")
    return "\n".join(lines) + "\n"


class TestCsvInputs:
    """calibrate --stark, fit --spec-g/--spec-e and budget --shots files."""

    @staticmethod
    def _argv(command, path, device_path):
        if command == "calibrate":
            return ["calibrate", "--stark", str(path)]
        if command == "fit":
            return ["fit", "--device", str(device_path), "--spec-g",
                    str(path)]
        return ["budget", "--shots", str(path), "--tau-meas-ns", "56",
                "--t1-us", "26"]

    @pytest.mark.parametrize("command,text,detail", [
        ("calibrate", STARK_OK.replace("7.8e9", "nan"),
         "data row 3 has f_q_ac_hz = nan"),
        ("calibrate", STARK_OK.replace("7.9e9", "abc"), "'abc'"),
        ("calibrate", STARK_OK.replace("7.9e9", "inf"),
         "data row 2 has f_q_ac_hz = inf"),
        ("calibrate", "power_w\n0\n1e-15\n2e-15\n", "2 columns but 1"),
        ("calibrate", "power_w,f_q_ac_hz\n", "no data rows"),
        ("calibrate", STARK_OK + "3e-15\n", "2 columns but 1"),
        ("fit", SPEC_OK.replace("-0.25", "x"), "'x'"),
        ("fit", SPEC_OK.replace("10.1e9", "NaN"),
         "data row 2 has freq_hz = nan"),
        ("fit", "freq_hz,phase_rad,extra\n1e10,0,0\n2e10,0,0\n",
         "2 columns but 3"),
        ("budget", "label,i,q\ng,0,0\ne,1\n", "3 columns but 2"),
        ("budget", "label,i,q\ng,0.5,oops\n", "'oops'"),
    ], ids=["stark-nan", "stark-text", "stark-inf", "stark-one-column",
            "stark-header-only", "stark-ragged", "spectrum-text",
            "spectrum-nan", "spectrum-three-columns", "shots-ragged",
            "shots-text"])
    def test_bad_cell_exit_2_names_file_and_columns(
            self, device_path, tmp_path, capsys, command, text, detail):
        path = tmp_path / "in.csv"
        path.write_text(text)
        out = tmp_path / "out.json"
        argv = self._argv(command, path, device_path) + ["--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        columns = {"calibrate": "power_w,f_q_ac_hz",
                   "fit": "freq_hz,phase_rad", "budget": "label,i,q"}
        assert str(path) in err and columns[command] in err
        assert detail in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_shot_label_exit_2(self, tmp_path, capsys):
        # the old per-shot rule counted 'x' as e and exited 0
        path = tmp_path / "shots.csv"
        path.write_text(_shots_csv(labels=("g", "x")))
        out = tmp_path / "out.json"
        assert run(self._argv("budget", path, None)
                   + ["--out", str(out)]) == 2
        assert "shot label 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_good_files_read(self, tmp_path):
        outs = []
        for labels in (("g", "e"), ("0", "1")):
            path = tmp_path / f"shots_{labels[0]}.csv"
            path.write_text(_shots_csv(labels=labels))
            outs.append(tmp_path / f"budget_{labels[0]}.json")
            assert run(self._argv("budget", path, None)
                       + ["--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["snr"] == pytest.approx(
            4.0, rel=0.15)
        stark = tmp_path / "stark.csv"
        stark.write_text(STARK_OK)
        out = tmp_path / "stark.json"
        assert run(["calibrate", "--stark", str(stark),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["f_q_hz"] == pytest.approx(8.0e9)


def _subparsers() -> dict:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestFlagLiveness:
    @pytest.mark.parametrize("command", sorted(_subparsers()))
    def test_every_flag_is_read(self, command):
        # each option must be read as args.<dest> by the command handler,
        # a helper the handler passes args to, or run()
        sub = _subparsers()[command]
        src = inspect.getsource(sub.get_default("fn"))
        for helper in set(re.findall(r"(\w+)\(args\)", src)):
            src += inspect.getsource(getattr(notchlab.cli, helper))
        src += inspect.getsource(run)
        dead = [a.dest for a in sub._actions
                if not isinstance(a, argparse._HelpAction)
                and f"args.{a.dest}" not in src]
        assert dead == []


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate costs about 0.1 s of every CLI start and no command
    # needs it; keep the import floor from creeping back up
    src = str(Path(notchlab.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, notchlab.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
