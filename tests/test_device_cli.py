import argparse
import contextlib
import copy
import functools
import inspect
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import notchlab.cli
from notchlab import NumericalError, ValidationError
from notchlab.cli import build_parser, run
from notchlab.device import (DEVICE_SCHEMA, _schema_error, device_from_dict,
                             device_to_dict, load_device, load_paper_device,
                             paper_device_path)
from notchlab.mux import mode_dispersive_shifts, normal_modes
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

    @pytest.mark.parametrize("section,key", [("channels", "f_r_g_mhz"),
                                             ("qubits", "f_q_mhz")])
    def test_mhz_value_overflowing_in_hz_rejected(self, tmp_path, capsys,
                                                  section, key):
        # finite in the file, inf once scaled by 1e6
        raw = json.loads(paper_device_path().read_text())
        raw[section][0][key] = 1e305
        with pytest.raises(ValidationError, match=f"^device file invalid at "
                           f"{section}/0/{key}: 1e\\+305 MHz overflows$"):
            device_from_dict(raw)
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps(raw))
        assert run(["device", "--device", str(dev)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: device file invalid at "
                                       f"{section}/0/{key}")

    def test_round_trip_canonical(self, tmp_path, device_path):
        dev = load_device(device_path)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_json(p1, device_to_dict(dev))
        dev2 = load_device(p1)
        write_json(p2, device_to_dict(dev2))
        assert p1.read_bytes() == p2.read_bytes()


def _json_paths(node, path=()):
    """Every path into a parsed JSON document, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _json_paths(node[key], path + (key,))


def _all_finite(node):
    if isinstance(node, dict):
        return all(map(_all_finite, node.values()))
    if isinstance(node, list):
        return all(map(_all_finite, node))
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        try:
            return math.isfinite(node)
        except OverflowError:
            return False
    return True


def _schema_keywords(schema):
    """(keyword, value) of every schema node in a DEVICE_SCHEMA-like tree."""
    for kw, val in schema.items():
        yield kw, val
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    if "items" in schema:
        subs.append(schema["items"])
    for sub in subs:
        yield from _schema_keywords(sub)


# the paper device with every optional key present at least once
PAPER_RAW = json.loads(paper_device_path().read_text())
PAPER_RAW["channels"][0].update(gamma_r_mhz=0.1, gamma_p_mhz=0.2)
PAPER_RAW["qubits"][0]["c_q_f"] = 1e-13
PATHS = list(_json_paths(PAPER_RAW))
LEAVES = [p for p in PATHS if not isinstance(
    functools.reduce(operator.getitem, p, PAPER_RAW), (dict, list))]
VALIDATOR = jsonschema.Draft202012Validator(DEVICE_SCHEMA)
REPLACEMENTS = [None, True, "x", "", [], {}, 0, -1, 1e300, math.nan,
                math.inf, -math.inf, 10 ** 400]
MUTATION = st.one_of(
    st.tuples(st.just("delete"), st.sampled_from(PATHS[1:])),
    st.tuples(st.just("add"), st.sampled_from(PATHS)),
    st.tuples(st.just("retype"),
              st.sampled_from([p for p in PATHS if p[-1:] == ("coupler",)])),
    st.tuples(st.sampled_from(REPLACEMENTS), st.sampled_from(PATHS)),
)


def _mutate(raw, op, path):
    """raw with one mutation at path; unchanged if path no longer exists.

    op is "delete", "add" (an unknown key), "retype" (swap a coupler's
    const type) or else the value to put at path.
    """
    try:
        parent = functools.reduce(operator.getitem, path[:-1], raw)
        node = parent[path[-1]] if path else raw
    except (KeyError, IndexError, TypeError):
        return raw
    if op == "delete":
        del parent[path[-1]]
    elif op == "add":
        if isinstance(node, dict):
            node["unknown_key"] = 1.0
    elif op == "retype":
        if isinstance(node, dict):
            node["type"] = "capacitive" if node.get("type") == "mtl" else "mtl"
    elif path:
        parent[path[-1]] = op
    else:
        return op
    return raw


class TestSchemaWalker:
    """device's own walk over DEVICE_SCHEMA against jsonschema's reading."""

    # every keyword the walker reads; DEVICE_SCHEMA may use no other
    KEYWORDS = {"type", "required", "properties", "additionalProperties",
                "items", "oneOf", "const", "minimum", "exclusiveMinimum",
                "exclusiveMaximum", "minLength"}

    def test_schema_uses_only_walked_keywords(self):
        used = list(_schema_keywords(DEVICE_SCHEMA))
        assert {kw for kw, _ in used} - {"$schema"} <= self.KEYWORDS
        src = inspect.getsource(_schema_error)
        assert all(f'"{kw}"' in src for kw in self.KEYWORDS)
        # the walker knows these types and reads additionalProperties as a
        # bool, not as a schema
        assert {val for kw, val in used if kw == "type"} <= {
            "object", "array", "string", "number"}
        assert all(isinstance(val, bool) for kw, val in used
                   if kw == "additionalProperties")

    @settings(max_examples=300)
    @given(st.lists(MUTATION, min_size=1, max_size=3))
    def test_agrees_with_jsonschema(self, mutations):
        raw = copy.deepcopy(PAPER_RAW)
        for op, path in mutations:
            raw = _mutate(raw, op, path)
        expected = VALIDATOR.is_valid(raw) and _all_finite(raw)
        assert (_schema_error(raw) is None) == expected

    def test_agrees_on_each_leaf_replacement(self):
        # every value at every leaf once: bounds that one key alone carries
        # (cm_over_c < 1, a non-empty name) are rare in the random mixes
        assert _schema_error(PAPER_RAW) is None
        assert VALIDATOR.is_valid(PAPER_RAW)
        for path in LEAVES:
            for value in REPLACEMENTS:
                raw = _mutate(copy.deepcopy(PAPER_RAW), value, path)
                expected = VALIDATOR.is_valid(raw) and _all_finite(raw)
                assert (_schema_error(raw) is None) == expected, (path, value)

    @pytest.mark.parametrize("op,path,message", [
        ("delete", ("channels", 2, "chi_mhz"),
         "channels/2: missing required key 'chi_mhz'"),
        # the oneOf branch whose const matches is the one reported
        ("retype", ("geometry", 0, "coupler"),
         "geometry/0/coupler: unexpected key 'len_um'"),
        (True, ("shunt", "l_h"), "shunt/l_h: expected number, got bool"),
    ])
    def test_error_names_path_and_key(self, op, path, message):
        raw = _mutate(copy.deepcopy(PAPER_RAW), op, path)
        with pytest.raises(ValidationError,
                           match=f"^device file invalid at {message}$"):
            device_from_dict(raw)


class TestEmission:
    # write_csv's 2-D float array path must give the per-cell path's bytes
    # for these values
    VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1 / 3,
              np.float64(math.pi) * 1e-7, -2.5e9, 0.0, 1.0]
    HEADER = ["a", "b", "c"]

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

    @pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025])
    def test_bytes_equal_per_cell(self, tmp_path, capsys, n_rows):
        table = np.resize(np.array(self.VALUES), (n_rows, 3))
        outs = {}
        for name, rows in (("array", table), ("floats", table.tolist()),
                           ("float64", list(table))):
            write_csv(tmp_path / name, self.HEADER, rows)
            outs[name] = (tmp_path / name).read_bytes()
        capsys.readouterr()
        write_csv(None, self.HEADER, table)
        outs["stdout"] = capsys.readouterr().out.encode()
        assert outs["array"].count(b"\n") == n_rows + 1
        assert all(raw == outs["array"] for raw in outs.values())
        if n_rows:
            assert outs["array"].splitlines()[1] == b"nan,inf,-inf"

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,), (0,),
                                       (2, 3, 1)])
    def test_bad_shape_rejected_before_file(self, tmp_path, shape):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValidationError, match="does not fit"):
            write_csv(path, self.HEADER, np.zeros(shape))
        assert not path.exists()


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

    def test_simulate_sample_rounded_past_the_pulse_end(self, device_path,
                                                         tmp_path):
        # 10 x 10 us lands 5e-15 s past the 99999.999995 ns pulse: the last
        # sample takes the state at the end of the pulse, not zeros
        out = tmp_path / "trace.csv"
        pulse = json.dumps({"carrier_mhz": 10357.0, "rectangular": {
            "amplitude": 1e8, "duration_ns": 99999.999995}})
        assert run(["simulate", "--device", str(device_path), "--pulse",
                    pulse, "--dt-ns", "10000", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data[-1, 0] == pytest.approx(1e-4)
        # steady state long before: the mode columns repeat the row before
        modes = data[-2:, 1:-2]
        assert np.all(modes[-1] != 0)
        np.testing.assert_allclose(modes[-1], modes[-2], rtol=1e-6)

    def test_segments_pulse_matches_rectangular(self, device_path, tmp_path):
        # one flat segment is the rectangular pulse; a segment amplitude may
        # be a complex string
        outs = [tmp_path / "rect.csv", tmp_path / "segs.csv"]
        pulses = [{"rectangular": {"amplitude": 1e6, "duration_ns": 40.0}},
                  {"segments": [{"duration_ns": 40.0, "amplitude": "1e6+0j",
                                 "edge": "flat"}]}]
        for out, shape in zip(outs, pulses):
            pulse = json.dumps({"carrier_mhz": 10357.0, **shape})
            assert run(["simulate", "--device", str(device_path), "--pulse",
                        pulse, "--dt-ns", "1.0", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

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

    @pytest.mark.parametrize("section", ["qubits", "channels"])
    def test_purcell_needs_qubit_and_channel(self, tmp_path, capsys,
                                             section):
        # without the pair's qubit or channel there is no g, f_q or kappa_p
        # to build the coupling from; none is made up
        raw = copy.deepcopy(PAPER_RAW)
        raw[section] = [e for e in raw[section] if e["name"] != "Q1"]
        dev, out = tmp_path / "dev.json", tmp_path / "t1.csv"
        dev.write_text(json.dumps(raw))
        code = run(["purcell", "--device", str(dev), "--pair", "Q1",
                    "--fmin", "7.8e9", "--fmax", "8.8e9", "--points", "3",
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: no {section[:-1]} named 'Q1'\n"
        assert not out.exists()

    def test_warning_printed_once_without_source(self, tmp_path, capsys):
        raw = copy.deepcopy(PAPER_RAW)
        raw["geometry"][0]["l_r_open_um"] = 0
        dev, out = tmp_path / "dev.json", tmp_path / "design.csv"
        dev.write_text(json.dumps(raw))
        assert run(["design", "--device", str(dev)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: resonator detuning exceeds 10% of "
                                "the notch frequency; the J expansion "
                                "degrades\n")
        assert run(["design", "--device", str(dev), "--out", str(out)]) == 0
        assert captured.out.encode() == out.read_bytes()

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

    def test_device_without_qubits_round_trips(self, tmp_path):
        raw = json.loads(paper_device_path().read_text())
        raw["qubits"] = []
        src = tmp_path / "dev.json"
        src.write_text(json.dumps(raw))
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        assert run(["device", "--device", str(src), "--out", str(out1)]) == 0
        assert '\n  "qubits": []\n' in out1.read_text()
        assert run(["device", "--device", str(out1),
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweeps_hand_write_csv_an_array(self, device_path, tmp_path,
                                            monkeypatch, capsys):
        # every float table reaches write_csv as one 2-D array, so it takes
        # the block-formatting path and not the per-cell one
        handed = {}

        def spy(path, header, rows):
            handed[header[1]] = rows
            return write_csv(path, header, rows)

        monkeypatch.setattr(notchlab.cli, "write_csv", spy)
        pulse = json.dumps({"carrier_mhz": 10357.0, "rectangular": {
            "amplitude": 1e6, "duration_ns": 20.0}})
        sweep = ["--fmin", "7.8e9", "--fmax", "8.8e9", "--points", "11"]
        for argv in (["z21", "--pair", "Q1", *sweep],
                     ["reflect", *sweep],
                     ["purcell", "--pair", "Q1", *sweep],
                     ["simulate", "--pulse", pulse],
                     ["separation", "--pair", "Q2", "--pulse", pulse]):
            assert run([argv[0], "--device", str(device_path), *argv[1:],
                        "--out", str(tmp_path / argv[0])]) == 0
        assert sorted(handed) == ["im_z21_ohm", "re_gamma", "re_p_Q1",
                                  "separation", "t1_mtl_s"]
        for rows in handed.values():
            assert isinstance(rows, np.ndarray)
            assert rows.ndim == 2 and rows.dtype == np.float64

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


class TestNumericalFailuresExit3:
    """Device values whose results overflow or whose coupler degenerates.

    Each exits 3 with a message on stderr: no traceback and no --out file,
    and no warning outside the L1 cases.
    """

    PULSE = json.dumps({"carrier_mhz": 10224.0, "two_step": {
        "plateau_amplitude": 1e6, "plateau_duration_ns": 50}})
    FLAGS = {
        "reflect": ["--fmin", "10.0e9", "--fmax", "10.9e9", "--points", "11"],
        "separation": ["--pair", "Q1", "--pulse", PULSE],
        "purcell": ["--pair", "Q1", "--fmin", "7.8e9", "--fmax", "8.8e9",
                    "--points", "11"],
        "simulate": ["--pulse", PULSE],
    }

    @pytest.mark.parametrize("command,key,value,message", [
        ("reflect", "j_mhz", 1e300, "4 J^2 overflows"),
        ("separation", "j_mhz", 1e300, "4 J^2 overflows"),
        ("reflect", "f_r_g_mhz", 1e300, "reflection coefficient is not finite"),
        ("purcell", "len_um", 0, "coupler length 0"),
        ("simulate", "j_mhz", 1e300, "too large to resolve its eigenvalues"),
        ("simulate", "f_r_g_mhz", 1e300,
         "too large to resolve its eigenvalues"),
    ], ids=["reflect-j", "separation-j", "reflect-f_r_g", "purcell-len_c",
            "simulate-j", "simulate-f_r_g"])
    def test_exit_3_with_message(self, tmp_path, capsys, command, key, value,
                                 message):
        raw = json.loads(paper_device_path().read_text())
        if key == "len_um":
            q1 = next(g for g in raw["geometry"] if g["name"] == "Q1")
            q1["coupler"][key] = value
        else:
            raw["channels"][0][key] = value
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = [command, "--device", str(dev), *self.FLAGS[command],
                "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and message in err
        assert "Traceback" not in err and caught == []
        assert not out.exists()

    SWEEP = {"z21": ["--fmin", "8e9", "--fmax", "9e9", "--points", "11"],
             "design": [], "purcell": FLAGS["purcell"][2:]}

    @pytest.mark.parametrize("command,pair,section,key,message", [
        ("z21", "Q1", "line", "z0_ohm", "Z21"),
        ("z21", "Cap", "line", "z0_ohm", "Z21"),
        ("z21", "Q1", "coupler", "zm_over_z0", "Z21"),
        ("design", "Q1", "pair", "l_r_short_um", "J"),
        ("design", "Q1", "pair", "l_p_short_um", "J"),
        ("purcell", "Q1", "pair", "l_r_short_um", "impedance Z_n"),
        ("purcell", "Q1", "pair", "l_r_open_um", "J"),
        ("purcell", "Q1", "pair", "l_p_short_um", "impedance Z_n"),
        ("purcell", "Q1", "pair", "l_p_open_um", "J"),
        ("purcell", "Q1", "coupler", "len_um", "impedance Z_n"),
    ], ids=["z21-z0", "z21-cap-z0", "z21-zm_over_z0", "design-l_r_short",
            "design-l_p_short", "purcell-l_r_short", "purcell-l_r_open",
            "purcell-l_p_short", "purcell-l_p_open", "purcell-len_c"])
    def test_l1_overflow_exit_3(self, tmp_path, capsys, command, pair,
                                section, key, message):
        # a 1e300 length or impedance overflows, or underflows a divisor
        # to zero, in the closed forms of mtl and equiv; j_mtl's detuning
        # and weak-coupling warnings may fire on the way
        raw = json.loads(paper_device_path().read_text())
        q1 = next(g for g in raw["geometry"] if g["name"] == "Q1")
        {"line": raw["line"], "pair": q1, "coupler": q1["coupler"]}[
            section][key] = 1e300
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = [command, "--device", str(dev), "--pair", pair,
                *self.SWEEP[command], "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ")
        assert f"{message} leaves the float range" in err
        assert not out.exists()

    @pytest.mark.parametrize("exc", [
        OverflowError("math range error"),
        ZeroDivisionError("float division by zero"),
        FloatingPointError("overflow encountered in multiply"),
        np.linalg.LinAlgError("Singular matrix"),
    ], ids=lambda exc: type(exc).__name__)
    def test_escaping_float_error_exit_3(self, device_path, capsys,
                                         monkeypatch, exc):
        # a float error that no check turned into NumericalError still ends
        # in exit 3 with a message, not in a traceback
        def fail(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr(notchlab.mtl, "notch_frequency", fail)
        assert run(["notch", "--device", str(device_path),
                    "--pair", "Q1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical error: {exc}\n"

    def test_modes_overflow_exit_3(self, tmp_path, capsys):
        # rounding at 2 pi 1e300 MHz swamps every linewidth; unchecked, the
        # modes came out with negative kappa and an ambiguity warning
        raw = json.loads(paper_device_path().read_text())
        raw["channels"][0]["f_r_g_mhz"] = 1e300
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps(raw))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["modes", "--device", str(dev), "--state", "gggg",
                        "--out", str(out)]) == 3
            net = load_device(dev).mux_network()
            for solve in (lambda: normal_modes(net, "gggg"),
                          lambda: mode_dispersive_shifts(net, "Q1")):
                with pytest.raises(NumericalError,
                                   match="too large to resolve"):
                    solve()
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ")
        assert "too large to resolve its eigenvalues" in err
        assert caught == [] and not out.exists()

    @pytest.mark.parametrize("key,code", [("c_f", 3), ("l_h", 0)])
    @pytest.mark.parametrize("command", ["purcell", "simulate"])
    def test_huge_shunt_element(self, tmp_path, capsys, command, key, code):
        # 1e300 F leaves no finite shunt admittance; 1e300 H only sends
        # 1/(w L) to zero, a finite result reached without a warning
        raw = json.loads(paper_device_path().read_text())
        raw["shunt"][key] = 1e300
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = [command, "--device", str(dev), *self.FLAGS[command],
                "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == code
        err = capsys.readouterr().err
        assert caught == [] and out.exists() == (code == 0)
        if code == 3:
            assert err == ("numerical error: shunt admittance is not finite; "
                           "a shunt element overflows the float range\n")
        else:
            assert err == ""

    def test_overflowing_drive_exit_3(self, device_path, tmp_path, capsys):
        pulse = json.dumps({"carrier_mhz": 10224.0, "rectangular": {
            "amplitude": 1.7e308, "duration_ns": 20}})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["simulate", "--device", str(device_path), "--pulse",
                        pulse, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "field traces are not finite" in err and caught == []
        assert not out.exists()


NUMERIC_LEAVES = [p for p in LEAVES if type(
    functools.reduce(operator.getitem, p, PAPER_RAW)) in (int, float)]


class TestMutatedDeviceCli:
    """simulate and separation on a perturbed paper device, in-process.

    Each run ends in exit 0 with finite output, or exit 2 or 3 with a
    message and no output file; never a traceback or a warning.
    """

    PULSES = [json.dumps({"carrier_mhz": 10224.0, "rectangular": {
                  "amplitude": 1e6, "duration_ns": 10}}),
              json.dumps({"carrier_mhz": 10224.0, "two_step": {
                  "plateau_amplitude": 1e6, "plateau_duration_ns": 4}})]
    PERTURBATION = st.tuples(st.sampled_from([0, -1, 1e-9, 1e12, 1e300]),
                             st.sampled_from(NUMERIC_LEAVES))

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutated")

    @settings(max_examples=100)
    @given(st.lists(PERTURBATION, min_size=1, max_size=3, unique=True),
           st.sampled_from(["simulate", "separation"]),
           st.sampled_from(PULSES))
    # overflow cases the draws may miss: a shunt element or J at 1e300
    @example([(1e300, ("shunt", "c_f"))], "simulate", PULSES[1])
    @example([(1e300, ("shunt", "l_h"))], "separation", PULSES[1])
    @example([(1e300, ("channels", 0, "j_mhz"))], "simulate", PULSES[0])
    def test_exit_code_and_finite_output(self, workdir, perturbations,
                                         command, pulse):
        raw = copy.deepcopy(PAPER_RAW)
        for value, path in perturbations:
            raw = _mutate(raw, value, path)
        dev, out = workdir / "dev.json", workdir / "out.csv"
        dev.write_text(json.dumps(raw))
        out.unlink(missing_ok=True)
        argv = [command, "--device", str(dev), "--pulse", pulse,
                "--dt-ns", "1", "--out", str(out)]
        if command == "separation":
            argv += ["--pair", "Q1"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = run(argv)
        assert caught == []
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
            table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            assert table.size and np.all(np.isfinite(table))
            values = re.findall(r"= (\S+)", stdout.getvalue())
            assert all(math.isfinite(float(v)) for v in values)
        else:
            assert code in (2, 3)
            prefix = "error: " if code == 2 else "numerical error: "
            assert err.startswith(prefix) and "Traceback" not in err
            assert not out.exists()


COUNTS_OK = {"no_pulse": [[990, 10], [20, 980]],
             "pi_before_second": [[15, 985], [20, 980]],
             "pi_before_first": [[990, 10], [30, 970]]}


class TestJsonInputs:
    """--pulse files and --counts files: each bad one exits 2 with a message."""

    @pytest.mark.parametrize("command,content,detail", [
        ("simulate", "{not json", "pulse file"),
        ("simulate", json.dumps({"carrier_mhz": 10224.0, "segments": [
            {"duration_ns": 10, "amplitude": "x"}]}),
         "malformed pulse description"),
        ("budget", None, "cannot read counts file"),
        ("budget", "[[1, 2]", "counts file"),
        ("budget", json.dumps({k: v for k, v in COUNTS_OK.items()
                               if k != "pi_before_first"}),
         "pi_before_first"),
        ("budget", json.dumps({**COUNTS_OK, "no_pulse": [[990, "x"],
                                                         [20, 980]]}),
         "no_pulse must be a 2x2 table of counts"),
    ], ids=["pulse-invalid-json", "pulse-text-amplitude", "counts-missing",
            "counts-invalid-json", "counts-missing-key", "counts-bad-cell"])
    def test_exit_2_with_message(self, device_path, tmp_path, capsys,
                                 command, content, detail):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "out"
        if command == "simulate":
            argv = ["simulate", "--device", str(device_path), "--pulse",
                    str(path), "--out", str(out)]
        else:
            argv = ["budget", "--snr", "8", "--tau-meas-ns", "56", "--t1-us",
                    "26", "--counts", str(path), "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and detail in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_good_counts_read(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(COUNTS_OK))
        out = tmp_path / "out.json"
        assert run(["budget", "--snr", "8", "--tau-meas-ns", "56", "--t1-us",
                    "26", "--counts", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["f"] == pytest.approx(0.9875)

    def test_deep_nesting_exit_2(self, device_path, tmp_path, capsys):
        # json's decoder raises RecursionError, no ValueError, past about
        # a thousand nested levels
        deep = "[" * 10_000 + "]" * 10_000
        path = tmp_path / "deep.json"
        path.write_text(deep)
        out = tmp_path / "out"
        simulate = ["simulate", "--device", str(device_path), "--pulse"]
        for argv, detail in (
                (["device", "--device", str(path)], "device file"),
                (simulate + [str(path)], "pulse file"),
                (simulate + [deep], "--pulse is neither a file nor JSON"),
                (["budget", "--snr", "8", "--tau-meas-ns", "56", "--t1-us",
                  "26", "--counts", str(path)], "counts file")):
            assert run(argv + ["--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and detail in err
        assert not out.exists()


class TestSizeCaps:
    """Requests past the sample cap fail validation before any allocation."""

    def test_grid_points_capped(self):
        args = argparse.Namespace(fmin=1e9, fmax=2e9, points=10 ** 6 + 1)
        with pytest.raises(ValidationError, match="points must lie in"):
            notchlab.cli._grid(args)

    def test_tiny_dt_exit_2(self, device_path, tmp_path, capsys):
        pulse = json.dumps({"carrier_mhz": 10224.0, "two_step": {
            "plateau_amplitude": 1e6, "plateau_duration_ns": 50}})
        assert run(["simulate", "--device", str(device_path), "--pulse",
                    pulse, "--dt-ns", "1e-300",
                    "--out", str(tmp_path / "o.csv")]) == 2
        assert "time steps; the limit is" in capsys.readouterr().err


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


class TestToleranceAndNames:
    """--tol must be > 0; no device list may repeat a name."""

    @pytest.mark.parametrize("tol", ["0", "nan"])
    @pytest.mark.parametrize("command", ["z21", "fit"])
    def test_tol_not_positive_exit_2(self, device_path, tmp_path, capsys,
                                     command, tol):
        if command == "z21":
            flags = ["--pair", "Q1", "--fmin", "8e9", "--fmax", "9e9",
                     "--points", "11"]
        else:
            spec = tmp_path / "g.csv"
            spec.write_text(SPEC_OK)
            flags = ["--spec-g", str(spec)]
        out = tmp_path / "out"
        assert run([command, "--device", str(device_path), *flags,
                    "--tol", tol, "--out", str(out)]) == 2
        assert "must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_small_guard_reaches_near_pole(self, device_path, tmp_path):
        f_pole = load_device(device_path).pair("Q1").f_r
        argv = ["z21", "--device", str(device_path), "--pair", "Q1",
                "--fmin", repr(f_pole + 100.0), "--fmax", repr(f_pole + 200.0),
                "--points", "2", "--out", str(tmp_path / "o.csv")]
        assert run(argv) == 3  # inside the default 1 kHz guard
        assert run(argv + ["--tol", "1e-3"]) == 0

    @pytest.mark.parametrize("key,kind", [("geometry", "geometry"),
                                          ("channels", "channel"),
                                          ("qubits", "qubit")])
    def test_duplicate_name_rejected(self, key, kind):
        raw = json.loads(paper_device_path().read_text())
        raw[key][1]["name"] = raw[key][0]["name"]
        with pytest.raises(ValidationError,
                           match=f"duplicate {kind} name {raw[key][0]['name']!r}"):
            device_from_dict(raw)

    @pytest.mark.parametrize("command", ["device", "design", "purcell"])
    def test_duplicate_channel_name_exit_2(self, tmp_path, capsys, command):
        raw = json.loads(paper_device_path().read_text())
        raw["channels"][1]["name"] = "Q1"
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps(raw))
        flags = ["--pair", "Q1", "--fmin", "7.8e9", "--fmax", "8.8e9",
                 "--points", "11"] if command == "purcell" else []
        out = tmp_path / "out"
        assert run([command, "--device", str(dev), *flags,
                    "--out", str(out)]) == 2
        assert "duplicate channel name 'Q1'" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteFlags:
    """A nan or inf number flag exits 2 with a message and writes nothing."""

    @pytest.mark.parametrize("flag,value", [("--theta0", "nan"),
                                            ("--tau-ns", "inf")])
    def test_fit_exit_2(self, device_path, tmp_path, capsys, flag, value):
        spec = tmp_path / "g.csv"
        spec.write_text(SPEC_OK)
        out = tmp_path / "fit.json"
        assert run(["fit", "--device", str(device_path), "--spec-g",
                    str(spec), flag, value, "--out", str(out)]) == 2
        assert "theta0 and tau must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--delta-ac-hz", "nan", "--chi-hz", "1e6"],
        ["--delta-ac-hz", "1e6", "--chi-hz", "nan"],
        ["--delta-ac-hz", "inf", "--chi-hz", "1e6"],
        ["--p-w", "nan", "--rabi-hz", "1e6", "--f-d-hz", "1e10"],
        ["--p-w", "inf", "--rabi-hz", "1e6", "--f-d-hz", "1e10"],
        ["--p-w", "1e-12", "--rabi-hz", "inf", "--f-d-hz", "1e10"],
        ["--p-w", "1e-12", "--rabi-hz", "1e6", "--f-d-hz", "inf"],
    ], ids=["delta-nan", "chi-nan", "delta-inf", "p-nan", "p-inf", "rabi-inf",
            "f_d-inf"])
    def test_calibrate_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "cal.json"
        assert run(["calibrate", *flags, "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteResults:
    """An overflowing calibrate result exits 3; a non-finite budget input
    exits 2.  Either names the quantity and writes nothing."""

    @pytest.mark.parametrize("flags,quantity", [
        (["--p-w", "1e308", "--rabi-hz", "1e-3", "--f-d-hz", "1"], "T1"),
        (["--delta-ac-hz", "1e308", "--chi-hz", "1e-308"], "photon number"),
    ], ids=["t1", "n_photons"])
    def test_calibrate_overflow_exit_3(self, tmp_path, capsys, flags,
                                       quantity):
        out = tmp_path / "cal.json"
        assert run(["calibrate", *flags, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and quantity in err
        assert not out.exists()

    @pytest.mark.parametrize("flags,quantity", [
        (["--snr", "inf"], "SNR"),
        (["--snr", "nan"], "SNR"),
        (["--snr", "8", "--tau-meas-ns", "inf"], "tau_meas"),
        (["--snr", "8", "--tau-buffer-ns", "inf"], "tau_buffer"),
    ], ids=["snr-inf", "snr-nan", "tau_meas-inf", "tau_buffer-inf"])
    def test_budget_exit_2(self, tmp_path, capsys, flags, quantity):
        out = tmp_path / "budget.json"
        assert run(["budget", "--tau-meas-ns", "56", "--t1-us", "26", *flags,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {quantity} must be finite")
        assert not out.exists()

    def test_budget_infinite_t1_is_no_relaxation(self, tmp_path):
        out = tmp_path / "budget.json"
        assert run(["budget", "--snr", "8.4", "--tau-meas-ns", "56",
                    "--t1-us", "inf", "--out", str(out)]) == 0
        budget = json.loads(out.read_text())
        assert budget["eps_cl"] == 0 and budget["eps_cl_q"] == 0


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


# Runs each phase's commands through cli.run in one interpreter and prints,
# per phase, the exit codes and the scipy modules loaded so far.
_IMPORT_PHASES = """
import json, sys
from notchlab.cli import run
seen = {}
for phase, argvs in json.loads(sys.argv[1]).items():
    codes = [run(argv) for argv in argvs]
    seen[phase] = codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")
print(json.dumps(seen))
"""


def test_cli_loads_scipy_only_where_used(device_path, tmp_path):
    # scipy.optimize alone is about 0.5 s of a cold start: every command but
    # these three must run without loading any scipy module
    from notchlab import synth_spectrum

    net = load_device(device_path).mux_network()
    grid = np.linspace(10.0e9, 10.9e9, 201)
    for state in "ge":
        spec = synth_spectrum(net, state, 0.4, 0.2e-9, grid, 0.0)
        write_csv(tmp_path / f"{state}.csv", ["freq_hz", "phase_rad"],
                  list(zip(spec.freq_hz, spec.phase_rad)))
    (tmp_path / "shots.csv").write_text(_shots_csv())
    (tmp_path / "stark.csv").write_text(STARK_OK)
    dev = ["--device", str(device_path)]
    pulse = json.dumps({"carrier_mhz": 10357.0, "rectangular": {
        "amplitude": 1e6, "duration_ns": 20.0}})

    def out(name):
        return ["--out", str(tmp_path / name)]

    phases = {
        "numpy_only": [
            ["notch", *dev, "--pair", "Q1"],
            ["design", *dev, *out("design.csv")],
            ["device", *dev, *out("device.json")],
            ["modes", *dev, *out("modes.json")],
            ["z21", *dev, "--pair", "Q1", "--fmin", "8.0e9", "--fmax",
             "8.5e9", "--points", "11", *out("z21.csv")],
            ["reflect", *dev, "--fmin", "10.0e9", "--fmax", "10.9e9",
             "--points", "11", *out("reflect.csv")],
            ["purcell", *dev, "--pair", "Q1", "--fmin", "7.8e9", "--fmax",
             "8.8e9", "--points", "11", *out("purcell.csv")],
            ["budget", "--shots", str(tmp_path / "shots.csv"),
             "--tau-meas-ns", "56", "--t1-us", "26", *out("budget.json")],
            ["calibrate", "--stark", str(tmp_path / "stark.csv"),
             *out("calibrate.json")],
        ],
        "simulate": [["simulate", *dev, "--pulse", pulse, "--dt-ns", "1.0",
                      *out("trace.csv")]],
        "fit": [["fit", *dev, "--spec-g", str(tmp_path / "g.csv"),
                 "--spec-e", str(tmp_path / "e.csv"), *out("fit.json")]],
    }
    src = str(Path(notchlab.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PHASES, json.dumps(phases)], env=env,
        check=True, capture_output=True, text=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    for phase, argvs in phases.items():
        assert seen[phase][0] == [0] * len(argvs), proc.stderr
    assert seen["numpy_only"][1] == []
    loaded = seen["simulate"][1]
    assert "scipy.linalg" in loaded and "scipy.optimize" not in loaded
    assert "scipy.optimize" in seen["fit"][1]


def test_cli_never_loads_jsonschema(device_path, tmp_path):
    # jsonschema is a test dependency: device files are checked by the walk
    # over DEVICE_SCHEMA in notchlab.device
    src = str(Path(notchlab.cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = ["device", "--device", str(device_path),
            "--out", str(tmp_path / "device.json")]
    code = ("import sys, notchlab.cli; "
            f"code = notchlab.cli.run({argv!r}); "
            "print(code, 'jsonschema' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "False"]
