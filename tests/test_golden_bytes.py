"""Golden CLI output bytes, checked in the unit suite.

Runs every menu entry of the benchmark workloads (perfbench/workloads.py)
through cli.run in-process and compares the sha256 of each output file with
perfbench/golden.json, so a byte change shows up here and not only in a
benchmark run.  Both files are only read.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import notchlab.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolves the module by name
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # leave no __pycache__ behind in perfbench/
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = dont_write
    return mod


WORKLOADS = _load_workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
ENTRIES = [(f"{workload}/{cmd}/{k}", entry)
           for workload, menu in WORKLOADS.MENUS.items()
           for cmd, entries in menu.items()
           for k, entry in enumerate(entries)]


def test_every_golden_key_has_a_menu_entry():
    assert sorted(key for key, _ in ENTRIES) == sorted(GOLDEN)


@pytest.mark.parametrize("key,entry", ENTRIES, ids=[k for k, _ in ENTRIES])
def test_output_bytes_match_golden(key, entry, tmp_path):
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(WORKLOADS.cli_argv(entry, out))
    assert code == 0
    assert WORKLOADS.sha256(out) == GOLDEN[key]


def test_cached_parser_keeps_no_state_between_runs(tmp_path, capsys):
    # one parser serves every cli.run of a process: failed parses must not
    # leak into the next command, and a defaulted --state must stay None
    assert cli.build_parser() is cli.build_parser()
    device = str(WORKLOADS.DEVICE)
    assert cli.run(["no-such-command", "--device", device]) == 2
    assert cli.run(["notch", "--device", device]) == 2  # --pair missing
    assert "--pair" in capsys.readouterr().err
    for key in ("sweep_grid/reflect_default/0", "sweep_grid/z21_cap/0"):
        workload, cmd, k = key.split("/")
        out = tmp_path / cmd
        entry = WORKLOADS.MENUS[workload][cmd][int(k)]
        assert cli.run(WORKLOADS.cli_argv(entry, out)) == 0
        assert WORKLOADS.sha256(out) == GOLDEN[key]
    assert cli.build_parser() is cli.build_parser()
