"""Pin the output bytes of every menu entry the workloads can run.

    PYTHONPATH=src python3 perfbench/make_golden.py

Writes perfbench/golden.json: sha256 of each CLI output file, keyed
workload/command/variant.  Run it only at a commit whose CLI output is the
accepted golden output; the benchmark counts any later difference as a
failed op.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import notchlab.cli as cli

from workloads import GOLDEN_PATH, MENUS, cli_argv, sha256


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(dir=GOLDEN_PATH.parent) as tmp:
        out = Path(tmp) / "out"
        for workload, menu in MENUS.items():
            for cmd, entries in menu.items():
                for k, entry in enumerate(entries):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.run(cli_argv(entry, out))
                    if code != 0:
                        print(f"{workload}/{cmd}/{k}: exit {code}",
                              file=sys.stderr)
                        return 1
                    golden[f"{workload}/{cmd}/{k}"] = sha256(out)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
