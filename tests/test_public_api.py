"""README's Public API lists exactly the names `notchlab` exports, and the
fields of each dataclass it lists them for."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import notchlab

README = Path(__file__).resolve().parents[1] / "README.md"


def public_api_section(text: str) -> str:
    section = text.split("\n## Public API\n", 1)[1]
    return section.split("L4 is not re-exported", 1)[0]


def readme_api_names(text: str) -> set[str]:
    """Backticked names in the API lists of README's "Public API" section.

    A bullet's list runs from its first colon to the first full stop outside
    backticks.  Parentheticals (`FitConfig`'s fields, `PARAM_ROWS`' rows)
    and the prose after a list are not read.
    """
    section = public_api_section(text)
    names = set()
    for bullet in re.split(r"\n\s*\* ", section)[1:]:
        while re.search(r"\([^()]*\)", bullet):  # innermost first
            bullet = re.sub(r"\([^()]*\)", "", bullet)
        body = bullet.partition(":")[2]  # empty for a layer heading
        listing = re.match(r"(?:[^.`]|`[^`]*`)*", body).group(0)
        names.update(re.findall(r"`([^`]+)`", listing))
    return names


def exported_names() -> set[str]:
    """notchlab.__all__, each name resolved; none may be a module."""
    values = {name: getattr(notchlab, name) for name in notchlab.__all__}
    modules = [n for n, v in values.items() if isinstance(v, types.ModuleType)]
    assert not modules, f"notchlab exports modules {modules}"
    return set(values)


def test_readme_lists_what_notchlab_exports():
    listed = readme_api_names(README.read_text())
    exported = exported_names()
    assert "ReadoutChannel" in listed and "ValidationError" in listed
    assert not listed - exported, "README lists names notchlab lacks"
    assert not exported - listed, "notchlab exports names README omits"


def test_moved_records_resolve_at_their_former_homes():
    from notchlab import mtl, mux, purcell
    assert mux.ReadoutChannel is mtl.ReadoutChannel is notchlab.ReadoutChannel
    assert mux.QubitInfo is mtl.QubitInfo is notchlab.QubitInfo
    assert purcell.ShuntLC is mux.ShuntLC is mtl.ShuntLC is notchlab.ShuntLC
    assert mux.MAX_SAMPLES is mtl.MAX_SAMPLES


def test_import_is_lazy_and_star_import_binds_every_name():
    # a fresh interpreter: this one has imported submodules already
    src = str(Path(notchlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import json, sys\n"
            "import notchlab\n"
            "bare = sorted(m for m in sys.modules if m.startswith('notchlab.'))\n"
            "scope = {}\n"
            "exec('from notchlab import *', scope)\n"
            "print(json.dumps([bare, sorted(set(scope) - {'__builtins__'}),\n"
            "                  notchlab.__all__]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    bare, bound, exported = json.loads(out)
    assert bare == []
    assert bound == sorted(exported)
    assert set(exported) == readme_api_names(README.read_text())



def readme_field_lists(text: str) -> dict[str, list[str]]:
    """{name: [field, ...]} for each "`Name` (`a`, `b`, ...)" in Public API."""
    pattern = r"`(\w+)` \(((?:`\w+`,\s*)*`\w+`)\)"
    return {name: re.findall(r"`(\w+)`", fields) for name, fields
            in re.findall(pattern, public_api_section(text))}


def test_readme_field_lists_match_dataclasses():
    lists = {name: fields for name, fields
             in readme_field_lists(README.read_text()).items()
             if dataclasses.is_dataclass(getattr(notchlab, name, None))}
    assert {"FidelityResult", "FieldTraces", "FitConfig"} <= set(lists)
    for name, fields in lists.items():
        declared = [f.name for f in dataclasses.fields(getattr(notchlab, name))]
        assert fields == declared, name

