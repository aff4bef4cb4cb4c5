"""README's Public API lists exactly the names `notchlab` exports, and the
fields of each dataclass it lists them for."""

import dataclasses
import re
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
    return {name for name, value in vars(notchlab).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)}


def test_readme_lists_what_notchlab_exports():
    listed = readme_api_names(README.read_text())
    exported = exported_names()
    assert "ReadoutChannel" in listed and "ValidationError" in listed
    assert not listed - exported, "README lists names notchlab lacks"
    assert not exported - listed, "notchlab exports names README omits"



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

