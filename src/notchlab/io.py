"""Deterministic CSV/JSON emission, and the one JSON file reader.

All files are UTF-8 with LF line endings; floats are printed with 9
significant digits so repeated runs and canonicalization round trips are
byte-identical.  A path of None writes the same bytes to stdout.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys

from .errors import ValidationError


@contextlib.contextmanager
def _sink(path):
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def read_json(path, what: str):
    """Parsed JSON file; ValidationError names `what` and the path on failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") \
            from exc


def format_float(x) -> str:
    # "%.9g" spells nan, inf, -inf and -0 the way the files expect
    return "%.9g" % x


def _format_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format_float(x)


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of numbers/strings under an exact header.

    Rows of floats only, the shape every sweep writes, go through one
    format template; rows holding str, bool or int are formatted per cell.
    """
    template = ",".join(["%.9g"] * len(header)) + "\n"
    with _sink(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValidationError(
                    f"row width {len(row)} != header width {len(header)}")
            if any(isinstance(x, (str, int)) for x in row):
                fh.write(",".join(_format_cell(x) for x in row) + "\n")
            else:
                fh.write(template % tuple(row))


def _json_dumps(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{inner}"{k}": {_json_dumps(v, indent + 2)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{_json_dumps(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, float) and not math.isfinite(obj):
        # JSON has no inf/nan literals; emit as strings
        return f'"{format_float(obj)}"'
    if isinstance(obj, (bool, int, float)):
        return _format_cell(obj)
    raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(path, obj) -> None:
    """Write a JSON document with canonical float formatting."""
    with _sink(path) as fh:
        fh.write(_json_dumps(obj) + "\n")

