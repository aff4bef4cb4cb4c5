"""Deterministic CSV/JSON emission, and the one JSON file reader.

All files are UTF-8 with LF line endings; floats are printed with 9
significant digits so repeated runs and canonicalization round trips are
byte-identical.  A path of None writes the same bytes to stdout.  A CSV
of floats given as one 2-D array is formatted a block of rows at a time.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys

import numpy as np

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
    except (ValueError, RecursionError) as exc:  # bad JSON/UTF-8, too deep
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


_BLOCK_ROWS = 1024  # rows per "%": bounds the CSV text held in memory


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of numbers/strings under an exact header.

    A 2-D float ndarray, as every sweep writes, must match the header width
    before the file opens; it is formatted one block of rows per "%".  Any
    other rows are formatted per cell.
    """
    as_array = isinstance(rows, np.ndarray) and rows.dtype.kind == "f"
    if as_array and (rows.ndim != 2 or rows.shape[1] != len(header)):
        raise ValidationError(f"array of shape {rows.shape} does not fit "
                              f"a header of width {len(header)}")
    with _sink(path) as fh:
        fh.write(",".join(header) + "\n")
        if as_array:
            template = ",".join(["%.9g"] * len(header)) + "\n"
            for start in range(0, len(rows), _BLOCK_ROWS):
                block = rows[start:start + _BLOCK_ROWS]
                fh.write(template * len(block) % tuple(block.ravel().tolist()))
            return
        for row in rows:
            if len(row) != len(header):
                raise ValidationError(
                    f"row width {len(row)} != header width {len(header)}")
            fh.write(",".join(map(_format_cell, row)) + "\n")


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
        return json.dumps(obj, ensure_ascii=False)
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

