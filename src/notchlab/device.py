"""Device description files.

The on-disk JSON uses the units the design tables are quoted in (lengths in
micrometres, frequencies in MHz); the library speaks SI.  Conversion happens
here and only here.  Each file record (the line, the shunt, a geometry, its
MTL or capacitive coupler, a channel, a qubit) is one table with a row per
file key.  DEVICE_SCHEMA, a JSON Schema that rejects unknown keys, the
loader and the emitter are all read from these tables.  The module walks
the schema itself; every number must also be finite.
"""

from __future__ import annotations

import importlib.resources
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ValidationError
from .io import read_json
from .mtl import (CoupledPairGeometry, LineParams, MtlCouplerParams,
                  QubitInfo, ReadoutChannel, ShuntLC)

if TYPE_CHECKING:  # mux_network imports it when called
    from .mux import MuxNetwork

_MHZ = 1e6
_UM = 1e-6


# One key of a file record: the record field it fills (None for a coupler's
# const type), the SI value of one file unit (None keeps the number as read),
# its schema and whether it is required.  Row order is the file's key order.
_Row = namedtuple("_Row", "key attr scale schema required", defaults=(True,))


def _object(table) -> dict:
    """JSON Schema of a file object holding the table's keys and no other."""
    return {"type": "object", "additionalProperties": False,
            "required": [row.key for row in table if row.required],
            "properties": {row.key: row.schema for row in table}}


_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_NAME = _Row("name", "name", None, {"type": "string", "minLength": 1})

_LINE = (_Row("z0_ohm", "z0", None, _POS),
         _Row("v_m_per_s", "v", None, _POS),
         _Row("z0_line_ohm", "z0_line", None, _POS, False))  # Device.z0_line
_SHUNT = (_Row("c_f", "c_shunt", None, _POS),
          _Row("l_h", "l_shunt", None, _POS))
_MTL = (_Row("type", None, None, {"const": "mtl"}),
        _Row("len_um", "len_c", _UM, _NONNEG),
        _Row("cm_over_c", "cm_over_c", None,
             {"type": "number", "minimum": 0, "exclusiveMaximum": 1}),
        _Row("zm_over_z0", "zm_over_z0", None, _POS, False),
        _Row("d_um", "d", _UM, _POS, False))
# read as a float; emitted from the geometry's c_j
_CAPACITIVE = (_Row("type", None, None, {"const": "capacitive"}),
               _Row("c_j_f", "c_j", 1.0, _NONNEG))
_GEOMETRY = (_NAME,
             _Row("l_r_open_um", "l_r_open", _UM, _NONNEG),
             _Row("l_r_short_um", "l_r_short", _UM, _NONNEG),
             _Row("l_p_open_um", "l_p_open", _UM, _NONNEG),
             _Row("l_p_short_um", "l_p_short", _UM, _NONNEG),
             _Row("coupler", "coupler", None,
                  {"oneOf": [_object(_MTL), _object(_CAPACITIVE)]}))
_CHANNEL = (_NAME,
            _Row("f_r_g_mhz", "f_r_g", _MHZ, _POS),
            _Row("chi_mhz", "chi", _MHZ, {"type": "number"}),
            _Row("f_p_mhz", "f_p", _MHZ, _POS),
            _Row("j_mhz", "j", _MHZ, _NONNEG),
            _Row("kappa_p_mhz", "kappa_p", _MHZ, _POS),
            _Row("gamma_r_mhz", "gamma_r", _MHZ, _NONNEG, False),
            _Row("gamma_p_mhz", "gamma_p", _MHZ, _NONNEG, False))
_QUBIT = (_NAME,
          _Row("f_q_mhz", "f_q", _MHZ, _POS),
          _Row("alpha_mhz", "alpha", _MHZ, {"type": "number"}),
          _Row("g_mhz", "g", _MHZ, _POS),
          _Row("c_q_f", "c_q", None, _POS, False))
# the file's arrays of named records
_NAMED = (("geometry", _GEOMETRY), ("channels", _CHANNEL), ("qubits", _QUBIT))
_DEVICE = (_Row("line", "line", None, _object(_LINE)),
           _Row("shunt", "shunt", None, _object(_SHUNT)),
           *(_Row(key, key, None, {"type": "array", "items": _object(table)})
             for key, table in _NAMED))

DEVICE_SCHEMA = {"$schema": "https://json-schema.org/draft/2020-12/schema",
                 **_object(_DEVICE)}

_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float)}


def _schema_error(value, schema=DEVICE_SCHEMA, path=()):
    """(path, reason) of the first place value breaks schema, or None.

    JSON meaning: a bool is no number, an int is one, and oneOf takes
    exactly one branch.  A number must be finite too: bounds pass NaN.
    """
    if "oneOf" in schema:
        errors = [_schema_error(value, s, path) for s in schema["oneOf"]]
        if None in errors:
            return (None if errors.count(None) == 1
                    else (path, "matches more than one oneOf branch"))
        # the deepest failure of a branch whose const matched tells most
        return max(errors, key=lambda e: (not e[1].startswith("must be "),
                                          len(e[0])))
    kind = schema.get("type")
    if kind and (not isinstance(value, _TYPES[kind])
                 or isinstance(value, bool)):
        return path, f"expected {kind}, got {type(value).__name__}"
    if "const" in schema and value != schema["const"]:
        return path, f"must be {schema['const']!r}"
    if kind == "number":
        if not abs(value) <= sys.float_info.max:  # NaN, inf, a huge int
            return path, "non-finite number"
        if not (value >= schema.get("minimum", value)
                and value > schema.get("exclusiveMinimum", -math.inf)
                and value < schema.get("exclusiveMaximum", math.inf)):
            return path, f"{value!r} is out of range"
    if kind == "string" and len(value) < schema.get("minLength", 0):
        return path, f"{value!r} is too short"
    if kind == "array":
        for i, item in enumerate(value):
            if err := _schema_error(item, schema["items"], path + (i,)):
                return err
    if kind == "object":
        props = schema.get("properties", {})
        for key, item in value.items():
            if key in props:
                if err := _schema_error(item, props[key], path + (key,)):
                    return err
            elif schema.get("additionalProperties") is False:
                return path, f"unexpected key {key!r}"
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"missing required key {key!r}"
    return None


@dataclass(frozen=True)
class Device:
    """Validated device description in SI units."""

    line: LineParams
    z0_line: float
    shunt: ShuntLC
    geometry: dict[str, CoupledPairGeometry] = field(default_factory=dict)
    channels: tuple[ReadoutChannel, ...] = ()
    qubits: dict[str, QubitInfo] = field(default_factory=dict)

    def pair(self, name: str) -> CoupledPairGeometry:
        if name not in self.geometry:
            raise ValidationError(
                f"no geometry named {name!r}; have {sorted(self.geometry)}")
        return self.geometry[name]

    def mux_network(self) -> MuxNetwork:
        from .mux import MuxNetwork
        if not self.channels:
            raise ValidationError("device defines no readout channels")
        return MuxNetwork(channels=self.channels, shunt=self.shunt,
                          z0_line=self.z0_line)

    def qubit(self, name: str) -> QubitInfo:
        if name not in self.qubits:
            raise ValidationError(f"no qubit named {name!r}")
        return self.qubits[name]


def _fields(table, obj) -> dict:
    """{record field: SI value} of a file object; the record's own defaults
    stand in for absent keys."""
    return {row.attr: obj[row.key] if row.scale is None
            else obj[row.key] * row.scale
            for row in table if row.attr and row.key in obj}


def _file_object(table, rec, **given) -> dict:
    """File object of record rec, the inverse of _fields: a field in given
    is read from there, and a field that is None is left out."""
    out = {}
    for row in table:
        value = (row.schema["const"] if row.attr is None
                 else given[row.attr] if row.attr in given
                 else getattr(rec, row.attr))
        if value is not None:
            out[row.key] = value if row.scale is None else value / row.scale
    return out


def device_from_dict(raw: dict) -> Device:
    """Validate a parsed device JSON object and convert to SI."""
    if err := _schema_error(raw):
        where = "/".join(map(str, err[0])) or "(root)"
        raise ValidationError(f"device file invalid at {where}: {err[1]}")
    raw_line, raw_shunt, *named = (raw[row.key] for row in _DEVICE)
    line = _fields(_LINE, raw_line)
    z0_line = line.pop("z0_line", 50.0)  # a Device field, not a LineParams one
    line, shunt = LineParams(**line), ShuntLC(**_fields(_SHUNT, raw_shunt))
    for (key, table), items in zip(_NAMED, named):
        names = [item["name"] for item in items]
        dup = next((nm for i, nm in enumerate(names) if nm in names[:i]), None)
        if dup is not None:
            raise ValidationError(f"duplicate {key.rstrip('s')} name {dup!r}")
        scale = {row.key: row.scale for row in table}
        for i, item in enumerate(items):
            # names go unquoted into CSV cells and headers, one per line
            if not item["name"].isprintable() or set(',"') & set(item["name"]):
                raise ValidationError(
                    f"device file invalid at {key}/{i}/name: {item['name']!r} "
                    "holds a comma, a double quote or an unprintable character")
            for k in item:  # only the MHz scale grows a number: it can overflow
                if scale[k] and not math.isfinite(item[k] * scale[k]):
                    raise ValidationError(f"device file invalid at {key}/{i}/"
                                          f"{k}: {item[k]:.6g} MHz overflows")
    geometry = {}
    for kw in (_fields(_GEOMETRY, g) for g in named[0]):
        cp, name = kw.pop("coupler"), kw.pop("name")
        geometry[name] = CoupledPairGeometry(**kw, line=line, coupler=(
            MtlCouplerParams(**_fields(_MTL, cp)) if cp["type"] == "mtl"
            else _fields(_CAPACITIVE, cp)["c_j"]))
    channels = tuple(ReadoutChannel(**_fields(_CHANNEL, c)) for c in named[1])
    qubits = {kw.pop("name"): QubitInfo(**kw)  # the key is evaluated first
              for kw in (_fields(_QUBIT, q) for q in named[2])}
    return Device(line=line, z0_line=z0_line, shunt=shunt, geometry=geometry,
                  channels=channels, qubits=qubits)


def load_device(path) -> Device:
    # NaN, Infinity and overflowing literals parse to numbers that
    # device_from_dict rejects
    return device_from_dict(read_json(path, "device file"))


def device_to_dict(dev: Device) -> dict:
    """Inverse of device_from_dict (units restored to the file convention)."""
    geometry = [_file_object(_GEOMETRY, g, name=name, coupler=(
        _file_object(_MTL, g.coupler) if g.is_mtl
        else _file_object(_CAPACITIVE, g))) for name, g in dev.geometry.items()]
    return _file_object(
        _DEVICE, dev, geometry=geometry,
        line=_file_object(_LINE, dev.line, z0_line=dev.z0_line),
        shunt=_file_object(_SHUNT, dev.shunt),
        channels=[_file_object(_CHANNEL, c) for c in dev.channels],
        qubits=[_file_object(_QUBIT, q, name=name)
                for name, q in dev.qubits.items()])


def paper_device_path():
    """Path to the bundled device encoding the published design tables."""
    return importlib.resources.files("notchlab.data").joinpath(
        "paper_device.json")


def load_paper_device() -> Device:
    with importlib.resources.as_file(paper_device_path()) as p:
        return load_device(p)
