"""Device description files.

The on-disk JSON uses the units the design tables are quoted in (lengths in
micrometres, frequencies in MHz); the library speaks SI.  Conversion happens
here and only here.  The module walks DEVICE_SCHEMA itself, a JSON Schema
that rejects unknown keys; every number must also be finite.
"""

from __future__ import annotations

import importlib.resources
import math
import sys
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

# ReadoutChannel fields, stored in the file as <field>_mhz
_CHANNEL_FIELDS = ("f_r_g", "chi", "f_p", "j", "kappa_p", "gamma_r", "gamma_p")
# CoupledPairGeometry segment lengths, stored in the file as <field>_um
_SEGMENT_FIELDS = ("l_r_open", "l_r_short", "l_p_open", "l_p_short")
# QubitInfo frequencies, stored in the file as <field>_mhz
_QUBIT_FIELDS = ("f_q", "alpha", "g")

_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}

DEVICE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["line", "shunt", "geometry", "channels", "qubits"],
    "properties": {
        "line": {
            "type": "object",
            "additionalProperties": False,
            "required": ["z0_ohm", "v_m_per_s"],
            "properties": {
                "z0_ohm": _POS,
                "v_m_per_s": _POS,
                "z0_line_ohm": _POS,
            },
        },
        "shunt": {
            "type": "object",
            "additionalProperties": False,
            "required": ["c_f", "l_h"],
            "properties": {"c_f": _POS, "l_h": _POS},
        },
        "geometry": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name", "l_r_open_um", "l_r_short_um",
                             "l_p_open_um", "l_p_short_um", "coupler"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "l_r_open_um": _NONNEG,
                    "l_r_short_um": _NONNEG,
                    "l_p_open_um": _NONNEG,
                    "l_p_short_um": _NONNEG,
                    "coupler": {
                        "oneOf": [
                            {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["type", "len_um", "cm_over_c"],
                                "properties": {
                                    "type": {"const": "mtl"},
                                    "len_um": _NONNEG,
                                    "cm_over_c": {"type": "number",
                                                  "minimum": 0,
                                                  "exclusiveMaximum": 1},
                                    "zm_over_z0": _POS,
                                    "d_um": _POS,
                                },
                            },
                            {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["type", "c_j_f"],
                                "properties": {
                                    "type": {"const": "capacitive"},
                                    "c_j_f": _NONNEG,
                                },
                            },
                        ]
                    },
                },
            },
        },
        "channels": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name", "f_r_g_mhz", "chi_mhz", "f_p_mhz",
                             "j_mhz", "kappa_p_mhz"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "f_r_g_mhz": _POS,
                    "chi_mhz": {"type": "number"},
                    "f_p_mhz": _POS,
                    "j_mhz": _NONNEG,
                    "kappa_p_mhz": _POS,
                    "gamma_r_mhz": _NONNEG,
                    "gamma_p_mhz": _NONNEG,
                },
            },
        },
        "qubits": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name", "f_q_mhz", "alpha_mhz", "g_mhz"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "f_q_mhz": _POS,
                    "alpha_mhz": {"type": "number"},
                    "g_mhz": _POS,
                    "c_q_f": _POS,
                },
            },
        },
    },
}

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


def _coupler_from_json(obj) -> MtlCouplerParams | float:
    if obj["type"] == "mtl":
        return MtlCouplerParams(
            len_c=obj["len_um"] * _UM,
            cm_over_c=obj["cm_over_c"],
            zm_over_z0=obj.get("zm_over_z0", 1.0),
            d=obj["d_um"] * _UM if "d_um" in obj else None,
        )
    return float(obj["c_j_f"])


def device_from_dict(raw: dict) -> Device:
    """Validate a parsed device JSON object and convert to SI."""
    if err := _schema_error(raw):
        where = "/".join(map(str, err[0])) or "(root)"
        raise ValidationError(f"device file invalid at {where}: {err[1]}")
    line = LineParams(z0=raw["line"]["z0_ohm"], v=raw["line"]["v_m_per_s"])
    z0_line = raw["line"].get("z0_line_ohm", 50.0)
    shunt = ShuntLC(c_shunt=raw["shunt"]["c_f"], l_shunt=raw["shunt"]["l_h"])
    for key, kind in (("geometry", "geometry"), ("channels", "channel"),
                      ("qubits", "qubit")):
        names = [item["name"] for item in raw[key]]
        dup = next((nm for i, nm in enumerate(names) if nm in names[:i]), None)
        if dup is not None:
            raise ValidationError(f"duplicate {kind} name {dup!r}")
        for i, item in enumerate(raw[key]):  # finite MHz can overflow in Hz
            # names go unquoted into CSV cells and headers, one per line
            if not item["name"].isprintable() or set(',"') & set(item["name"]):
                raise ValidationError(
                    f"device file invalid at {key}/{i}/name: {item['name']!r} "
                    "holds a comma, a double quote or an unprintable character")
            for k in (k for k in item if k.endswith("_mhz")):
                if not math.isfinite(item[k] * _MHZ):
                    raise ValidationError(f"device file invalid at {key}/{i}/"
                                          f"{k}: {item[k]:.6g} MHz overflows")
    geometry = {g["name"]: CoupledPairGeometry(
        **{k: g[f"{k}_um"] * _UM for k in _SEGMENT_FIELDS},
        coupler=_coupler_from_json(g["coupler"]), line=line)
        for g in raw["geometry"]}
    # the schema requires every channel field but the internal linewidths
    channels = tuple(
        ReadoutChannel(name=c["name"], **{k: c.get(f"{k}_mhz", 0.0) * _MHZ
                                          for k in _CHANNEL_FIELDS})
        for c in raw["channels"]
    )
    qubits = {q["name"]: QubitInfo(
        **{k: q[f"{k}_mhz"] * _MHZ for k in _QUBIT_FIELDS}, c_q=q.get("c_q_f"))
        for q in raw["qubits"]}
    return Device(line=line, z0_line=z0_line, shunt=shunt, geometry=geometry,
                  channels=channels, qubits=qubits)


def load_device(path) -> Device:
    # NaN, Infinity and overflowing literals parse to numbers that
    # device_from_dict rejects
    return device_from_dict(read_json(path, "device file"))


def device_to_dict(dev: Device) -> dict:
    """Inverse of device_from_dict (units restored to the file convention)."""
    geometry = []
    for name, g in dev.geometry.items():
        if g.is_mtl:
            cp = {"type": "mtl", "len_um": g.coupler.len_c / _UM,
                  "cm_over_c": g.coupler.cm_over_c,
                  "zm_over_z0": g.coupler.zm_over_z0}
            if g.coupler.d is not None:
                cp["d_um"] = g.coupler.d / _UM
        else:
            cp = {"type": "capacitive", "c_j_f": g.c_j}
        geometry.append({
            "name": name,
            **{f"{k}_um": getattr(g, k) / _UM for k in _SEGMENT_FIELDS},
            "coupler": cp,
        })
    channels = [{
        "name": c.name,
        **{f"{k}_mhz": getattr(c, k) / _MHZ for k in _CHANNEL_FIELDS},
    } for c in dev.channels]
    qubits = [{
        "name": name,
        # a QubitInfo built in code may leave alpha None
        **{f"{k}_mhz": (getattr(q, k) or 0.0) / _MHZ for k in _QUBIT_FIELDS},
        **({"c_q_f": q.c_q} if q.c_q is not None else {}),
    } for name, q in dev.qubits.items()]
    return {
        "line": {"z0_ohm": dev.line.z0, "v_m_per_s": dev.line.v,
                 "z0_line_ohm": dev.z0_line},
        "shunt": {"c_f": dev.shunt.c_shunt, "l_h": dev.shunt.l_shunt},
        "geometry": geometry,
        "channels": channels,
        "qubits": qubits,
    }


def paper_device_path():
    """Path to the bundled device encoding the published design tables."""
    return importlib.resources.files("notchlab.data").joinpath(
        "paper_device.json")


def load_paper_device() -> Device:
    with importlib.resources.as_file(paper_device_path()) as p:
        return load_device(p)
