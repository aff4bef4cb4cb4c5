"""Spans around calls into notchlab's public functions, kept in memory.

A Tracer replaces every public function of the traced modules with a
wrapper, at every module binding where the program looks it up: a function
imported by name into another module (``specfit.gamma_incident``,
``cli.load_device``, ``cli.write_csv``) is rebound there too, so one wrapper
sees all calls.  Each span records name, start, end, parent span and op id,
plus the number of frequency points or shots for the functions that take
them.  Spans are written out only when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array

import numpy as np

LAYERS = ("cli", "device", "io", "mtl", "equiv", "purcell", "mux", "specfit",
          "metrics")

# Third-party kernels bound into a notchlab module and traced as that layer.
EXTERNAL = {("mux", "expm")}

# Called once per written CSV cell: a span would cost more than the call.
UNTRACED = {"io.format_float"}

# Which positional argument holds the frequency grid or the shot record.
POINTS_ARG = {
    "mtl.z21_general": 1, "mtl.z21_homogeneous": 1, "mtl.z21_capacitive": 1,
    "mtl.z21_auto": 1, "mtl.z21_multi": 1,
    "mux.gamma_incident": 2, "specfit.model_phase": 4,
    "metrics.shot_analysis": 0,
}

Z21_FAMILY = [n for n in POINTS_ARG if n.startswith("mtl.z21_")]

_COLUMNS = ("name", "start", "end", "parent", "op", "points")


def _csv_probe(args, _out):
    with open(args[0], "rb") as fh:
        data = fh.read()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


def _json_probe(args, _out):
    return {"rows": 0, "bytes": os.path.getsize(args[0])}


def _fit_probe(_args, out):
    return {"converged": bool(out.converged)}


# Facts read from a call's arguments or result after its span has ended.
PROBES = {"io.write_csv": _csv_probe, "io.write_json": _json_probe,
          "specfit.fit_reflection": _fit_probe}


class Tracer:
    """In-memory span recorder; install() patches the notchlab modules."""

    def __init__(self):
        self.names: list[str] = []
        self.cols = {"name": array("i"), "start": array("d"),
                     "end": array("d"), "parent": array("q"),
                     "op": array("i"), "points": array("q")}
        self.probes: dict[str, list] = {}
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        arg = POINTS_ARG.get(name)
        probe = PROBES.get(name)
        stack = self._stack
        c = self.cols

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(c["name"])
            c["name"].append(nid)
            c["parent"].append(stack[-1] if stack else -1)
            c["op"].append(self.op)
            c["points"].append(int(np.size(args[arg]))
                               if arg is not None and len(args) > arg else 0)
            c["end"].append(0.0)
            stack.append(idx)
            c["start"].append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                c["end"][idx] = time.perf_counter()
                stack.pop()
            if probe is not None:
                self.probes.setdefault(name, []).append(probe(args, out))
            return out

        return traced

    def install(self) -> None:
        """Rebind every public function of the traced layers to a wrapper."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"notchlab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if home.startswith("notchlab."):
                    name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                elif (layer, attr) in EXTERNAL:
                    name = f"{layer}.{attr}"
                else:
                    continue
                if name in UNTRACED:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                setattr(mod, attr, wrappers[id(obj)])

    def spans(self) -> dict:
        out = {k: np.array(v) for k, v in self.cols.items()}
        out["names"] = list(self.names)
        out["probes"] = self.probes
        return out


def save_spans(path, spans: dict) -> None:
    np.savez_compressed(path, names=np.array(spans["names"], dtype=str),
                        probes=np.array(json.dumps(spans["probes"])),
                        **{k: spans[k] for k in _COLUMNS})


def load_spans(paths) -> dict:
    """Concatenate span files, renumbering names and parent indices."""
    names: list[str] = []
    cols: dict[str, list] = {k: [] for k in _COLUMNS}
    probes: dict[str, list] = {}
    offset = 0
    for path in paths:
        with np.load(path) as z:
            remap = []
            for n in z["names"]:
                if str(n) not in names:
                    names.append(str(n))
                remap.append(names.index(str(n)))
            part = {k: z[k] for k in _COLUMNS}
            part["name"] = np.array(remap, dtype=np.int64)[part["name"]] \
                if remap else part["name"]
            part["parent"] = np.where(part["parent"] >= 0,
                                      part["parent"] + offset, -1)
            for k in _COLUMNS:
                cols[k].append(part[k])
            for name, vals in json.loads(str(z["probes"])).items():
                probes.setdefault(name, []).extend(vals)
            offset += part["name"].size
    spans = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
    spans["names"] = names
    spans["probes"] = probes
    return spans


def layer_table(spans: dict, n_ops: int) -> dict:
    """Per-layer metrics per op as {name: (value, base)}.

    Times are inclusive span durations unless named self_ms: a span's self
    time is its duration minus the durations of its child spans (calls are
    nested and single-threaded, so children never overlap).
    """
    nid = spans["name"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"].astype(np.int64)
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=nid.size)
    name_of = np.array(spans["names"], dtype=object)[nid]
    parent_name = np.where(has_parent, name_of[np.where(has_parent, parent, 0)],
                           "<root>")
    # spans made outside any op (output checks) are left out
    in_op = spans["op"] >= 0
    dur, self_t, name_of, parent_name = (
        dur[in_op], self_t[in_op], name_of[in_op], parent_name[in_op])
    layer_of = np.array([s.split(".", 1)[0] for s in name_of], dtype=object)
    parent_layer = np.array([s.split(".", 1)[0] for s in parent_name],
                            dtype=object)
    points = spans["points"][in_op]
    ops = max(n_ops, 1)
    base_ops = f"per op, {n_ops} ops"

    def ms(mask):
        return float(dur[mask].sum()) * 1e3 / ops

    def count(mask):
        return np.count_nonzero(mask) / ops

    def per_call(mask):
        k = int(np.count_nonzero(mask))
        return float(points[mask].sum()) / k if k else 0.0, f"{k} calls"

    z21 = np.isin(name_of, Z21_FAMILY) & ~np.isin(parent_name, Z21_FAMILY)
    equiv_top = (layer_of == "equiv") & (parent_layer != "equiv")
    load = name_of == "device.load_device"
    writes = np.isin(name_of, ["io.write_csv", "io.write_json"])
    written = (spans["probes"].get("io.write_csv", [])
               + spans["probes"].get("io.write_json", []))
    fits = spans["probes"].get("specfit.fit_reflection", [])
    shots = name_of == "metrics.shot_analysis"
    shot_s = float(dur[shots].sum())
    n_shots = int(points[shots].sum())
    gam = name_of == "mux.gamma_incident"

    table = {
        "cli.run_self_ms": (float(self_t[layer_of == "cli"].sum()) * 1e3 / ops,
                            f"cli layer self time {base_ops}"),
        "device.load_calls": (count(load), base_ops),
        "device.load_ms": (ms(load), base_ops),
        "io.write_ms": (ms(writes), base_ops),
        "io.rows_written": (sum(p["rows"] for p in written) / ops, base_ops),
        "io.bytes_written": (sum(p["bytes"] for p in written) / ops,
                             f"computed from file sizes, {base_ops}"),
        "mtl.z21_calls": (count(z21), f"outermost z21_* calls {base_ops}"),
        "mtl.z21_points_per_call": per_call(z21),
        "mtl.z21_ms": (ms(z21), base_ops),
        "equiv.calls": (count(equiv_top),
                        f"calls entering the equiv layer {base_ops}"),
        "equiv.ms": (ms(equiv_top), base_ops),
        "purcell.t1_calls": (count(name_of == "purcell.t1_purcell"), base_ops),
        "purcell.t1_ms": (ms(name_of == "purcell.t1_purcell"), base_ops),
        "mux.gamma_incident_calls": (count(gam), base_ops),
        "mux.gamma_incident_points_per_call": per_call(gam),
        "mux.gamma_incident_ms": (ms(gam), base_ops),
        "mux.noise_bound_ms": (ms(name_of == "mux.noise_photon_bound"),
                               base_ops),
        "mux.propagate_ms": (ms(name_of == "mux.propagate"), base_ops),
        "mux.expm_calls": (count(name_of == "mux.expm"), base_ops),
        "mux.normal_modes_ms": (ms(name_of == "mux.normal_modes"), base_ops),
        "specfit.fit_ms": (ms(name_of == "specfit.fit_reflection"), base_ops),
        "specfit.model_evals": (
            np.count_nonzero(name_of == "specfit.model_phase") / len(fits)
            if fits else 0.0, f"per fit, {len(fits)} fits"),
        "specfit.converged_ratio": (
            sum(f["converged"] for f in fits) / len(fits) if fits else 0.0,
            f"{len(fits)} fits"),
        "metrics.shot_analysis_ms": (ms(shots), base_ops),
        "metrics.shots_per_s": (n_shots / shot_s if shot_s else 0.0,
                                f"{n_shots} shots in {shot_s:.4f} s"),
    }
    for layer in LAYERS[1:]:
        table[f"{layer}.self_ms"] = (
            float(self_t[layer_of == layer].sum()) * 1e3 / ops, base_ops)
    return table
