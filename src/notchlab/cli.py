"""Command-line front end.

Every command is a pure function of its input files and flags: no clock, no
network, deterministic output bytes.  Exit codes: 0 success, 2 validation
error, 3 numerical error.  Each sweep command evaluates its whole
frequency grid in one vectorized call per quantity.  Commands whose --out
is optional print to stdout exactly the bytes they would write to the file;
every flag a subcommand accepts is read by it.  Warnings go to stderr, each
distinct message once, as "warning: <message>".  Each command imports the
modules it runs, so a geometry-only command loads no network model.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import warnings
from typing import TYPE_CHECKING

import numpy as np

from . import mtl
from .device import _CHANNEL, _file_object, device_to_dict, load_device
from .errors import NumericalError, ValidationError
from .io import read_json, write_csv, write_json

if TYPE_CHECKING:
    from . import mux, specfit

_MHZ = 1e6


def _grid(args) -> np.ndarray:
    if not args.fmax > args.fmin > 0:
        raise ValidationError("need 0 < fmin < fmax")
    if not 2 <= args.points <= mtl.MAX_SAMPLES:
        raise ValidationError(f"points must lie in [2, {mtl.MAX_SAMPLES}]")
    return np.linspace(args.fmin, args.fmax, args.points)


# ------------------------------------------------------------------ commands

def _cmd_notch(args) -> int:
    f_n = mtl.notch_frequency(args.dev.pair(args.pair))
    print(f"{f_n / 1e9:.3f} GHz")
    return 0


def _cmd_z21(args) -> int:
    geom = args.dev.pair(args.pair)
    grid = _grid(args)
    z21 = mtl.z21_auto(geom, grid, pole_guard_hz=args.tol)
    write_csv(args.out, ["freq_hz", "im_z21_ohm"],
              np.column_stack([grid, z21.imag]))
    return 0


def _cmd_design(args) -> int:
    from . import equiv
    dev = args.dev
    names = [args.pair] if args.pair else sorted(dev.geometry)
    rows = []
    for name in names:
        g = dev.pair(name)
        if g.is_mtl:
            f_n = mtl.notch_frequency(g)
            j = equiv.j_mtl(g)
        else:
            f_n = float("nan")
            j = equiv.j_capacitive(g, g.c_j)
        rows.append((name, g.f_r, g.f_p, f_n, j))
    write_csv(args.out, ["pair", "f_r_hz", "f_p_hz", "f_notch_hz", "j_hz"],
              rows)
    return 0


def _cmd_modes(args) -> int:
    from . import mux
    modes = mux.normal_modes(args.dev.mux_network(), args.state)
    payload = [{"channel": m.channel, "character": m.character,
                "f_hz": m.f_hz, "kappa_hz": m.kappa_hz} for m in modes]
    write_json(args.out, payload)
    return 0


def _cmd_reflect(args) -> int:
    from . import mux
    net = args.dev.mux_network()
    grid = _grid(args)
    gam = mux.gamma_incident(net, args.state, grid)
    write_csv(args.out, ["freq_hz", "re_gamma", "im_gamma", "phase_rad"],
              np.column_stack([grid, gam.real, gam.imag, np.angle(gam)]))
    return 0


def _pulse_number(obj: dict, key: str, scale: float | None = None):
    """obj[key] times scale, else complex(obj[key]); JSON true is no 1."""
    if isinstance(obj[key], bool):
        raise ValidationError(
            f"pulse key {key!r} must be a number, not {json.dumps(obj[key])}")
    return complex(obj[key]) if scale is None else obj[key] * scale


def _parse_pulse(spec: str) -> mux.DrivePulse:
    from . import mux
    if os.path.exists(spec):
        raw = read_json(spec, "pulse file")
    else:
        try:
            raw = json.loads(spec)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValidationError(f"--pulse is neither a file nor JSON: {exc}")
    try:
        f_d = _pulse_number(raw, "carrier_mhz", _MHZ)
        if "two_step" in raw:
            # defaults in ns: the goldens pin 6.0 * 1e-9 s edges, not 6e-9 s
            ts = {"overshoot": 1.375, "flat_top_ns": 14.0, "edge_ns": 6.0,
                  "tail_ns": 0.0, **raw["two_step"]}
            return mux.DrivePulse.two_step(
                f_d, _pulse_number(ts, "plateau_amplitude"),
                _pulse_number(ts, "plateau_duration_ns", 1e-9),
                overshoot=_pulse_number(ts, "overshoot", 1.0),
                flat_top=_pulse_number(ts, "flat_top_ns", 1e-9),
                edge=_pulse_number(ts, "edge_ns", 1e-9),
                tail=_pulse_number(ts, "tail_ns", 1e-9))
        if "rectangular" in raw:
            r = raw["rectangular"]
            return mux.DrivePulse.rectangular(
                f_d, _pulse_number(r, "amplitude"),
                _pulse_number(r, "duration_ns", 1e-9))
        segs = tuple(
            mux.PulseSegment(_pulse_number(s, "duration_ns", 1e-9),
                             _pulse_number(s, "amplitude"),
                             s.get("edge", "flat"))
            for s in raw["segments"])
        return mux.DrivePulse(f_d, segs)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # complex("x")
        raise ValidationError(f"malformed pulse description: {exc}")


def _trace_table(net: mux.MuxNetwork, tr: mux.FieldTraces):
    """Header and columns of the simulate CSV, one channel's four at a time."""
    header, cols = ["time_s"], [tr.t]
    for ch, p, r in zip(net.channels, tr.p, tr.r):
        header += [f"re_p_{ch.name}", f"im_p_{ch.name}",
                   f"re_r_{ch.name}", f"im_r_{ch.name}"]
        cols += [p.real, p.imag, r.real, r.imag]
    return (header + ["re_sout", "im_sout"],
            np.column_stack(cols + [tr.s_out.real, tr.s_out.imag]))


def _cmd_simulate(args) -> int:
    from . import mux
    net = args.dev.mux_network()
    pulse = _parse_pulse(args.pulse)
    tr = mux.propagate(net, args.state, pulse, args.dt_ns * 1e-9)
    write_csv(args.out, *_trace_table(net, tr))
    return 0


def _cmd_separation(args) -> int:
    from . import mux
    res = mux.separation(args.dev.mux_network(), args.pair,
                         _parse_pulse(args.pulse), args.dt_ns * 1e-9)
    if args.out:
        write_csv(args.out, ["time_s", "separation"],
                  np.column_stack([res.t, res.s]))
    print(f"S_ss = {res.s_ss:.9g}")
    print(f"Gamma_m = {res.gamma_m:.9g} 1/s")
    return 0


def _cmd_purcell(args) -> int:
    from . import purcell
    dev = args.dev
    geom = dev.pair(args.pair)
    if not geom.is_mtl:
        raise ValidationError("purcell sweep expects an MTL pair")
    qi = dev.qubit(args.pair)
    ch = next((c for c in dev.channels if c.name == args.pair), None)
    if ch is None:
        raise ValidationError(f"no channel named {args.pair!r}")
    pair, twin = purcell.mtl_pair_and_twin(geom)
    f_bar = 0.5 * (geom.f_r + geom.f_p)
    c_q = qi.c_q or args.c_q_ff * 1e-15
    c_qr = purcell.c_qr_from_g(qi.g, qi.f_q, geom.f_r, c_q, pair.readout.c)
    c_ext = purcell.c_ext_from_kappa(ch.kappa_p, geom.f_p, pair.filter.c,
                                     dev.z0_line)
    shunt = None if args.no_shunt else dev.shunt
    f_n = mtl.notch_frequency(geom)
    grid = _grid(args)
    coup = purcell.QubitCoupling(c_q=c_q, c_qr=c_qr, c_ext=c_ext,
                                 z0_line=dev.z0_line, f_q=qi.f_q)
    t_mtl = purcell.t1_purcell(pair, coup, f_q=grid, shunt=shunt)
    t_cap = purcell.t1_purcell(twin, coup, f_q=grid, shunt=shunt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        xi = purcell.enhancement_factor(grid, f_n, f_bar)
    write_csv(args.out, ["freq_hz", "t1_mtl_s", "t1_cap_s", "xi"],
              np.column_stack([grid, t_mtl.t1_s, t_cap.t1_s, xi]))
    return 0


def _read_columns(path, what: str, columns: tuple[str, ...]) -> list:
    """The columns of a CSV file with one header line, as arrays.

    A column named "label" is text (cut at 16 characters, longer than any
    valid label); every other cell must be a finite number.  An unreadable
    or empty file, a wrong column count and a non-numeric or non-finite
    cell raise ValidationError (exit 2, before any output is written),
    naming the file and the expected columns.
    """
    def invalid(detail: str) -> ValidationError:
        return ValidationError(
            f"{what} {path}: {detail}; expected a header line, then rows of "
            f"{','.join(columns)} with finite numbers")

    dtype = [(name, "U16" if name == "label" else float) for name in columns]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty input; checked below
            table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype,
                               ndmin=1)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}")
    except ValueError as exc:  # a cell that is no number, a column missing
        # numpy's own advice after the ';' (usecols) is not for CLI users
        raise invalid(str(exc).split(";")[0].rstrip("."))
    if table.size == 0:
        raise invalid("no data rows")
    for name in columns:
        if name != "label":
            bad = ~np.isfinite(table[name])
            if bad.any():
                row = int(np.argmax(bad))
                raise invalid(f"data row {row + 1} has {name} = "
                              f"{float(table[name][row])}")
    return [np.ascontiguousarray(table[name]) for name in columns]


def _read_spectrum(path) -> specfit.PhaseSpectrum:
    from . import specfit
    freq, phase = _read_columns(path, "spectrum", ("freq_hz", "phase_rad"))
    return specfit.PhaseSpectrum(freq_hz=freq, phase_rad=phase)


def _cmd_fit(args) -> int:
    from . import specfit
    spec_g = _read_spectrum(args.spec_g)
    spec_e = _read_spectrum(args.spec_e) if args.spec_e else None
    cfg = specfit.FitConfig(initial=args.dev.mux_network(), theta0=args.theta0,
                            tau=args.tau_ns * 1e-9, tol=args.tol)
    result = specfit.fit_reflection(spec_g, spec_e, cfg)
    stderr = {key: val.tolist() if isinstance(val, np.ndarray) else val
              for key, val in result.stderr.items()}
    fitted = [row for row in _CHANNEL if row.required]  # not the gammas
    payload = {
        "channels": [_file_object(fitted, c) for c in result.network.channels],
        "theta0_rad": result.theta0,
        "tau_s": result.tau,
        "residual": result.residual_norm,
        "converged": result.converged,
        "chi_reported": result.chi_reported,
        "stderr": stderr,
    }
    write_json(args.out, payload)
    return 0


def _cmd_budget(args) -> int:
    from . import metrics
    if args.shots and args.snr is not None:
        raise ValidationError("budget takes --snr or --shots, not both")
    snr = args.snr
    counts = None
    if args.shots:
        labels, i, q = _read_columns(args.shots, "shots",
                                     ("label", "i", "q"))
        snr = metrics.shot_analysis(np.column_stack([i, q]), labels).stats.snr
    if args.counts:
        c = read_json(args.counts, "counts file")
        names = [f.name for f in dataclasses.fields(metrics.ReadoutCounts)]
        if not (isinstance(c, dict) and all(k in c for k in names)):
            raise ValidationError(f"counts file {args.counts} needs an object "
                                  f"with the tables {', '.join(names)}")
        counts = metrics.ReadoutCounts(*(c[k] for k in names))
    if snr is None:
        raise ValidationError("budget needs --snr or --shots")
    budget = metrics.error_budget(snr, args.tau_meas_ns * 1e-9,
                                  args.tau_buffer_ns * 1e-9,
                                  args.t1_us * 1e-6, counts)
    # snr, eps_sep, eps_cl, eps_cl_q, f, f_q: every field, in field order
    write_json(args.out, dataclasses.asdict(budget))
    return 0


def _cmd_calibrate(args) -> int:
    from . import metrics
    payload = {}
    if args.stark:
        power, f_ac = _read_columns(args.stark, "Stark file",
                                    ("power_w", "f_q_ac_hz"))
        f_q, slope, err = metrics.stark_linear_fit(zip(power, f_ac))
        payload["f_q_hz"] = f_q
        payload["slope_hz_per_w"] = slope
        payload["stderr_f_q_hz"] = err
    if args.delta_ac_hz is not None:
        if args.chi_hz is None:
            raise ValidationError("--delta-ac-hz needs --chi-hz")
        payload["n_photons"] = metrics.photons_from_stark(args.delta_ac_hz,
                                                          args.chi_hz)
    if args.p_w is not None:
        if args.rabi_hz is None or args.f_d_hz is None:
            raise ValidationError("--p-w needs --rabi-hz and --f-d-hz")
        omega = metrics.rabi_to_omega(args.rabi_hz, args.transition)
        payload["t1_s"] = metrics.t1_from_drive(args.p_w, omega, args.f_d_hz)
    if not payload:
        raise ValidationError(
            "calibrate needs --stark, --delta-ac-hz or --p-w inputs")
    write_json(args.out, payload)
    return 0


def _cmd_device(args) -> int:
    # canonical re-emission; also serves as validation
    write_json(args.out, device_to_dict(args.dev))
    return 0


@functools.cache  # built once per process; never mutated after
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="notchlab",
        description="Notch-filtered readout circuits: design, simulation, "
                    "fitting and error budgets.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, pair=False, state=False, sweep=False, out="optional"):
        p.add_argument("--device", required=True, help="device JSON file")
        if pair:
            p.add_argument("--pair", required=True, help="geometry/channel name")
        if state:
            p.add_argument("--state", default=None,
                           help="joint qubit state, e.g. gggg")
        if sweep:
            p.add_argument("--fmin", type=float, required=True)
            p.add_argument("--fmax", type=float, required=True)
            p.add_argument("--points", type=int, default=1001)
        if out:
            p.add_argument("--out", required=out == "required", default=None)

    p = sub.add_parser("notch", help="notch frequency of a pair")
    common(p, pair=True, out=None)
    p.set_defaults(fn=_cmd_notch)

    p = sub.add_parser("z21", help="transfer-impedance sweep")
    common(p, pair=True, sweep=True, out="required")
    p.add_argument("--tol", type=float, default=mtl.DEFAULT_POLE_GUARD_HZ,
                   help="pole guard band in Hz, > 0 (default 1e3)")
    p.set_defaults(fn=_cmd_z21)

    p = sub.add_parser("design", help="per-pair design quantities")
    common(p)
    p.add_argument("--pair", default=None)
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("modes", help="normal modes of the network")
    common(p, state=True)
    p.set_defaults(fn=_cmd_modes)

    p = sub.add_parser("reflect", help="reflection-coefficient sweep")
    common(p, state=True, sweep=True, out="required")
    p.set_defaults(fn=_cmd_reflect)

    p = sub.add_parser("simulate", help="time-domain field traces")
    common(p, state=True, out="required")
    p.add_argument("--pulse", required=True, help="pulse JSON (inline or file)")
    p.add_argument("--dt-ns", type=float, default=0.5)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("separation", help="output-field separation trace")
    common(p, pair=True)
    p.add_argument("--pulse", required=True)
    p.add_argument("--dt-ns", type=float, default=0.5)
    p.set_defaults(fn=_cmd_separation)

    p = sub.add_parser("purcell", help="Purcell-limited T1 sweep")
    common(p, pair=True, sweep=True, out="required")
    p.add_argument("--c-q-ff", type=float, default=90.0,
                   help="qubit capacitance in fF when not in the device file")
    p.add_argument("--no-shunt", action="store_true")
    p.set_defaults(fn=_cmd_purcell)

    p = sub.add_parser("fit", help="fit reflection phase spectra")
    common(p)
    p.add_argument("--spec-g", required=True, help="all-g spectrum CSV")
    p.add_argument("--spec-e", default=None, help="all-e spectrum CSV")
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--tau-ns", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="LM ftol/xtol/gtol, finite and >= 2.2e-16 "
                   "(default 1e-12)")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("budget", help="readout error budget")
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--shots", default=None, help="CSV label,i,q")
    p.add_argument("--counts", default=None, help="counts JSON")
    p.add_argument("--tau-meas-ns", type=float, required=True)
    p.add_argument("--tau-buffer-ns", type=float, default=116.0)
    p.add_argument("--t1-us", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_budget)

    p = sub.add_parser("calibrate", help="ac-Stark power calibration chain")
    p.add_argument("--stark", default=None, help="CSV power_w,f_q_ac_hz")
    p.add_argument("--delta-ac-hz", type=float, default=None)
    p.add_argument("--chi-hz", type=float, default=None)
    p.add_argument("--p-w", type=float, default=None)
    p.add_argument("--rabi-hz", type=float, default=None)
    p.add_argument("--transition", choices=("ge", "ef"), default="ge")
    p.add_argument("--f-d-hz", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("device", help="validate and canonically re-emit a device")
    common(p)
    p.set_defaults(fn=_cmd_device)

    return ap


def run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 2 validation, 3 numerical)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            if hasattr(args, "device"):
                # loaded once here; commands read it as args.dev
                args.dev = load_device(args.device)
                if getattr(args, "state", "unset") is None:
                    args.state = "g" * len(args.dev.channels)
            return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError, ZeroDivisionError,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    finally:
        # each distinct message once, without the source line that raised it
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
