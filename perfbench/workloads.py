"""The four benchmark workloads, run against the bundled paper device.

Each workload builds all of its inputs from the seed when it is created,
then hands out one cycle of ops; a run always ends on a whole cycle, so
every run has the same mix.  An op is a callable taking the op index; it
returns a check callable that gives None when the output is right and a
message when it is not.  Checks run outside the op's latency.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import notchlab.cli as cli
import notchlab.device as device
import notchlab.io as nio
import notchlab.metrics as metrics
import notchlab.mtl as mtl
import notchlab.mux as mux
import notchlab.specfit as specfit

HERE = Path(__file__).resolve().parent
DEVICE = Path(device.__file__).resolve().parent / "data" / "paper_device.json"
GOLDEN_PATH = HERE / "golden.json"

# Published tables of the paper (the values the acceptance tests pin).
# channel: (f_r_g, f_p_g, chi_r, chi_p) of the normal modes, MHz
TABLE_MODES = {
    "Q1": (10221.0, 10284.0, -5.9, -3.5),
    "Q2": (10360.0, 10438.0, -7.8, -2.3),
    "Q3": (10520.0, 10582.0, -8.4, -2.3),
    "Q4": (10652.0, 10701.0, -7.2, -1.1),
}
# channel: (T1 us, T2echo us, SNR, drive MHz)
QUBIT_TABLE = {
    "Q1": (45.0, 61.0, 6.3, 10224.0),
    "Q2": (26.0, 55.0, 8.4, 10357.0),
    "Q3": (38.0, 152.0, 6.0, 10515.0),
    "Q4": (34.0, 77.0, 6.7, 10646.0),
}
NOISE_PHOTON_BOUNDS = {"Q1": 3.1e-4, "Q2": 3.2e-4, "Q3": 1.0e-4, "Q4": 2.4e-4}
CHANNELS = tuple(QUBIT_TABLE)

# Criterion 9 of the acceptance suite: true phase offset and delay, the
# starting values handed to the fitter, and the phase noise.
THETA0, TAU, THETA0_GUESS, TAU_GUESS, PHASE_NOISE = 0.7, 0.31e-9, 0.5, 0.25e-9, 0.02
CHI_TOL_HZ = 0.2e6

TAU_MEAS, TAU_BUFFER = 56e-9, 116e-9
N_SHOTS = 40_000


def _pulse(drive_mhz: float, plateau_ns: float) -> str:
    return json.dumps({"carrier_mhz": drive_mhz, "two_step": {
        "plateau_amplitude": 1e6, "plateau_duration_ns": plateau_ns}})


# Fixed menus of CLI invocations.  The seed picks among them; every entry's
# output bytes are pinned in golden.json (see make_golden.py).
_Z21_Q1 = (("8e9", "11e9"), ("7.5e9", "10.5e9"), ("8.5e9", "11.5e9"))
_Z21_CAP = (("8e9", "11e9"), ("9e9", "12e9"), ("7e9", "10e9"))
_REFLECT = (("10.0e9", "10.9e9"), ("9.9e9", "10.8e9"), ("10.1e9", "11.0e9"))
_PURCELL = (("7.8e9", "8.8e9"), ("7.5e9", "8.5e9"), ("8.0e9", "9.0e9"))


def _sweep(cmd, flags, ranges, points):
    return [[cmd, *flags, "--fmin", lo, "--fmax", hi, "--points", str(points)]
            for lo, hi in ranges]


MENUS = {
    "cli_session": {
        "design": [["design"]],
        "device": [["device"]],
        "modes": [["modes", "--state", s] for s in ("gggg", "gegg", "eeee")],
        "z21": _sweep("z21", ["--pair", "Q1"], _Z21_Q1, 2001),
        "reflect": [_sweep("reflect", ["--state", s], [r], 2001)[0]
                    for s, r in zip(("gggg", "gegg", "eeee"), _REFLECT)],
        "purcell": _sweep("purcell", ["--pair", "Q1"], _PURCELL, 101),
        "simulate": [["simulate", "--state", "gegg", "--pulse",
                      _pulse(10357.0, p)] for p in (100, 150, 200)],
        "separation": [["separation", "--pair", q, "--pulse",
                        _pulse(QUBIT_TABLE[q][3], p)]
                       for q, p in (("Q2", 100), ("Q1", 150), ("Q3", 200))],
    },
    "sweep_grid": {
        "z21_q1": _sweep("z21", ["--pair", "Q1"], _Z21_Q1, 2001),
        "z21_cap": _sweep("z21", ["--pair", "Cap"], _Z21_CAP, 2001),
        "purcell": _sweep("purcell", ["--pair", "Q1"], _PURCELL, 2001),
        "reflect_g": _sweep("reflect", ["--state", "gggg"], _REFLECT, 2001),
        "reflect_e": _sweep("reflect", ["--state", "eeee"], _REFLECT, 2001),
        "reflect_default": _sweep("reflect", [], _REFLECT, 101),
    },
}


def cli_argv(entry, out) -> list[str]:
    """Full argument list of a menu entry, writing to out."""
    cmd, *rest = entry
    return [cmd, "--device", str(DEVICE), *rest, "--out", str(out)]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def agree_9_digits(written, ref) -> bool:
    """True when written values equal ref to the 9 significant digits.

    Allows one unit in the ninth digit, plus 1e-12 of the column's peak for
    values at a zero crossing, where the ninth digit is below round-off.
    """
    written = np.asarray(written, dtype=float)
    ref = np.asarray(ref, dtype=float)
    with np.errstate(divide="ignore"):
        unit = 10.0 ** (np.floor(np.log10(np.abs(ref))) - 8)
    tol = unit + 1e-12 * np.max(np.abs(ref))
    return written.shape == ref.shape and bool(np.all(np.abs(written - ref)
                                                       <= tol))


def _perturbed(net, rng):
    """Initial guess of acceptance criterion 9: each channel nudged."""
    chans = tuple(dataclasses.replace(
        c, f_r_g=c.f_r_g + rng.uniform(-2e6, 2e6),
        f_p=c.f_p + rng.uniform(-2e6, 2e6), j=c.j + rng.uniform(-1e6, 1e6),
        kappa_p=c.kappa_p + rng.uniform(-2e6, 2e6),
        chi=c.chi + rng.uniform(-0.3e6, 0.3e6)) for c in net.channels)
    return dataclasses.replace(net, channels=chans)


def _shots(rng, snr: float):
    """Labelled IQ record: unit-variance clouds SNR apart, random labels."""
    labels = rng.integers(0, 2, N_SHOTS)
    axis = np.exp(1j * rng.uniform(0, 2 * math.pi))
    centre = np.where(labels == 1, snr * axis, 0.0)
    iq = centre + rng.normal(size=N_SHOTS) + 1j * rng.normal(size=N_SHOTS)
    return np.column_stack([iq.real, iq.imag]), labels


def _shot_check(ana, snr_est: float) -> str | None:
    """Accuracy against 1 - separation_error(SNR), within binomial error."""
    n = int(np.count_nonzero(~ana.train_mask))
    p = 1.0 - metrics.separation_error(snr_est)
    tol = 6.0 * math.sqrt(p * (1.0 - p) / n) + 5.0 / n
    if abs(ana.accuracy - p) > tol:
        return (f"shot accuracy {ana.accuracy:.6f} vs 1 - eps_sep {p:.6f} "
                f"(tolerance {tol:.2g})")
    return None


def _fit_check(channels_chi_hz, true_net) -> str | None:
    for chi, true in zip(channels_chi_hz, true_net.channels):
        if not abs(chi - true.chi) <= CHI_TOL_HZ:
            return f"{true.name}: |dchi| = {abs(chi - true.chi):.3g} Hz"
    return None


class Workload:
    """Inputs and ops of one workload."""

    name = ""
    rss_of = "self"          # "self" or "children"
    setup_code = ""          # fresh-interpreter import and device load

    def __init__(self, seed: int, work: Path, env: dict):
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.env = env
        self.dev = device.load_paper_device()
        self.net = self.dev.mux_network()
        self.golden = json.loads(GOLDEN_PATH.read_text())

    def ops(self) -> list:
        raise NotImplementedError

    def final_checks(self) -> dict[int, str]:
        """Checks made after the timed phase: {failed op id: message}."""
        return {}


def _golden_check(golden: dict, key: str, path) -> str | None:
    digest = sha256(path)
    if golden.get(key) != digest:
        return f"{key}: sha256 {digest[:12]} differs from the pinned digest"
    return None


class CliSession(Workload):
    """Every subcommand once per cycle, each as its own subprocess."""

    name = "cli_session"
    rss_of = "children"
    setup_code = ("import notchlab.cli\n"
                  "from notchlab.device import load_paper_device\n"
                  "load_paper_device()\n")
    span_dir: Path | None = None    # set to trace: children write spans here

    def __init__(self, seed, work, env):
        super().__init__(seed, work, env)
        rng = self.rng
        self.picks = {cmd: (int(rng.integers(len(menu))), menu)
                      for cmd, menu in MENUS[self.name].items()}
        # fit: seeded two-state spectra on 801 points and a perturbed guess
        grid = np.linspace(10.0e9, 10.9e9, 801)
        for state in "ge":
            spec = specfit.synth_spectrum(self.net, state, THETA0, TAU, grid,
                                          PHASE_NOISE,
                                          seed=int(rng.integers(2**31)))
            np.savetxt(work / f"spec_{state}.csv",
                       np.column_stack([spec.freq_hz, spec.phase_rad]),
                       delimiter=",", header="freq_hz,phase_rad", comments="",
                       fmt="%.17g")
        guess = dataclasses.replace(
            self.dev, channels=_perturbed(self.net, rng).channels)
        nio.write_json(work / "guess.json", device.device_to_dict(guess))
        # budget: a seeded shot record for one channel
        self.shot_channel = CHANNELS[int(rng.integers(len(CHANNELS)))]
        xy, labels = _shots(rng, QUBIT_TABLE[self.shot_channel][2])
        with open(work / "shots.csv", "w", encoding="utf-8") as fh:
            fh.write("label,i,q\n")
            for lab, (i, q) in zip(labels, xy):
                fh.write(f"{'ge'[lab]},{float(i)!r},{float(q)!r}\n")
        # calibrate: a noisy linear Stark series
        self.f_q = float(rng.uniform(7.9e9, 9.1e9))
        power = np.linspace(0.0, 1e-13, 12)
        f_ac = self.f_q - 2e20 * power + rng.normal(0.0, 50e3, power.size)
        np.savetxt(work / "stark.csv", np.column_stack([power, f_ac]),
                   delimiter=",", header="power_w,f_q_ac_hz", comments="",
                   fmt="%.17g")

    def _spawn(self, argv, i):
        if self.span_dir is None:
            cmd = [sys.executable, "-m", "notchlab.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"),
                   str(self.span_dir / f"op{i}.npz"), str(i), *argv]
        return subprocess.run(cmd, cwd=self.work, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def ops(self):
        w = self.work
        dev = str(DEVICE)

        def command(argv, check):
            def op(i):
                proc = self._spawn(argv, i)

                def checked():
                    if proc.returncode != 0:
                        return (f"{argv[0]}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                    return check(proc)
                return checked
            op.label = argv[0]
            return op

        def golden(cmd):
            k, menu = self.picks[cmd]
            out = w / f"{cmd}.out"
            key = f"{self.name}/{cmd}/{k}"
            return command(cli_argv(menu[k], out),
                       lambda proc: _golden_check(self.golden, key, out))

        def notch_check(proc):
            return None if proc.stdout == "8.278 GHz\n" else \
                f"notch printed {proc.stdout!r}"

        def fit_check(proc):
            payload = json.loads((w / "fit.json").read_text())
            if not payload["converged"]:
                return "fit did not converge"
            return _fit_check([c["chi_mhz"] * 1e6 for c in payload["channels"]],
                              self.net)

        t1_us, _, snr, _ = QUBIT_TABLE[self.shot_channel]

        def budget_check(proc):
            payload = json.loads((w / "budget.json").read_text())
            if abs(payload["snr"] / snr - 1.0) > 0.03:
                return f"budget SNR {payload['snr']:.4g}, generated {snr}"
            # the SNR is written to 9 digits, so eps_sep agrees to ~1e-7
            eps = metrics.separation_error(payload["snr"])
            if not abs(payload["eps_sep"] - eps) <= 1e-6 * eps:
                return "budget eps_sep disagrees with separation_error(SNR)"
            return None

        def calibrate_check(proc):
            payload = json.loads((w / "calibrate.json").read_text())
            err = abs(payload["f_q_hz"] - self.f_q)
            if not err <= 6.0 * payload["stderr_f_q_hz"]:
                return f"Stark f_q off by {err:.3g} Hz"
            return None

        return [
            command(["notch", "--device", dev, "--pair", "Q1"], notch_check),
            golden("design"), golden("device"), golden("modes"),
            golden("z21"), golden("reflect"), golden("purcell"),
            golden("simulate"), golden("separation"),
            command(["fit", "--device", str(w / "guess.json"),
                     "--spec-g", str(w / "spec_g.csv"),
                     "--spec-e", str(w / "spec_e.csv"),
                     "--theta0", f"{THETA0_GUESS:g}",
                     "--tau-ns", f"{TAU_GUESS * 1e9:g}",
                     "--out", str(w / "fit.json")], fit_check),
            command(["budget", "--shots", str(w / "shots.csv"),
                     "--tau-meas-ns", f"{TAU_MEAS * 1e9:g}",
                     "--t1-us", f"{t1_us:g}",
                     "--out", str(w / "budget.json")], budget_check),
            command(["calibrate", "--stark", str(w / "stark.csv"),
                     "--out", str(w / "calibrate.json")], calibrate_check),
        ]


class SweepGrid(Workload):
    """One op is a round of sweeps through cli.run in this process."""

    name = "sweep_grid"
    setup_code = CliSession.setup_code
    ROUNDS = 256

    def __init__(self, seed, work, env):
        super().__init__(seed, work, env)
        menu = MENUS[self.name]
        self.rounds = [{cmd: int(self.rng.integers(len(v)))
                        for cmd, v in menu.items()} for _ in range(self.ROUNDS)]
        self.kept: dict[str, bytes] = {}      # first output of each entry
        self.users: dict[str, list[int]] = {}  # ops that wrote that output

    def ops(self):
        menu = MENUS[self.name]

        def op(i):
            picks = self.rounds[i % self.ROUNDS]
            codes = {cmd: cli.run(cli_argv(menu[cmd][k],
                                           self.work / f"{cmd}.csv"))
                     for cmd, k in picks.items()}

            def check():
                for cmd, k in picks.items():
                    if codes[cmd] != 0:
                        return f"{cmd}: exit {codes[cmd]}"
                    path = self.work / f"{cmd}.csv"
                    key = f"{self.name}/{cmd}/{k}"
                    msg = _golden_check(self.golden, key, path)
                    if msg:
                        return msg
                    if key not in self.kept:
                        self.kept[key] = path.read_bytes()
                    self.users.setdefault(key, []).append(i)
                return None
            return check
        op.label = "round"
        return [op]

    def final_checks(self):
        """Each distinct output against one vectorized library call."""
        bad = {}
        menu = MENUS[self.name]
        for key, data in sorted(self.kept.items()):
            _, cmd, k = key.split("/")
            entry = menu[cmd][int(k)]
            flags = dict(zip(entry[1::2], entry[2::2]))
            grid = np.linspace(float(flags["--fmin"]), float(flags["--fmax"]),
                               int(flags["--points"]))
            table = np.loadtxt(data.decode().splitlines(), delimiter=",",
                               skiprows=1)
            if cmd.startswith("z21"):
                geom = self.dev.pair(flags["--pair"])
                fn = mtl.z21_general if geom.is_mtl else mtl.z21_capacitive
                ref = [grid, fn(geom, grid).imag]
            elif cmd.startswith("reflect"):
                gam = mux.gamma_incident(self.net, flags.get("--state", "gggg"),
                                         grid)
                ref = [grid, gam.real, gam.imag, np.angle(gam)]
            else:
                continue
            if table.shape != (grid.size, len(ref)) or not all(
                    agree_9_digits(table[:, j], col)
                    for j, col in enumerate(ref)):
                bad.update((i, f"{key}: CSV disagrees with the vectorized call")
                           for i in self.users[key])
        return bad


class ReadoutChar(Workload):
    """One op characterizes one channel; channels rotate Q1..Q4."""

    name = "readout_char"
    setup_code = ("import notchlab.mux\n"
                  "from notchlab.device import load_paper_device\n"
                  "load_paper_device().mux_network()\n")
    PLATEAUS = 256

    def __init__(self, seed, work, env):
        super().__init__(seed, work, env)
        self.plateaus_ns = self.rng.integers(100, 301, self.PLATEAUS)

    def ops(self):
        net = self.net

        def make(ch):
            idx = net.index(ch)
            t1_us, t2_us, _, drive_mhz = QUBIT_TABLE[ch]
            flipped = "".join("e" if j == idx else "g" for j in range(net.n))

            def op(i):
                plateau = float(self.plateaus_ns[(i // len(CHANNELS))
                                                 % self.PLATEAUS])
                modes = mux.normal_modes(net, "g" * net.n)
                mux.normal_modes(net, flipped)
                chi_r, chi_p = mux.mode_dispersive_shifts(net, ch)
                pulse = mux.DrivePulse.two_step(drive_mhz * 1e6, 1e6,
                                                plateau * 1e-9)
                sep = mux.separation(net, ch, pulse, 0.25e-9)
                n_bound = mux.noise_photon_bound(net, ch, 1.0 / (t2_us * 1e-6))
                finite = bool(np.all(np.isfinite(sep.s))
                              and math.isfinite(sep.s_ss))

                def check():
                    f_r, f_p, chi_r_t, chi_p_t = TABLE_MODES[ch]
                    got = {m.character: m.f_hz for m in modes if m.channel == ch}
                    if not (abs(got["readout"] - f_r * 1e6) <= 5e6
                            and abs(got["filter"] - f_p * 1e6) <= 5e6):
                        return f"{ch}: mode frequencies {got} off the table"
                    if not (abs(chi_r - chi_r_t * 1e6) <= 0.5e6
                            and abs(chi_p - chi_p_t * 1e6) <= 0.5e6):
                        return f"{ch}: dispersive shifts {chi_r}, {chi_p}"
                    target = NOISE_PHOTON_BOUNDS[ch]
                    if not 0.5 * target <= n_bound <= 1.5 * target:
                        return f"{ch}: noise-photon bound {n_bound:.3g}"
                    return None if finite else f"{ch}: non-finite separation"
                return check
            op.label = ch
            return op

        return [make(ch) for ch in CHANNELS]


class SpectrumFit(Workload):
    """One op analyses one measurement batch: fit, shots, error budget."""

    name = "spectrum_fit"
    setup_code = ("import notchlab.specfit, notchlab.metrics\n"
                  "from notchlab.device import load_paper_device\n"
                  "load_paper_device().mux_network()\n")
    POOL = 16

    def __init__(self, seed, work, env):
        super().__init__(seed, work, env)
        rng = self.rng
        grid = np.linspace(10.0e9, 10.9e9, 901)
        self.batches = []
        for b in range(self.POOL):
            specs = [specfit.synth_spectrum(self.net, s, THETA0, TAU, grid,
                                            PHASE_NOISE,
                                            seed=int(rng.integers(2**31)))
                     for s in "ge"]
            guess = _perturbed(self.net, rng)
            ch = CHANNELS[b % len(CHANNELS)]
            xy, labels = _shots(rng, QUBIT_TABLE[ch][2])
            self.batches.append((specs, guess, ch, xy, labels))

    def ops(self):
        return [self._op(b) for b in self.batches]

    def _op(self, batch):
        (spec_g, spec_e), guess, ch, xy, labels = batch

        def op(i):
            fit = specfit.fit_reflection(
                spec_g, spec_e, specfit.FitConfig(initial=guess,
                                                  theta0=THETA0_GUESS,
                                                  tau=TAU_GUESS))
            ana = metrics.shot_analysis(xy, labels)
            budget = metrics.error_budget(ana.stats.snr, TAU_MEAS, TAU_BUFFER,
                                          QUBIT_TABLE[ch][0] * 1e-6)

            def check():
                if not fit.converged:
                    return "fit did not converge"
                msg = _fit_check([c.chi for c in fit.network.channels],
                                 self.net)
                if msg:
                    return msg
                if budget.eps_sep != metrics.separation_error(ana.stats.snr):
                    return "error budget eps_sep differs from separation_error"
                return _shot_check(ana, ana.stats.snr)
            return check
        op.label = ch
        return op


WORKLOADS = {w.name: w for w in (CliSession, SweepGrid, ReadoutChar,
                                 SpectrumFit)}
