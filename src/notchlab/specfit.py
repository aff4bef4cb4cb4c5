"""Fit two-state reflection phase spectra to the multiplexed network model.

The measured phase is arg(Gamma_incident) + theta0 - w*tau, with a constant
offset and an electrical delay.  Fitting works on circular residuals
wrap(measured - model), so the cost is invariant under adding 2*pi to any
data point and no pre-unwrapping is needed.  Both qubit-state spectra
(all-g and all-e) are fit simultaneously, which is what makes chi
identifiable.  The Jacobian is analytic: with Gamma = (1 - Y)/(1 + Y) and
Y the admittance sum at the common node, d arg(Gamma)/dp =
Im(-2/((1 - Y)(1 + Y)) dY/dp), and each branch term of Y depends on its own
channel's parameters only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .mtl import TWO_PI
from .mux import (MuxNetwork, _branch_partials, _total_admittance,
                  gamma_incident)

# internal optimizer scaling: frequencies in GHz, rates in MHz, tau in ns
_GROUPS = ("f_r_g", "f_p", "j", "kappa_p", "chi", "gamma_r", "gamma_p")
_SCALE = {"f_r_g": 1e9, "f_p": 1e9, "j": 1e6, "kappa_p": 1e6, "chi": 1e6,
          "gamma_r": 1e6, "gamma_p": 1e6, "theta0": 1.0, "tau": 1e-9}
_DEFAULT_FIXED = ("gamma_r", "gamma_p")
# ReadoutChannel bounds these groups at zero: the optimizer steps through a
# signed x and the network takes |x|, so a trial step across zero is valid
_MAGNITUDE = tuple(f"{g}[" for g in ("j", "kappa_p", "gamma_r", "gamma_p"))


@dataclass(frozen=True)
class PhaseSpectrum:
    """Wrapped reflection phase on a frequency grid."""

    freq_hz: np.ndarray
    phase_rad: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freq_hz, dtype=float)
        p = np.asarray(self.phase_rad, dtype=float)
        object.__setattr__(self, "freq_hz", f)
        object.__setattr__(self, "phase_rad", p)
        if f.size != p.size or f.size < 2:
            raise ValidationError("spectrum needs matching freq/phase arrays")
        if not np.all(np.diff(f) > 0):
            raise ValidationError("frequencies must be strictly increasing")
        if not np.all(np.isfinite(p)):
            raise ValidationError("phase must be finite")


@dataclass(frozen=True)
class FitConfig:
    """Initial guess and optimizer settings for fit_reflection.

    The initial network should place each resonance within about half a
    filter linewidth of the truth for the local optimizer to be in basin.
    fix lists parameter groups to freeze at their initial values; internal
    linewidths are frozen at zero by default because the external decay
    dominates.  Freeing them needs a lossy initial network: a lossless one
    reflects with |Gamma| = 1, where the phase is stationary in every loss.
    """

    initial: MuxNetwork
    theta0: float = 0.0
    tau: float = 0.0
    fix: tuple[str, ...] = _DEFAULT_FIXED
    tol: float = 1e-12  # least_squares xtol, ftol and gtol
    max_eval: int = 20000

    def __post_init__(self):
        if not np.all(np.isfinite([self.theta0, self.tau])):
            raise ValidationError("theta0 and tau must be finite")
        if not self.tol > 0:
            raise ValidationError("tolerances must be > 0")
        for name in self.fix:
            if name not in _GROUPS + ("theta0", "tau"):
                raise ValidationError(f"unknown fixed-parameter group {name!r}")
        if {"gamma_r", "gamma_p"} - set(self.fix) and not any(
                c.gamma_r or c.gamma_p for c in self.initial.channels):
            raise ValidationError("freed gamma_r/gamma_p need an initial "
                                  "network with nonzero internal loss")


@dataclass(frozen=True)
class FitResult:
    """Outcome of fit_reflection.

    converged is MINPACK's tolerance test only: a local minimum above the
    noise floor also reports True.  Compare residual_norm, the 2-norm of the
    M phase residuals (rad), with sigma sqrt(M) for a phase noise sigma.
    """

    network: MuxNetwork
    theta0: float
    tau: float
    stderr: dict
    residual_norm: float
    converged: bool
    chi_reported: bool
    n_eval: int  # residual evaluations
    n_jac: int  # Jacobian evaluations


def wrap_phase(x):
    """Wrap angle(s) to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(x, dtype=float)))


def model_phase(net: MuxNetwork, state: str, theta0: float, tau: float, f):
    """Reflected phase of the model at frequency f (rad, not wrapped)."""
    gam = gamma_incident(net, state, f)
    return np.angle(gam) + theta0 - TWO_PI * np.asarray(f, dtype=float) * tau


def synth_spectrum(net: MuxNetwork, state: str, theta0: float, tau: float,
                   grid, noise_sd: float, seed: int = 0) -> PhaseSpectrum:
    """Model phase plus seeded Gaussian noise, wrapped to (-pi, pi]."""
    if noise_sd < 0:
        raise ValidationError("noise_sd must be >= 0")
    grid = np.asarray(grid, dtype=float)
    joint = state * net.n if state in ("g", "e") else state
    phase = model_phase(net, joint, theta0, tau, grid)
    if noise_sd > 0:
        rng = np.random.default_rng(seed)
        phase = phase + rng.normal(0.0, noise_sd, grid.size)
    return PhaseSpectrum(freq_hz=grid, phase_rad=wrap_phase(phase))


def _prefit_delay(net0: MuxNetwork, spectra, theta0: float, tau: float):
    """Linear pre-estimate of the phase offset and electrical delay.

    The residual against the initial model is unwrapped and fit to
    dtheta - 2 pi f dtau; resonance-region excursions average out over the
    grid.  Deterministic, and accurate enough to land inside the local
    basin of the circular cost, whose delay direction repeats every ~1/f.
    """
    d_theta = 0.0
    d_taus = []
    for i, (spec, joint) in enumerate(spectra):
        model = model_phase(net0, joint, theta0, tau, spec.freq_hz)
        resid = np.unwrap(wrap_phase(model - spec.phase_rad))
        a = np.column_stack([np.ones(spec.freq_hz.size),
                             -TWO_PI * spec.freq_hz])
        coef, *_ = np.linalg.lstsq(a, resid, rcond=None)
        if i == 0:
            d_theta = coef[0]
        d_taus.append(coef[1])
    return theta0 - d_theta, tau - float(np.mean(d_taus))


def _split(name: str) -> tuple[str, int]:
    """'kappa_p[2]' -> ('kappa_p', 2)."""
    grp, i = name.rsplit("[", 1)
    return grp, int(i[:-1])


def _pack(net: MuxNetwork, theta0: float, tau: float, free: list[str]):
    x = []
    for name in free:
        if name == "theta0":
            x.append(theta0)
        elif name == "tau":
            x.append(tau / _SCALE["tau"])
        else:
            grp, i = _split(name)
            x.append(getattr(net.channels[i], grp) / _SCALE[grp])
    return np.array(x, dtype=float)


def _unpack(x, net: MuxNetwork, theta0: float, tau: float, free: list[str]):
    vals = {name: abs(xi) if name.startswith(_MAGNITUDE) else xi
            for name, xi in zip(free, x)}
    channels = []
    for i, ch in enumerate(net.channels):
        kw = {}
        for grp in _GROUPS:
            key = f"{grp}[{i}]"
            if key in vals:
                kw[grp] = vals[key] * _SCALE[grp]
        channels.append(replace(ch, **kw) if kw else ch)
    th = vals.get("theta0", theta0)
    ta = vals["tau"] * _SCALE["tau"] if "tau" in vals else tau
    return replace(net, channels=tuple(channels)), th, ta


def _phase_jacobian(net: MuxNetwork, spectra, free: list[str]) -> np.ndarray:
    """d(model phase)/dx of the scaled free parameters, one row per point."""
    blocks = []
    for spec, joint in spectra:
        f = spec.freq_hz
        y = _total_admittance(net, joint, f)
        dphi_dy = -2.0 / ((1.0 - y) * (1.0 + y))
        partials = [_branch_partials(ch, s, f)
                    for ch, s in zip(net.channels, joint)]
        cols = np.empty((f.size, len(free)))
        for k, name in enumerate(free):
            if name == "theta0":
                cols[:, k] = 1.0
            elif name == "tau":
                cols[:, k] = -TWO_PI * _SCALE["tau"] * f
            else:
                grp, i = _split(name)
                cols[:, k] = (dphi_dy * partials[i][grp]).imag * _SCALE[grp]
        blocks.append(cols)
    return np.concatenate(blocks)


def fit_reflection(spec_g: PhaseSpectrum, spec_e: PhaseSpectrum | None,
                   cfg: FitConfig) -> FitResult:
    """Simultaneous least-squares fit of the g- and e-state phase spectra.

    One Levenberg-Marquardt pass on circular residuals with the analytic
    Jacobian (_phase_jacobian).  J, kappa_p and the internal linewidths are
    fit signed and reported as magnitudes (_MAGNITUDE).  With only one
    spectrum chi is unidentifiable and is silently frozen (chi_reported =
    False).  Standard errors come from the residual Jacobian at the
    solution.  Deterministic for identical inputs.
    """
    net0 = cfg.initial
    fixed = set(cfg.fix)
    chi_reported = spec_e is not None
    if spec_e is None:
        fixed.add("chi")

    free: list[str] = []
    for grp in _GROUPS:
        if grp in fixed:
            continue
        free.extend(f"{grp}[{i}]" for i in range(net0.n))
    for scalar in ("theta0", "tau"):
        if scalar not in fixed:
            free.append(scalar)
    if not free:
        raise ValidationError("no free parameters")

    spectra = [(spec_g, "g" * net0.n)]
    if spec_e is not None:
        if spec_e.freq_hz[0] > spec_g.freq_hz[-1] or \
                spec_g.freq_hz[0] > spec_e.freq_hz[-1]:
            raise ValidationError("the two spectra must overlap in frequency")
        spectra.append((spec_e, "e" * net0.n))

    n_eval = n_jac = 0
    is_mag = np.array([name.startswith(_MAGNITUDE) for name in free])

    def residuals(x):
        nonlocal n_eval
        n_eval += 1
        net, th, ta = _unpack(x, net0, cfg.theta0, cfg.tau, free)
        parts = []
        for spec, joint in spectra:
            model = model_phase(net, joint, th, ta, spec.freq_hz)
            parts.append(wrap_phase(model - spec.phase_rad))
        return np.concatenate(parts)

    def jacobian(x):
        nonlocal n_jac
        n_jac += 1
        net, _, _ = _unpack(x, net0, cfg.theta0, cfg.tau, free)
        # _unpack takes |x|; d|x|/dx is +1 at 0, so LM can leave the bound
        d_abs = np.where(is_mag & (x < 0), -1.0, 1.0)
        return _phase_jacobian(net, spectra, free) * d_abs

    theta0_init, tau_init = cfg.theta0, cfg.tau
    if "theta0" not in fixed and "tau" not in fixed:
        # the delay direction of the circular cost is quasi-periodic in
        # 1/f, so pull theta0/tau into basin on the residual slope first
        theta0_init, tau_init = _prefit_delay(net0, spectra, cfg.theta0,
                                              cfg.tau)
    x0 = _pack(net0, theta0_init, tau_init, free)
    from scipy.optimize import least_squares
    res = least_squares(residuals, x0, jac=jacobian, method="lm",
                        xtol=cfg.tol, ftol=cfg.tol, gtol=cfg.tol,
                        max_nfev=cfg.max_eval)
    net_f, th_f, ta_f = _unpack(res.x, net0, cfg.theta0, cfg.tau, free)
    stderr = _standard_errors(res, free, net0.n)
    if not chi_reported:
        stderr["chi"] = None
    return FitResult(network=net_f, theta0=th_f, tau=ta_f, stderr=stderr,
                     residual_norm=float(np.sqrt(2.0 * res.cost)),
                     converged=bool(res.success and np.isfinite(res.cost)),
                     chi_reported=chi_reported, n_eval=n_eval,
                     n_jac=n_jac)


def _standard_errors(res, free: list[str], n_ch: int) -> dict:
    m, nfree = res.jac.shape
    dof = max(m - nfree, 1)
    s2 = 2.0 * res.cost / dof
    try:
        cov = s2 * np.linalg.pinv(res.jac.T @ res.jac)
        sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        sig = np.full(nfree, np.nan)
    out: dict = {}
    for name, s in zip(free, sig):
        if name in ("theta0", "tau"):
            out[name] = float(s * _SCALE[name])
        else:
            grp, i = _split(name)
            out.setdefault(grp, np.full(n_ch, np.nan))[i] = s * _SCALE[grp]
    return out
