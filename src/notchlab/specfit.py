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

The optimizer's x holds the free entries of MuxNetwork.params under a
boolean (group, channel) mask, then theta0 and tau (_Model).  The model is
evaluated from that array: the fit builds one MuxNetwork, for its result,
and computes the shunt term once per spectrum.  A one-entry memo hands the
last residual's admittance sums and branch terms to a Jacobian at the same x.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError
from .mtl import TWO_PI, _freq_array
from .mux import PARAM_ROWS as _GROUPS  # x takes the groups in this order
from .mux import MuxNetwork, _branch_partials, _reflection, gamma_incident

# internal optimizer scaling: frequencies in GHz, rates in MHz, tau in ns
_SCALE = {"f_r_g": 1e9, "f_p": 1e9, "j": 1e6, "kappa_p": 1e6, "chi": 1e6,
          "gamma_r": 1e6, "gamma_p": 1e6, "tau": 1e-9}
_DEFAULT_FIXED = ("gamma_r", "gamma_p")
# ReadoutChannel bounds these groups at zero: the optimizer steps through a
# signed x and the network takes |x|, so a trial step across zero is valid
_MAGNITUDE = [_GROUPS.index(g) for g in ("j", "kappa_p", "gamma_r", "gamma_p")]


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
    fix lists channel parameter groups (mux.PARAM_ROWS) to freeze at their
    initial values; theta0 and tau are always fit.  Internal linewidths are
    frozen at zero by default because the external decay dominates.
    Freeing them needs a lossy initial network: a lossless one reflects
    with |Gamma| = 1, where the phase is stationary in every loss.
    """

    initial: MuxNetwork
    theta0: float = 0.0
    tau: float = 0.0
    fix: tuple[str, ...] = _DEFAULT_FIXED
    tol: float = 1e-12  # LM ftol, xtol and gtol, from machine epsilon up
    max_eval: int = 20000  # residual evaluations, at least 1

    def __post_init__(self):
        if not np.all(np.isfinite([self.theta0, self.tau])):
            raise ValidationError("theta0 and tau must be finite")
        if not np.finfo(float).eps <= self.tol < np.inf:
            raise ValidationError("tol must be > 0: finite and at least the machine "
                                  f"epsilon {np.finfo(float).eps:.3g}, got {self.tol}")
        if isinstance(self.max_eval, bool) or not isinstance(
                self.max_eval, (int, np.integer)) or self.max_eval < 1:
            raise ValidationError(
                f"max_eval must be an integer >= 1, got {self.max_eval!r}")
        for name in self.fix:
            if name not in _GROUPS:
                raise ValidationError(f"unknown fixed-parameter group {name!r}")
        if {"gamma_r", "gamma_p"} - set(self.fix) and not any(
                c.gamma_r or c.gamma_p for c in self.initial.channels):
            raise ValidationError("freed gamma_r/gamma_p need an initial "
                                  "network with nonzero internal loss")


@dataclass(frozen=True)
class FitResult:
    """Outcome of fit_reflection.

    converged is the ftol/xtol/gtol test of the LM pass (_lm) only, False
    at max_eval: a local minimum above the noise floor also reports True.
    Compare residual_norm, the 2-norm of the M phase residuals (rad), with
    sigma sqrt(M) for a phase noise sigma.
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


def _prefit_delay(models, spectra, theta0: float, tau: float):
    """Linear pre-estimate of the phase offset and electrical delay.

    The residual against the initial model phases `models` is unwrapped and
    fit to dtheta - 2 pi f dtau; resonance-region excursions average out
    over the grid.  Deterministic, and accurate enough to land inside the
    local basin of the circular cost, whose delay direction repeats every
    ~1/f.
    """
    d_theta = 0.0
    d_taus = []
    for i, (model, (f, phase, _, _)) in enumerate(zip(models, spectra)):
        resid = np.unwrap(wrap_phase(model - phase))
        a = np.column_stack([np.ones(f.size), -TWO_PI * f])
        coef, *_ = np.linalg.lstsq(a, resid, rcond=None)
        if i == 0:
            d_theta = coef[0]
        d_taus.append(coef[1])
    return theta0 - d_theta, tau - float(np.mean(d_taus))


class _Model:
    """The fit's model of (PhaseSpectrum, joint state) pairs at an x.

    x holds net0.params[free], free being a boolean (group, channel) mask,
    each divided by its _SCALE, then theta0 and tau / _SCALE["tau"].
    """

    def __init__(self, net0: MuxNetwork, pairs, free):
        self.net0, self.free = net0, free
        self.names = [ch.name for ch in net0.channels]
        self.grp, self.chan = np.nonzero(free)
        self.scale = np.array([_SCALE[_GROUPS[g]] for g in self.grp])
        self.is_mag = np.append(np.isin(self.grp, _MAGNITUDE), [False, False])
        # (frequencies, measured phase, joint state, z0 Y_shunt(f) + 0j)
        self.spectra = []
        for spec, joint in pairs:
            f, _ = _freq_array(spec.freq_hz)
            self.spectra.append((f, spec.phase_rad, joint, net0.z0_line
                                 * net0.shunt.admittance(f) + 0j))

    def pack(self, theta0: float, tau: float) -> np.ndarray:
        return np.append(self.net0.params[self.free] / self.scale,
                         [theta0, tau / _SCALE["tau"]])

    def unpack(self, x):
        """(params in the MuxNetwork.params layout, theta0, tau) at x."""
        k = self.grp.size
        p = self.net0.params.copy()
        v = x[:k]
        p[self.free] = np.where(self.is_mag[:k], np.abs(v), v) * self.scale
        if not np.all(p[_GROUPS.index("kappa_p")] > 0):
            raise ValidationError("kappa_p must be > 0")
        return p, x[k], x[k + 1] * _SCALE["tau"]

    def evaluate(self, p, theta0: float, tau: float):
        """(model phase in rad, not wrapped; admittance sum Y; branch terms)
        of each spectrum at params p."""
        out = []
        for f, _, joint, y_shunt in self.spectra:
            terms = []
            gam, y = _reflection(p, self.names, joint, f, y_shunt, terms)
            out.append((np.angle(gam) + theta0 - TWO_PI * f * tau, y, terms))
        return out

    def network(self, p) -> MuxNetwork:
        """net0 with the free entries of params p."""
        return replace(self.net0, channels=tuple(
            replace(ch, **{g: p[k, i] for k, g in enumerate(_GROUPS)
                           if self.free[k, i]})
            for i, ch in enumerate(self.net0.channels)))


def _phase_jacobian(model: _Model, p, ev) -> np.ndarray:
    """d(model phase)/dx of the scaled free parameters, one row per point.

    ev is model.evaluate at p.  Per spectrum, one product of dphi/dY with
    the stacked branch partials of the free entries.
    """
    k = model.grp.size
    jac = np.empty((sum(f.size for f, *_ in model.spectra), k + 2))
    r0 = 0
    for (f, _, joint, _), (_, y, terms) in zip(model.spectra, ev):
        r1 = r0 + f.size
        dphi_dy = -2.0 / ((1.0 - y) * (1.0 + y))
        partials = np.array([_branch_partials(col, s, t) for col, s, t
                             in zip(p.T.tolist(), joint, terms)])
        jac[r0:r1, :k] = ((dphi_dy * partials[model.chan, model.grp]).imag
                          * model.scale[:, None]).T
        jac[r0:r1, k] = 1.0
        jac[r0:r1, k + 1] = -TWO_PI * _SCALE["tau"] * f
        r0 = r1
    return jac


def fit_reflection(spec_g: PhaseSpectrum, spec_e: PhaseSpectrum | None,
                   cfg: FitConfig) -> FitResult:
    """Simultaneous least-squares fit of the g- and e-state phase spectra.

    One pass of Moré's Levenberg-Marquardt (_lm) on circular residuals with
    the analytic Jacobian (_phase_jacobian), x laid out by _Model.  J,
    kappa_p and the internal linewidths are fit signed and reported as
    magnitudes (_MAGNITUDE).  Each residual evaluation keeps its admittance
    sums and branch terms for a Jacobian at the same x, which _lm asks for
    right after accepting a step.  With only one spectrum chi is
    unidentifiable and is silently frozen (chi_reported = False).  Standard
    errors come from the residual Jacobian at the solution.  Deterministic
    for identical inputs.
    """
    net0 = cfg.initial
    fixed = set(cfg.fix)
    chi_reported = spec_e is not None
    if spec_e is None:
        fixed.add("chi")
    free = np.repeat([[g not in fixed] for g in _GROUPS], net0.n, axis=1)
    n_free = np.count_nonzero(free) + 2  # and theta0, tau

    pairs = [(spec_g, "g" * net0.n)]
    if spec_e is not None:
        if spec_e.freq_hz[0] > spec_g.freq_hz[-1] or \
                spec_g.freq_hz[0] > spec_e.freq_hz[-1]:
            raise ValidationError("the two spectra must overlap in frequency")
        pairs.append((spec_e, "e" * net0.n))
    if sum(spec.freq_hz.size for spec, _ in pairs) < n_free:
        raise ValidationError(f"{n_free} free parameters need at least "
                              "as many spectrum points")
    model = _Model(net0, pairs, free)

    n_eval = n_jac = 0
    memo = {}  # the last evaluation: x.tobytes() -> (p, model.evaluate)

    def evaluate(x):
        p, th, ta = model.unpack(x)
        memo.clear()
        memo[x.tobytes()] = out = (p, model.evaluate(p, th, ta))
        return out

    def residuals(x):
        nonlocal n_eval
        n_eval += 1
        return np.concatenate([wrap_phase(phi - phase) for (phi, _, _), (
            _, phase, _, _) in zip(evaluate(x)[1], model.spectra)])

    def jacobian(x):
        nonlocal n_jac
        n_jac += 1
        p, ev = memo.get(x.tobytes()) or evaluate(x)
        # unpack takes |x|; d|x|/dx is +1 at 0, so LM can leave the bound
        return _phase_jacobian(model, p, ev) * np.where(
            model.is_mag & (x < 0), -1.0, 1.0)

    # the delay direction of the circular cost is quasi-periodic in 1/f,
    # so pull theta0/tau into basin on the residual slope first
    phases0 = [phi for phi, _, _ in model.evaluate(net0.params, cfg.theta0,
                                                   cfg.tau)]
    x0 = model.pack(*_prefit_delay(phases0, model.spectra, cfg.theta0, cfg.tau))
    res = _lm(residuals, jacobian, x0, cfg.tol, cfg.max_eval)
    p_f, th_f, ta_f = model.unpack(res.x)
    stderr = _standard_errors(res, model)
    if not chi_reported:
        stderr["chi"] = None
    return FitResult(network=model.network(p_f), theta0=th_f, tau=ta_f,
                     stderr=stderr,
                     residual_norm=float(np.sqrt(2.0 * res.cost)),
                     converged=res.success, chi_reported=chi_reported,
                     n_eval=n_eval, n_jac=n_jac)


def _lm(fun, jac, x0, tol, max_eval):
    """Moré's Levenberg-Marquardt (LNM 630, 1978): MINPACK lmder in mode 1.

    tol is lmder's ftol, xtol and gtol; max_eval counts calls of fun.  One
    decomposition J/D = U S V^T per Jacobian makes every trial step
    D p = -V S (S^2 + par)^-1 U^T f cost O(n), lmpar's included: the SVD of
    R from the QR of [J/D | f], or, for a tall J/D (10 rows per column or
    more) with cond(J/D) <= 1e4, the eigenpairs of (J/D)^T (J/D), S to
    about 1e-8 at a quarter of the QR's time on a spectrum fit.  With
    tol >= eps lmder's info 6-8 cannot fire before 1-4 and are left out;
    success is info 1-4.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    tall = f.size >= 10 * x.size
    n_eval, fnorm, par, diag = 1, np.linalg.norm(f), 0.0, None
    first = moved = True  # no step accepted yet, no Jacobian at x yet
    done = stalled = max_eval < 2  # lmder would make one trial step
    while not done:
        jx, moved = jac(x), False
        gram = jx.T @ jx
        acnorm = np.sqrt(np.diag(gram))
        if diag is None:
            diag = np.where(acnorm > 0.0, acnorm, 1.0)
            xnorm = np.linalg.norm(diag * x)
            delta = 100.0 * xnorm or 100.0
        diag, g, nz = np.maximum(diag, acnorm), jx.T @ f, acnorm > 0.0
        # info 4: f is within tol of orthogonal to every Jacobian column
        if not fnorm or np.max(np.abs(g[nz]) / acnorm[nz], initial=0.0) <= tol * fnorm:
            break
        if tall:
            s2, v = np.linalg.eigh(gram / np.outer(diag, diag))
            sc = v.T @ (g / diag)
        if not tall or s2[0] <= 1e-8 * s2[-1]:
            r = np.linalg.qr(np.column_stack((jx / diag, f)), mode="r")
            u, s, vt = np.linalg.svd(r[:, :-1], full_matrices=False)
            s2, v, sc = s * s, vt.T, s * (u.T @ r[:, -1])
        while not (moved or done):
            par, w = _lmpar(s2, sc, delta, par)
            pnorm = np.linalg.norm(w)
            delta = min(delta, pnorm) if first else delta
            x_new = x - (v @ w) / diag
            f_new, n_eval = fun(x_new), n_eval + 1
            fnorm1 = np.linalg.norm(f_new)
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            t1, t2 = np.sum(s2 * w * w) / fnorm ** 2, par * (pnorm / fnorm) ** 2
            prered = t1 + 2.0 * t2
            ratio = actred / prered if prered else 0.0
            if ratio <= 0.25:
                t = 0.5 * (t1 + t2) / (t1 + t2 - 0.5 * actred) if actred < 0 else 0.5
                t = 0.1 if 0.1 * fnorm1 >= fnorm else max(t, 0.1)
                delta, par = t * min(delta, 10.0 * pnorm), par / t
            elif par == 0.0 or ratio >= 0.75:
                delta, par = 2.0 * pnorm, 0.5 * par
            if ratio >= 1e-4:
                x, f, fnorm, moved, first = x_new, f_new, fnorm1, True, False
                xnorm = np.linalg.norm(diag * x)
            done = abs(actred) <= tol and prered <= tol and ratio <= 2.0 \
                or delta <= tol * xnorm
            stalled = not done and n_eval >= max_eval
            done |= stalled
    jx = jac(x) if moved else jx
    return SimpleNamespace(x=x, cost=0.5 * fnorm ** 2, jac=jx, success=not stalled)


def _lmpar(s2, sc, delta, par):
    """lmder's lmpar in the basis V: par and the step w = -V^T D p.

    Moré's Newton iteration on 1/delta - 1/|D p|, kept in [parl, paru] and
    started from the last par, stops at |D p| = delta +- 10 % or after 10
    steps; par = 0 if the Gauss-Newton step (pseudo-inverse where J/D is
    singular) is shorter.
    """
    full = s2 > s2.max() * (np.finfo(float).eps * s2.size) ** 2
    w = np.divide(sc, s2, out=np.zeros_like(sc), where=full)
    fp = np.linalg.norm(w) - delta
    if fp <= 0.1 * delta:
        return 0.0, w

    def newton(par):  # the Newton step from par, at the current w and fp
        return fp / delta * (w @ w) / np.sum(w * w / (s2 + par))

    parl = newton(0.0) if full.all() else 0.0
    gnorm, tiny = np.linalg.norm(sc), np.finfo(float).tiny
    paru = gnorm / delta or tiny / min(delta, 0.1)
    par = min(max(par, parl), paru) or gnorm / np.linalg.norm(w)
    for it in range(10):
        par = par or max(tiny, 0.001 * paru)
        w = sc / (s2 + par)
        fp_old, fp = fp, np.linalg.norm(w) - delta
        if abs(fp) <= 0.1 * delta or parl == 0.0 and fp <= fp_old < 0.0 or it == 9:
            return par, w
        parl, paru = (max(parl, par), paru) if fp > 0.0 else (parl, min(paru, par))
        par = max(parl, par + newton(par))


def _standard_errors(res, model: _Model) -> dict:
    """1-sigma errors: an array over channels per free group (NaN where a
    channel is fixed), a float for theta0 and for tau."""
    m, nfree = res.jac.shape
    dof = max(m - nfree, 1)
    s2 = 2.0 * res.cost / dof
    try:
        cov = s2 * np.linalg.pinv(res.jac.T @ res.jac)
        sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        sig = np.full(nfree, np.nan)
    k = model.grp.size
    table = np.full(model.free.shape, np.nan)
    table[model.free] = sig[:k] * model.scale
    out: dict = {g: row.copy() for g, row, on
                 in zip(_GROUPS, table, model.free.any(axis=1)) if on}
    out["theta0"], out["tau"] = float(sig[k]), float(sig[k + 1] * _SCALE["tau"])
    return out
