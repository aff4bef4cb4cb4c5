"""Power calibration chain and readout fidelity analytics.

Covers the ac-Stark photon calibration (drive power from the measured Stark
shift, Purcell-limited T1 from power and drive amplitude) and the error
budget of single-shot readout: Gaussian separation error, coherence limits,
assignment/QND fidelities from conditional counts, and bivariate IQ shot
analysis with a logistic discriminator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.constants import hbar
from scipy.special import erf

from .errors import ValidationError
from .mtl import TWO_PI
from .mux import MuxNetwork, gamma_filter, gamma_incident


# ---------------------------------------------------------------- calibration

def photons_from_stark(delta_ac: float, chi: float) -> float:
    """Steady-state readout photon number from the ac Stark shift.

    n = Delta_ac / (2 chi).  The shift and the dispersive shift must share a
    sign for a physical (positive) photon number.
    """
    if chi == 0:
        raise ValidationError("chi must be nonzero")
    n = delta_ac / (2.0 * chi)
    if n < 0:
        warnings.warn("Stark shift and chi disagree in sign; photon number "
                      "is negative", stacklevel=2)
    return n


def incident_from_resonator(net: MuxNetwork, channel: str, f_d: float,
                            r_target: complex,
                            state: str | None = None) -> tuple[complex, float]:
    """Incident field and power that sustain a readout amplitude r_target.

    Inverts the steady-state equations of motion channel by channel: the
    readout amplitude fixes the filter amplitude, the filter equation gives
    the field incident on the filter, and the node relation
    s_in/p_in = (1 + Gamma_p)/(1 + Gamma_incident) scales it back to the
    device input.  Returns (s_in in sqrt(photons/s), power in W).
    """
    if not f_d > 0:
        raise ValidationError("drive frequency must be > 0")
    state = "g" * net.n if state is None else state
    idx = net.index(channel)
    ch = net.channels[idx]
    if ch.j == 0:
        raise ValidationError("channel has J = 0; readout mode cannot be driven")
    if r_target == 0:
        return 0.0 + 0.0j, 0.0
    d_r = TWO_PI * (ch.f_r(state[idx]) - f_d)
    d_p = TWO_PI * (ch.f_p - f_d)
    kap = TWO_PI * ch.kappa_p
    g_r = TWO_PI * ch.gamma_r
    g_p = TWO_PI * ch.gamma_p
    j = TWO_PI * ch.j
    # dr/dt = 0: (i d_r - g_r/2) r + i j p = 0
    p = -(1j * d_r - 0.5 * g_r) * r_target / (1j * j)
    # dp/dt = 0: (i d_p - (kap+g_p)/2) p + i j r + sqrt(kap) p_in = 0
    p_in = -((1j * d_p - 0.5 * (kap + g_p)) * p + 1j * j * r_target) / math.sqrt(kap)
    g_pj = gamma_filter(ch, state[idx], f_d)
    g_inc = gamma_incident(net, state, f_d)
    s_in = p_in * (1.0 + g_pj) / (1.0 + g_inc)
    power = hbar * TWO_PI * f_d * abs(s_in) ** 2
    return s_in, power


def stark_linear_fit(points) -> tuple[float, float, float]:
    """Ordinary least squares of f_q_ac = f_q + k * P.

    points is an iterable of (power, stark-shifted qubit frequency in Hz).
    Returns (f_q, k, standard error of f_q).
    """
    pts = np.array([(float(p), float(f)) for p, f in points]).reshape(-1, 2)
    if len(pts) < 3:
        raise ValidationError("need at least 3 points for the Stark fit")
    p, f = pts.T
    # power centered, scaled to [-1, 1]: unit-free; a zero column if constant
    p_mid = float(np.mean(p))
    p_span = float(np.max(np.abs(p - p_mid))) or 1.0
    a = np.column_stack([np.ones_like(p), (p - p_mid) / p_span])
    if np.linalg.matrix_rank(a) < 2:
        raise ValidationError("Stark fit is rank-deficient (constant power?)")
    coef, *_ = np.linalg.lstsq(a, f, rcond=None)
    resid = f - a @ coef
    s2 = float(resid @ resid) / (len(pts) - 2)
    cov = s2 * np.linalg.inv(a.T @ a)
    k = float(coef[1]) / p_span
    g = np.array([1.0, -p_mid / p_span])  # d f_q / d coef at P = 0
    return float(coef[0]) - k * p_mid, k, math.sqrt(max(g @ cov @ g, 0.0))


def rabi_to_omega(f_rabi: float, transition: str = "ge") -> float:
    """Drive amplitude (Hz) from a measured Rabi frequency.

    The g-e Rabi frequency equals the drive amplitude; the e-f one is larger
    by sqrt(2).
    """
    if transition == "ge":
        return f_rabi
    if transition == "ef":
        return f_rabi / math.sqrt(2.0)
    raise ValidationError("transition must be 'ge' or 'ef'")


def t1_from_drive(p_w: float, omega_hz: float, f_d: float) -> float:
    """Purcell-limited relaxation time from incident power and drive amplitude.

    T1 = 4 P / (Omega^2 hbar w_d) with Omega and w_d in angular units.
    """
    if not omega_hz > 0:
        raise ValidationError("drive amplitude must be > 0")
    if not f_d > 0:
        raise ValidationError("drive frequency must be > 0")
    if p_w < 0:
        raise ValidationError("power must be >= 0")
    return 4.0 * p_w / ((TWO_PI * omega_hz) ** 2 * hbar * TWO_PI * f_d)


# --------------------------------------------------------------- error budget

def separation_error(snr: float) -> float:
    """Misassignment floor from the overlap of two projected Gaussians.

    eps_sep = (1/2) (1 - erf(SNR/sqrt(8))) for SNR = |mu_g - mu_e| over the
    mean standard deviation.
    """
    if snr < 0:
        raise ValidationError("SNR must be >= 0")
    return 0.5 * (1.0 - float(erf(snr / math.sqrt(8.0))))


def coherence_limits(tau_meas: float, tau_buffer: float,
                     t1: float) -> tuple[float, float]:
    """Relaxation-imposed error floors (assignment, QND).

    eps_cl = tau_meas/(2 T1); the QND limit adds the buffer period between
    the two measurements, eps_cl_Q = (tau_buffer + tau_meas)/(2 T1).
    """
    for name, v in (("tau_meas", tau_meas), ("tau_buffer", tau_buffer), ("t1", t1)):
        if not v > 0:
            raise ValidationError(f"{name} must be > 0")
    eps_cl = tau_meas / (2.0 * t1)
    eps_cl_q = tau_buffer / (2.0 * t1) + tau_meas / (2.0 * t1)
    return eps_cl, eps_cl_q


_IDX = {"g": 0, "e": 1}


@dataclass(frozen=True)
class ReadoutCounts:
    """Joint (first, second) outcome counts of the benchmark sequences.

    Each table is 2x2 indexed [first][second] with 0 = g and 1 = e:
    no_pulse for the plain double measurement, pi_before_second for the
    assignment sequence (pi pulse between the measurements), pi_before_first
    for the QND sequence (pi pulse before both).
    """

    no_pulse: np.ndarray
    pi_before_second: np.ndarray
    pi_before_first: np.ndarray

    def __post_init__(self):
        for name in ("no_pulse", "pi_before_second", "pi_before_first"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
            if arr.shape != (2, 2) or np.any(arr < 0):
                raise ValidationError(f"{name} must be a 2x2 table of counts")


def _conditional(table: np.ndarray, first: str, second: str,
                 name: str) -> tuple[float, int, int]:
    row = table[_IDX[first]]
    total = int(row.sum())
    if total == 0:
        raise ValidationError(
            f"no counts with first outcome {first!r} in table {name!r}")
    k = int(row[_IDX[second]])
    return k / total, k, total


def wilson_interval(k: int, n: int, z: float = 1.0) -> tuple[float, float]:
    """Wilson score interval for k successes out of n (z sigma)."""
    if n <= 0:
        raise ValidationError("n must be > 0")
    ph = k / n
    denom = 1.0 + z ** 2 / n
    center = (ph + z ** 2 / (2 * n)) / denom
    half = z * math.sqrt(ph * (1 - ph) / n + z ** 2 / (4 * n ** 2)) / denom
    return center - half, center + half


@dataclass(frozen=True)
class FidelityResult:
    f: float
    f_q: float
    ci_f: tuple[float, float]
    ci_f_q: tuple[float, float]
    probs: dict


def fidelities(counts: ReadoutCounts) -> FidelityResult:
    """Assignment and QND fidelities from conditional outcome probabilities.

    F = [P_0(g2|g1) + P_pi(e2|g1)]/2 uses the sequence with the pi pulse
    between the measurements; F_Q = [P_0(g2|g1) + P_pi(e2|e1)]/2 uses the
    sequence with the pi pulse first.  Intervals are Wilson scores combined
    in quadrature.
    """
    p_gg, k1, n1 = _conditional(counts.no_pulse, "g", "g", "no_pulse")
    p_eg, k2, n2 = _conditional(counts.pi_before_second, "g", "e",
                                "pi_before_second")
    p_ee, k3, n3 = _conditional(counts.pi_before_first, "e", "e",
                                "pi_before_first")
    f = 0.5 * (p_gg + p_eg)
    f_q = 0.5 * (p_gg + p_ee)

    def half_width(k, n):
        lo, hi = wilson_interval(k, n)
        return 0.5 * (hi - lo)

    hw_f = 0.5 * math.hypot(half_width(k1, n1), half_width(k2, n2))
    hw_q = 0.5 * math.hypot(half_width(k1, n1), half_width(k3, n3))
    return FidelityResult(
        f=f, f_q=f_q, ci_f=(f - hw_f, f + hw_f), ci_f_q=(f_q - hw_q, f_q + hw_q),
        probs={"p0_g2_g1": p_gg, "ppi_e2_g1": p_eg, "ppi_e2_e1": p_ee})


@dataclass(frozen=True)
class ErrorBudget:
    """Table of readout error contributions (dimensionless fractions)."""

    snr: float
    eps_sep: float
    eps_cl: float
    eps_cl_q: float
    f: float | None = None
    f_q: float | None = None

    def __post_init__(self):
        for name in ("eps_sep", "eps_cl", "eps_cl_q"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")


def error_budget(snr: float, tau_meas: float, tau_buffer: float, t1: float,
                 counts: ReadoutCounts | None = None) -> ErrorBudget:
    """Assemble the standard error-budget row for one qubit."""
    eps_cl, eps_cl_q = coherence_limits(tau_meas, tau_buffer, t1)
    f = f_q = None
    if counts is not None:
        fid = fidelities(counts)
        f, f_q = fid.f, fid.f_q
    return ErrorBudget(snr=snr, eps_sep=separation_error(snr), eps_cl=eps_cl,
                       eps_cl_q=eps_cl_q, f=f, f_q=f_q)


def matched_filter_weights(t, s) -> np.ndarray:
    """Integration weights proportional to the separation trace.

    Weighting the demodulated record by S(t) maximizes the SNR of the
    integrated IQ point for Gaussian noise.  Normalized to unit sum.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size != np.asarray(t).size:
        raise ValidationError("weights need matching time and separation arrays")
    total = s.sum()
    if total <= 0:
        raise ValidationError("separation trace carries no signal")
    return s / total


# ------------------------------------------------------------- shot analysis

@dataclass(frozen=True)
class ShotStats:
    """Bivariate-normal summary of labeled IQ shots.

    Means are complex IQ centers; sigmas are standard deviations of the
    shots projected on the principal axis through the two means.
    """

    mu_g: complex
    mu_e: complex
    sigma_g: float
    sigma_e: float
    n_g: int
    n_e: int

    @property
    def snr(self) -> float:
        return abs(self.mu_g - self.mu_e) / (0.5 * (self.sigma_g + self.sigma_e))


@dataclass(frozen=True)
class ShotAnalysis:
    stats: ShotStats
    weights: np.ndarray            # logistic discriminator [bias, wI, wQ]
    assigned: np.ndarray           # per-shot predicted label (0 g, 1 e)
    labels: np.ndarray             # per-shot prepared label
    train_mask: np.ndarray
    misassigned: np.ndarray        # bool, evaluation shots only
    diamonds: np.ndarray           # misassigned outside both 4-sigma ellipses
    circles: np.ndarray            # misassigned inside a 4-sigma ellipse
    triangles: np.ndarray          # correct but outside own 4-sigma ellipse
    leakage_suspect: np.ndarray    # outside both ellipses
    accuracy: float


def sigma_ellipse_radius(k: float) -> float:
    """Mahalanobis radius of the 2D 'k sigma' confidence ellipse.

    Defined so the ellipse holds the same probability mass as +-k sigma of a
    1D Gaussian (68.27% at 1, 99.994% at 4): r^2 = -2 ln(1 - erf(k/sqrt(2))).
    """
    p = float(erf(k / math.sqrt(2.0)))
    return math.sqrt(-2.0 * math.log1p(-p))


def _fit_gaussian(xy: np.ndarray):
    mu = xy.mean(axis=0)
    cov = np.cov(xy.T, bias=False)
    if np.linalg.det(cov) <= 0 or not np.all(np.isfinite(cov)):
        raise ValidationError("degenerate IQ covariance")
    return mu, cov


def _mahalanobis2(xy: np.ndarray, mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = xy - mu
    sol = np.linalg.solve(cov, d.T)
    return np.einsum("ij,ji->i", d, sol)


def _logistic_irls(x: np.ndarray, y: np.ndarray, max_iter: int = 50,
                   tol: float = 1e-10) -> np.ndarray:
    """Deterministic iteratively reweighted least squares for logistic regression."""
    a = np.column_stack([np.ones(len(x)), x])
    w = np.zeros(a.shape[1])
    for _ in range(max_iter):
        z = a @ w
        mu = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        s = np.maximum(mu * (1.0 - mu), 1e-12)
        grad = a.T @ (mu - y)
        hess = (a * s[:, None]).T @ a + 1e-12 * np.eye(a.shape[1])
        step = np.linalg.solve(hess, grad)
        w = w - step
        if np.max(np.abs(step)) < tol:
            break
    return w


def _label_code(value) -> int | None:
    """0 for a g label, 1 for an e label, None for anything else."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, str):
        return {"0": 0, "g": 0, "1": 1, "e": 1}.get(value)
    if isinstance(value, (bool, int, float)) and value in (0, 1):
        return int(value)
    return None


def _shot_labels(labels) -> np.ndarray:
    """Prepared states as 0 (g) / 1 (e), the rule applied once per value.

    Accepts the numbers 0/1 (int or float), "0"/"1", "g"/"e" and bools
    (False = g); any other label is a ValidationError that names the first
    one in shot order.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValidationError("labels must be one label per shot")
    try:
        values, inverse = np.unique(labels, return_inverse=True)
    except TypeError:  # an object array mixing types that do not sort
        values, inverse = labels, np.arange(labels.size)
    codes = [_label_code(v) for v in values]
    unknown = np.array([c is None for c in codes], dtype=bool)
    if unknown.any():
        bad = labels[np.argmax(unknown[inverse])]
        bad = bad.item() if isinstance(bad, np.generic) else bad
        raise ValidationError(
            f"shot label {bad!r} is not one of 0/1, '0'/'1', 'g'/'e' or a bool")
    return np.array(codes, dtype=int)[inverse]


def shot_analysis(iq: np.ndarray, labels, n_train: int = 20000,
                  gate_sigma: float = 4.0) -> ShotAnalysis:
    """Discriminate labeled IQ shots and tag outliers.

    Fits a bivariate normal per prepared state, trains a two-class linear
    logistic discriminator on the first n_train shots (in input order) and
    classifies the remainder.  Shots outside both gate_sigma confidence
    ellipses are leakage suspects: misassigned ones are 'diamonds',
    correctly assigned shots outside their own ellipse are 'triangles'.
    """
    iq = np.asarray(iq)
    if np.iscomplexobj(iq):
        xy = np.column_stack([iq.real, iq.imag]).astype(float)
    else:
        xy = np.asarray(iq, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValidationError("iq must be complex or of shape (n, 2)")
    labels = _shot_labels(labels)
    if labels.size != xy.shape[0]:
        raise ValidationError("labels must match the number of shots")
    n = xy.shape[0]
    if min(np.sum(labels == 0), np.sum(labels == 1)) < 100:
        raise ValidationError("need at least 100 shots per prepared state")

    mu_g, cov_g = _fit_gaussian(xy[labels == 0])
    mu_e, cov_e = _fit_gaussian(xy[labels == 1])
    axis = mu_e - mu_g
    axis = axis / np.linalg.norm(axis)
    sig_g = float(np.std((xy[labels == 0] - mu_g) @ axis, ddof=1))
    sig_e = float(np.std((xy[labels == 1] - mu_e) @ axis, ddof=1))
    stats = ShotStats(mu_g=complex(*mu_g), mu_e=complex(*mu_e),
                      sigma_g=sig_g, sigma_e=sig_e,
                      n_g=int(np.sum(labels == 0)), n_e=int(np.sum(labels == 1)))

    n_train = min(n_train, n)
    train = np.zeros(n, dtype=bool)
    train[:n_train] = True
    w = _logistic_irls(xy[train], labels[train].astype(float))
    logit = w[0] + xy @ w[1:]
    assigned = (logit > 0).astype(int)

    ev = ~train if n_train < n else np.ones(n, dtype=bool)
    mis = (assigned != labels) & ev
    r2 = sigma_ellipse_radius(gate_sigma) ** 2
    out_g = _mahalanobis2(xy, mu_g, cov_g) > r2
    out_e = _mahalanobis2(xy, mu_e, cov_e) > r2
    outside_both = out_g & out_e
    own_out = np.where(assigned == 0, out_g, out_e)
    diamonds = mis & outside_both
    circles = mis & ~outside_both
    triangles = (assigned == labels) & ev & own_out
    n_ev = max(int(np.sum(ev)), 1)
    return ShotAnalysis(
        stats=stats, weights=w, assigned=assigned, labels=labels,
        train_mask=train, misassigned=mis, diamonds=diamonds, circles=circles,
        triangles=triangles, leakage_suspect=outside_both & ev,
        accuracy=float(np.sum((assigned == labels) & ev) / n_ev))
