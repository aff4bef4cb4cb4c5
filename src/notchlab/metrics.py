"""Power calibration chain and readout fidelity analytics.

Covers the ac-Stark photon calibration (drive power from the measured Stark
shift, Purcell-limited T1 from power and drive amplitude) and the error
budget of single-shot readout: Gaussian separation error, coherence limits,
assignment/QND fidelities from conditional counts, and bivariate IQ shot
analysis with Fisher's linear discriminant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .mtl import TWO_PI
from .mux import MuxNetwork, steady_state

hbar = 1.0545718176461565e-34  # J s; h / 2 pi, the float scipy.constants holds
GATE_SIGMA = 4.0  # leakage gate of shot_analysis: the paper's 4-sigma ellipses


# ---------------------------------------------------------------- calibration

def photons_from_stark(delta_ac: float, chi: float) -> float:
    """Steady-state readout photon number from the ac Stark shift.

    n = Delta_ac / (2 chi).  The shift and the dispersive shift must share a
    sign for a physical (positive) photon number.
    """
    if not (math.isfinite(delta_ac) and math.isfinite(chi)):
        raise ValidationError("Stark shift and chi must be finite")
    if chi == 0:
        raise ValidationError("chi must be nonzero")
    n = delta_ac / (2.0 * chi)
    if not math.isfinite(n):
        raise NumericalError("photon number Delta_ac / (2 chi) overflows")
    if n < 0:
        warnings.warn("Stark shift and chi disagree in sign; photon number "
                      "is negative", stacklevel=2)
    return n


def incident_from_resonator(net: MuxNetwork, channel: str, f_d: float,
                            r_target: complex,
                            state: str | None = None) -> tuple[complex, float]:
    """Incident field and power that sustain a readout amplitude r_target.

    The network is linear, so the drive is r_target over the readout
    amplitude that steady_state gives for a unit drive at f_d.  Returns
    (s_in in sqrt(photons/s), power in W).
    """
    if not f_d > 0:
        raise ValidationError("drive frequency must be > 0")
    state = "g" * net.n if state is None else state
    idx = net.index(channel)
    if net.channels[idx].j == 0:
        raise ValidationError("channel has J = 0; readout mode cannot be driven")
    if r_target == 0:
        return 0.0 + 0.0j, 0.0
    s_in = r_target / steady_state(net, state, f_d)[net.n + idx]
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
    if not np.ptp(p) > 0:
        raise ValidationError("Stark fit is rank-deficient (constant power?)")
    # centred coordinates: unit-free, and an exact zero slope stays zero
    p_mean, f_mean = float(np.mean(p)), float(np.mean(f))
    dp, df = p - p_mean, f - f_mean
    sxx = float(dp @ dp)
    k = float(dp @ df) / sxx
    resid = df - k * dp
    s2 = float(resid @ resid) / (len(pts) - 2)
    stderr = math.sqrt(s2 * (1.0 / len(pts) + p_mean ** 2 / sxx))
    return f_mean - k * p_mean, k, stderr


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
    if not 0 < omega_hz < math.inf:
        raise ValidationError("drive amplitude must be finite and > 0")
    if not 0 < f_d < math.inf:
        raise ValidationError("drive frequency must be finite and > 0")
    if not 0 <= p_w < math.inf:
        raise ValidationError("power must be finite and >= 0")
    t1 = 4.0 * p_w / ((TWO_PI * omega_hz) ** 2 * hbar * TWO_PI * f_d)
    if not math.isfinite(t1):
        raise NumericalError("T1 = 4 P / (Omega^2 hbar w_d) overflows")
    return t1


# --------------------------------------------------------------- error budget

def separation_error(snr: float) -> float:
    """Misassignment floor from the overlap of two projected Gaussians.

    eps_sep = (1/2) erfc(SNR/sqrt(8)) for SNR = |mu_g - mu_e| over the
    mean standard deviation; erfc keeps the tail that 1 - erf cancels.
    """
    if not 0 <= snr < math.inf:
        raise ValidationError(f"SNR must be finite and >= 0, got {snr}")
    return 0.5 * math.erfc(snr / math.sqrt(8.0))


def coherence_limits(tau_meas: float, tau_buffer: float,
                     t1: float) -> tuple[float, float]:
    """Relaxation-imposed error floors (assignment, QND).

    eps_cl = tau_meas/(2 T1); the QND limit adds the buffer period between
    the two measurements, eps_cl_Q = (tau_buffer + tau_meas)/(2 T1).
    """
    for name, v in (("tau_meas", tau_meas), ("tau_buffer", tau_buffer)):
        if not 0 < v < math.inf:
            raise ValidationError(f"{name} must be finite and > 0, got {v}")
    if not t1 > 0:  # t1 = inf is no relaxation: eps_cl = 0
        raise ValidationError(f"t1 must be > 0, got {t1}")
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
            table = getattr(self, name)
            try:  # a cell that is no integer, or a ragged table
                arr = np.asarray(table, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                arr = np.zeros(0, dtype=np.int64)
            if arr.shape != (2, 2) or np.any(arr < 0) or not np.array_equal(arr, table):
                raise ValidationError(f"{name} must be a 2x2 table of counts")
            object.__setattr__(self, name, arr)


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
    weights: np.ndarray            # Fisher discriminant [bias, wI, wQ]; > 0: e
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
    1D Gaussian (68.27% at 1, 99.994% at 4): r^2 = -2 ln(erfc(k/sqrt(2))).
    """
    return math.sqrt(-2.0 * math.log(math.erfc(k / math.sqrt(2.0))))


def _precision(cov: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 covariance through its determinant."""
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if not 0.0 < det < math.inf:  # also false for nan or inf entries
        raise ValidationError("degenerate IQ covariance")
    return np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det


def _fit_gaussian(xy: np.ndarray):
    mu = xy.mean(axis=0)
    cov = np.cov(xy.T, bias=False)
    return mu, cov


def _mahalanobis2(xy: np.ndarray, mu: np.ndarray, prec: np.ndarray) -> np.ndarray:
    d0 = xy[:, 0] - mu[0]
    d1 = xy[:, 1] - mu[1]
    return prec[0, 0] * d0 * d0 + 2.0 * prec[0, 1] * d0 * d1 + prec[1, 1] * d1 * d1


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


def shot_analysis(iq: np.ndarray, labels, n_train: int = 20000) -> ShotAnalysis:
    """Discriminate labeled IQ shots and tag outliers.

    Fits a bivariate normal per prepared state, fits Fisher's linear
    discriminant (closed form, so it exists also for separable shots) on the
    first n_train shots (in input order) and classifies the remainder.
    Shots outside both GATE_SIGMA confidence ellipses are leakage suspects:
    misassigned ones are 'diamonds', correctly assigned shots outside their
    own ellipse are 'triangles'.
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
    g, e = xy[labels == 0], xy[labels == 1]
    if min(len(g), len(e)) < 100:
        raise ValidationError("need at least 100 shots per prepared state")

    mu_g, cov_g = _fit_gaussian(g)
    mu_e, cov_e = _fit_gaussian(e)
    prec_g, prec_e = _precision(cov_g), _precision(cov_e)
    axis = mu_e - mu_g
    axis = axis / np.linalg.norm(axis)
    sig_g = float(np.std((g - mu_g) @ axis, ddof=1))
    sig_e = float(np.std((e - mu_e) @ axis, ddof=1))
    stats = ShotStats(mu_g=complex(*mu_g), mu_e=complex(*mu_e),
                      sigma_g=sig_g, sigma_e=sig_e, n_g=len(g), n_e=len(e))

    # the training shots of each state are a prefix of its subset
    n_train = min(max(n_train, 0), n)
    train = np.arange(n) < n_train
    n_tg = int(np.count_nonzero(labels[:n_train] == 0))
    tg, te = g[:n_tg], e[:n_train - n_tg]
    if min(len(tg), len(te)) < 2:
        raise ValidationError(
            f"the first n_train = {n_train} shots hold {len(tg)} g and "
            f"{len(te)} e shots; the discriminator needs 2 of each")
    (m_g, c_g), (m_e, c_e) = _fit_gaussian(tg), _fit_gaussian(te)
    w = _precision(((len(tg) - 1) * c_g + (len(te) - 1) * c_e)
                   / (n_train - 2)) @ (m_e - m_g)
    w = np.concatenate([[math.log(len(te) / len(tg)) - w @ (m_g + m_e) / 2.0], w])
    assigned = (w[0] + xy @ w[1:] > 0).astype(int)

    ev = ~train if n_train < n else np.ones(n, dtype=bool)
    mis = (assigned != labels) & ev
    r2 = sigma_ellipse_radius(GATE_SIGMA) ** 2
    out_g = _mahalanobis2(xy, mu_g, prec_g) > r2
    out_e = _mahalanobis2(xy, mu_e, prec_e) > r2
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
