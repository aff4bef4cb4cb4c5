"""Distributed-circuit model of two coupled quarter-wave resonators.

Transfer impedances are evaluated from the weak-coupling solution for a pair
of lambda/4 lines joined by a multiconductor-transmission-line (MTL) section
or by a lumped capacitor.  All public frequencies are ordinary frequencies in
Hz; angular frequencies only appear inside formula evaluation.  The time
convention is the electrical-engineering one, exp(+i w t), so lossless
transfer impedances are purely imaginary.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, NumericalError, PoleError, ValidationError

C_LIGHT = 299_792_458.0
TWO_PI = 2.0 * math.pi

# Evaluations closer than this (Hz) to a cosine zero of the denominator raise
# PoleError instead of returning huge values, so root finders cannot mistake
# a pole for a zero.
DEFAULT_POLE_GUARD_HZ = 1e3

# Weak-coupling diagnostics warn above this capacitance ratio.
WEAK_COUPLING_WARN = 0.1


@dataclass(frozen=True)
class LineParams:
    """Uncoupled CPW line constants.

    z0 : characteristic impedance (ohm)
    v : phase velocity (m/s)
    """

    z0: float
    v: float

    def __post_init__(self):
        if not self.z0 > 0:
            raise ValidationError(f"z0 must be > 0, got {self.z0}")
        if not 0 < self.v <= C_LIGHT:
            raise ValidationError(f"v must be in (0, c], got {self.v}")

    @property
    def c_per_len(self) -> float:
        """Capacitance to ground per length, 1/(Z0 v) (F/m)."""
        return 1.0 / (self.z0 * self.v)

    @property
    def l_per_len(self) -> float:
        """Self inductance per length, Z0/v (H/m)."""
        return self.z0 / self.v


@dataclass(frozen=True)
class MtlCouplerParams:
    """Coupled-section parameters.

    len_c : coupled-section length (m)
    cm_over_c : mutual capacitance ratio c_m/c
    zm_over_z0 : Z_m/Z_0 with Z_m = sqrt(l_m/c_m); 1 in a homogeneous medium
    d : optional ground-strip width (m), metadata only
    """

    len_c: float
    cm_over_c: float
    zm_over_z0: float = 1.0
    d: float | None = None

    def __post_init__(self):
        if self.len_c < 0:
            raise ValidationError(f"len_c must be >= 0, got {self.len_c}")
        if not 0 <= self.cm_over_c < 1:
            raise ValidationError(f"cm_over_c must be in [0, 1), got {self.cm_over_c}")
        if not self.zm_over_z0 > 0:
            raise ValidationError(f"zm_over_z0 must be > 0, got {self.zm_over_z0}")


@dataclass(frozen=True)
class CoupledPairGeometry:
    """One readout/filter resonator pair in the distributed picture.

    Segment lengths are measured from the coupled section to the open (o) or
    shorted (s) end of each resonator.  The coupler is either an
    MtlCouplerParams or a lumped coupling capacitance in farad.
    """

    l_r_open: float
    l_r_short: float
    l_p_open: float
    l_p_short: float
    coupler: MtlCouplerParams | float
    line: LineParams = field(default_factory=lambda: LineParams(66.0, 1.19e8))

    def __post_init__(self):
        for name in ("l_r_open", "l_r_short", "l_p_open", "l_p_short"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if not self.is_mtl and float(self.coupler) < 0:
            raise ValidationError("coupling capacitance must be >= 0")
        if not self.ell_r > 0 or not self.ell_p > 0:
            raise ValidationError("total resonator lengths must be > 0")

    @property
    def is_mtl(self) -> bool:
        return isinstance(self.coupler, MtlCouplerParams)

    @property
    def len_c(self) -> float:
        return self.coupler.len_c if self.is_mtl else 0.0

    @property
    def c_j(self) -> float:
        if self.is_mtl:
            raise ValidationError("geometry has an MTL coupler, not a capacitor")
        return float(self.coupler)

    @property
    def ell_r(self) -> float:
        return self.l_r_open + self.len_c + self.l_r_short

    @property
    def ell_p(self) -> float:
        return self.l_p_open + self.len_c + self.l_p_short

    @property
    def f_r(self) -> float:
        """Bare lambda/4 frequency of the readout resonator (Hz)."""
        return lambda4_frequency(self.ell_r, self.line)

    @property
    def f_p(self) -> float:
        """Bare lambda/4 frequency of the filter resonator (Hz)."""
        return lambda4_frequency(self.ell_p, self.line)

    def mirrored(self) -> "CoupledPairGeometry":
        """Swap the roles of the two resonators (ports 1 and 2)."""
        return CoupledPairGeometry(
            l_r_open=self.l_p_open,
            l_r_short=self.l_p_short,
            l_p_open=self.l_r_open,
            l_p_short=self.l_r_short,
            coupler=self.coupler,
            line=self.line,
        )


def lambda4_frequency(length: float, line: LineParams) -> float:
    """Fundamental lambda/4 resonance v/(4 length) in Hz."""
    if not length > 0:
        raise ValidationError(f"length must be > 0, got {length}")
    return line.v / (4.0 * length)


def notch_frequency(geom: CoupledPairGeometry) -> float:
    """Frequency of the transfer-impedance zero, v/(4 (l_r^s + l_c + l_p^s)).

    Independent of the open-side lengths and of the coupling strength, which
    is what makes the notch tunable independently of the resonator modes.
    """
    if not geom.is_mtl:
        raise ValidationError("notch_frequency requires an MTL coupler")
    denom = geom.l_r_short + geom.len_c + geom.l_p_short
    if denom <= 0:
        raise ValidationError("l_r_short + len_c + l_p_short must be > 0")
    return geom.line.v / (4.0 * denom)


def _nearest_pole(f, f_mode: float) -> np.ndarray:
    """Distance from f to the nearest odd harmonic (2k+1)*f_mode, k >= 0."""
    k = np.maximum(np.round((f / f_mode - 1.0) / 2.0), 0.0)
    return np.abs(f - (2.0 * k + 1.0) * f_mode)


def _freq_array(f, name: str = "frequency") -> tuple[np.ndarray, bool]:
    """f as a 1-d float array, and whether it was a scalar.

    Every point must be finite and > 0; NaN fails the test too.
    """
    arr = np.atleast_1d(np.asarray(f, dtype=float))
    if not np.all((arr > 0) & (arr < np.inf)):
        raise ValidationError(f"{name} must be > 0 and finite")
    return arr, np.ndim(f) == 0


def _scalar_or_array(out: np.ndarray, scalar: bool, kind=complex):
    """Undo _freq_array on a result: a scalar input gets a Python kind back."""
    return kind(out[0]) if scalar else out


@contextlib.contextmanager
def _float_range(what: str):
    """Raise NumericalError on a float overflow or zero divisor in the block."""
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        raise NumericalError(f"{what} leaves the float range; a device "
                             "parameter is too large or too small") from None


def _guard_poles(f: np.ndarray, f_r: float, f_p: float, guard: float) -> None:
    if not guard > 0:  # also false for nan
        raise ValidationError("pole guard must be > 0")
    for name, fm in (("readout", f_r), ("filter", f_p)):
        d = _nearest_pole(f, fm)
        if np.any(d < guard):
            i = int(np.argmin(d))
            fi = float(f[i])
            k = max(round((fi / fm - 1.0) / 2.0), 0)
            raise PoleError(name, (2 * k + 1) * fm, fi)


def z21_general(geom: CoupledPairGeometry, f,
                pole_guard_hz: float = DEFAULT_POLE_GUARD_HZ) -> complex:
    """Transfer impedance of an MTL-coupled pair (ohm), weak-coupling solution.

    Valid for a cyclic-symmetric, consonant coupled section; the medium need
    not be homogeneous (zm_over_z0 may differ from 1).  Purely imaginary.
    """
    if not geom.is_mtl:
        raise ValidationError("z21_general requires an MTL coupler")
    line, cpl = geom.line, geom.coupler
    f_r, f_p = geom.f_r, geom.f_p
    f, scalar = _freq_array(f)
    _guard_poles(f, f_r, f_p, pole_guard_hz)
    w = TWO_PI * f
    v = line.v
    x = w * cpl.len_c / v
    sinc = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
    with _float_range("Z21"):
        zm2 = cpl.zm_over_z0 ** 2
        a_plus = (1.0 + zm2) * sinc * np.cos(
            w * (geom.l_r_short + geom.l_p_short + cpl.len_c) / v)
        a_minus = (1.0 - zm2) * np.cos(
            w * (geom.l_r_short - geom.l_p_short) / v)
        c_m = cpl.cm_over_c * line.c_per_len
        num = 1j * line.z0 ** 2 * w * cpl.len_c * c_m * (a_plus - a_minus)
    den = 2.0 * np.cos(0.5 * w / (2.0 * f_r)) * np.cos(0.5 * w / (2.0 * f_p))
    return _scalar_or_array(num / den, scalar)


def z21_homogeneous(geom: CoupledPairGeometry, f,
                    pole_guard_hz: float = DEFAULT_POLE_GUARD_HZ) -> complex:
    """Transfer impedance for a homogeneous medium (Z_m = Z_0), in ohm.

    z21_general at zm_over_z0 = 1, where it takes the compact form
    i Z0 (c_m/c) sin(w l_c/v) cos(pi f/2f_n) / (cos(pi f/2f_r) cos(pi f/2f_p))
    that makes the notch explicit.
    """
    if not geom.is_mtl:
        raise ValidationError("z21_homogeneous requires an MTL coupler")
    if geom.coupler.zm_over_z0 != 1.0:
        raise ValidationError("z21_homogeneous requires zm_over_z0 = 1")
    return z21_general(geom, f, pole_guard_hz)


def z21_capacitive(geom: CoupledPairGeometry, f,
                   pole_guard_hz: float = DEFAULT_POLE_GUARD_HZ) -> complex:
    """Transfer impedance for lumped capacitive coupling (ohm).

    Limit of the MTL solution for c_m*len_c -> C_J, l_m, len_c -> 0.  The
    first zero is at min(pi v / l_r^s, pi v / l_p^s), which is never below
    twice the lower resonator frequency: no notch in the usable band.
    """
    if geom.is_mtl:
        raise ValidationError("z21_capacitive requires a capacitive coupler")
    line = geom.line
    f_r, f_p = geom.f_r, geom.f_p
    f, scalar = _freq_array(f)
    _guard_poles(f, f_r, f_p, pole_guard_hz)
    w = TWO_PI * f
    with _float_range("Z21"):
        num = (-1j * line.z0 ** 2 * np.sin(w * geom.l_r_short / line.v)
               * np.sin(w * geom.l_p_short / line.v) * w * geom.c_j)
    den = np.cos(0.5 * w / (2.0 * f_r)) * np.cos(0.5 * w / (2.0 * f_p))
    return _scalar_or_array(num / den, scalar)


def z21_auto(geom: CoupledPairGeometry, f,
             pole_guard_hz: float = DEFAULT_POLE_GUARD_HZ) -> complex:
    """Dispatch to the coupler-appropriate transfer impedance."""
    if geom.is_mtl:
        return z21_general(geom, f, pole_guard_hz)
    return z21_capacitive(geom, f, pole_guard_hz)


def z21_multi(geoms: list[CoupledPairGeometry], f,
              pole_guard_hz: float = DEFAULT_POLE_GUARD_HZ):
    """Transfer impedance of resonators tied by several MTL sections.

    Under the weak-coupling and consonant-line assumptions the sections
    superpose: Z21 of the whole equals the sum of the per-section Z21 values.
    """
    if not geoms:
        raise ValidationError("z21_multi requires at least one section")
    total = None
    for g in geoms:
        z = z21_general(g, f, pole_guard_hz)
        total = z if total is None else total + z
    return total


def find_zero(evaluator, f_lo: float, f_hi: float, tol: float = 1.0) -> float:
    """Locate a zero of Im evaluator(f) inside [f_lo, f_hi] by bisection.

    The bracket must contain a sign change and no pole.  A sign change caused
    by a pole crossing (|Z| growing instead of shrinking toward the root) is
    rejected with PoleError.
    """
    if not (f_hi > f_lo > 0):
        raise ValidationError("require 0 < f_lo < f_hi")
    if not tol > 0:
        raise ValidationError("tol must be > 0")

    def im(f):
        z = evaluator(f)
        return float(np.imag(z)) if np.iscomplexobj(z) else float(z)

    v_lo, v_hi = im(f_lo), im(f_hi)
    if v_lo == 0.0:
        return f_lo
    if v_hi == 0.0:
        return f_hi
    if math.copysign(1.0, v_lo) == math.copysign(1.0, v_hi):
        raise BracketError(
            f"no sign change of Im Z21 on [{f_lo:.6g}, {f_hi:.6g}] Hz")
    lo, hi, vlo = f_lo, f_hi, v_lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        vm = im(mid)  # PoleError from the evaluator propagates
        if vm == 0.0:
            lo = hi = mid
            break
        if math.copysign(1.0, vm) == math.copysign(1.0, vlo):
            lo, vlo = mid, vm
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    v_root = abs(im(root))
    if v_root > min(abs(v_lo), abs(v_hi)):
        raise PoleError("unknown", root, root)
    return root


def coupling_diagnostics(geom: CoupledPairGeometry) -> dict:
    """Weak-coupling indicators for an MTL coupler.

    Returns cm_over_c, lm_over_l and the homogeneous-medium coupling factor
    k = sqrt(1 - (l_m/l)^2).  Warns when cm_over_c exceeds 0.1, where
    neglecting the back-action of the induced line excitation starts to bite.
    """
    if not geom.is_mtl:
        raise ValidationError("coupling diagnostics require an MTL coupler")
    r = geom.coupler.cm_over_c
    lm_over_l = geom.coupler.zm_over_z0 ** 2 * r
    k = math.sqrt(max(0.0, 1.0 - lm_over_l ** 2))
    if r > WEAK_COUPLING_WARN:
        warnings.warn(
            f"cm_over_c = {r:.3g} exceeds {WEAK_COUPLING_WARN}; weak-coupling "
            "formulas degrade", stacklevel=2)
    return {"cm_over_c": r, "lm_over_l": lm_over_l, "k": k}
