"""Lumped-element images of the distributed resonator pairs.

The lambda/4 modes map to parallel LC resonators and the coupler maps to a
capacitor (capacitive variant) or to a parallel LC branch resonating at the
notch frequency (MTL variant).  Exchange couplings J are reported in ordinary
frequency (Hz, i.e. J/2pi) everywhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateNotchError, NumericalError, PoleError,
                     UnboundedCouplerError, ValidationError)
from .mtl import (TWO_PI, CoupledPairGeometry, LineParams, _float_range,
                  _freq_array, _lc_admittance, _scalar_or_array,
                  notch_frequency)

# Degeneracy guard for Eq.-style J evaluation: |f_n - f_bar| below this
# relative threshold is treated as the (physically suppressed) singular case.
_DEGENERATE_REL = 1e-9


@dataclass(frozen=True)
class LumpedResonator:
    """Parallel LC resonator; c in farad, l in henry."""

    c: float
    l: float

    def __post_init__(self):
        if not (self.c > 0 and self.l > 0):
            raise ValidationError("LumpedResonator needs c > 0 and l > 0")

    @property
    def f0(self) -> float:
        return 1.0 / (TWO_PI * math.sqrt(self.l * self.c))

    @property
    def z(self) -> float:
        return math.sqrt(self.l / self.c)

    def admittance(self, f):
        return _lc_admittance(f, self.c, self.l)


@dataclass(frozen=True)
class EquivCap:
    """Coupler branch: plain capacitor of value c_j_eff (F)."""

    c_j_eff: float

    def __post_init__(self):
        if not self.c_j_eff > 0:
            raise ValidationError("c_j_eff must be > 0")

    def admittance(self, f):
        return 1j * TWO_PI * np.asarray(f, dtype=float) * self.c_j_eff


# a LumpedResonator coupler is the notch branch: a parallel LC that blocks
# transmission at its resonance
CouplerBranch = EquivCap | LumpedResonator


@dataclass(frozen=True)
class LumpedPair:
    """Readout and filter LC resonators joined by a coupler branch."""

    readout: LumpedResonator
    filter: LumpedResonator
    coupler: CouplerBranch

    def __post_init__(self):
        if isinstance(self.coupler, LumpedResonator):
            c_ratio = self.coupler.c / min(self.readout.c, self.filter.c)
            l_ratio = self.coupler.l / max(self.readout.l, self.filter.l)
            if c_ratio > 0.1 or l_ratio < 10.0:
                warnings.warn(
                    f"weak-coupling regime strained: C_n/C = {c_ratio:.3g}, "
                    f"L_n/L = {l_ratio:.3g}", stacklevel=2)


def map_resonator(length: float, line: LineParams) -> LumpedResonator:
    """Parallel-LC image of a lambda/4 line of the given length.

    c = l/(2 Z0 v) and l = 8 Z0 l/(pi^2 v); the image resonates exactly at
    v/(4 length) and has characteristic impedance 4 Z0/pi regardless of
    length.
    """
    if not length > 0:
        raise ValidationError("length must be > 0")
    c = length / (2.0 * line.z0 * line.v)
    ind = 8.0 * line.z0 * length / (math.pi ** 2 * line.v)
    return LumpedResonator(c=c, l=ind)


def equivalent_cap(c_j: float, geom: CoupledPairGeometry) -> float:
    """Effective lumped coupling capacitance C~_J (F) of a distributed C_J.

    C~_J = C_J sin(l_r^s w_r / v) sin(l_p^s w_p / v): full value when the
    capacitor sits at both open ends, zero at a shorted end.
    """
    if geom.is_mtl:
        raise ValidationError("equivalent_cap requires a capacitive geometry")
    if c_j < 0:
        raise ValidationError("c_j must be >= 0")
    v = geom.line.v
    w_r = TWO_PI * geom.f_r
    w_p = TWO_PI * geom.f_p
    return c_j * math.sin(geom.l_r_short * w_r / v) * math.sin(geom.l_p_short * w_p / v)


def j_capacitive(geom: CoupledPairGeometry, c_j: float) -> float:
    """Exchange coupling of a capacitively coupled pair, in Hz.

    J = (2/pi) Z0 w_r w_p C_J sin(w_r l_r^s / v) sin(w_p l_p^s / v), divided
    by 2pi for the ordinary-frequency convention.
    """
    if geom.is_mtl:
        raise ValidationError("j_capacitive requires a capacitive geometry")
    w_r = TWO_PI * geom.f_r
    w_p = TWO_PI * geom.f_p
    j_ang = (2.0 / math.pi) * geom.line.z0 * w_r * w_p * equivalent_cap(c_j, geom)
    if not math.isfinite(j_ang):
        raise NumericalError("J leaves the float range; a device parameter "
                             "is too large or too small")
    return j_ang / TWO_PI


def notch_branch(geom: CoupledPairGeometry) -> LumpedResonator:
    """Coupler branch of the lumped image of an MTL-coupled pair.

    The branch impedance Z_n is fixed by matching value and slope of the
    lumped transfer impedance to the distributed one at the notch; the
    resonance 1/sqrt(L_n C_n) equals the notch frequency by construction.
    """
    if not geom.is_mtl:
        raise ValidationError("notch_branch requires an MTL coupler")
    r = geom.coupler.cm_over_c
    if r == 0:
        raise UnboundedCouplerError("cm_over_c = 0 gives an unbounded Z_n")
    if geom.len_c == 0:
        raise UnboundedCouplerError("coupler length 0 gives an unbounded Z_n")
    line = geom.line
    w_r = TWO_PI * geom.f_r
    w_p = TWO_PI * geom.f_p
    w_n = TWO_PI * notch_frequency(geom)
    with _float_range("the notch branch impedance Z_n"):
        z_n = (line.z0 * 64.0 / math.pi ** 3
               * math.cos(math.pi * w_n / (2.0 * w_r))
               * math.cos(math.pi * w_n / (2.0 * w_p))
               / ((w_r / w_n - w_n / w_r) * (w_p / w_n - w_n / w_p))
               / r / math.sin(w_n * geom.len_c / line.v))
    if not z_n > 0 or not math.isfinite(z_n):
        raise UnboundedCouplerError(f"Z_n = {z_n!r} is not a positive finite value")
    return LumpedResonator(c=1.0 / (w_n * z_n), l=z_n / w_n)


def j_mtl(geom: CoupledPairGeometry, exact: bool = False) -> float:
    """Exchange coupling of an MTL-coupled pair, in Hz.

    Default evaluates the expansion around the mean resonator frequency
    w_bar = (w_r + w_p)/2; with exact=True the pre-expansion form in terms of
    Z_r, Z_p and Z_n is used instead.  The notch coinciding with w_bar is a
    physically suppressed point where both forms turn singular; it is
    reported as DegenerateNotchError rather than evaluated.
    """
    if not geom.is_mtl:
        raise ValidationError("j_mtl requires an MTL coupler")
    line = geom.line
    w_r = TWO_PI * geom.f_r
    w_p = TWO_PI * geom.f_p
    w_n = TWO_PI * notch_frequency(geom)
    w_bar = 0.5 * (w_r + w_p)
    if abs(w_n - w_bar) <= _DEGENERATE_REL * w_bar:
        raise DegenerateNotchError(
            "notch frequency equals the mean resonator frequency")
    if abs(w_r - w_p) > 0.1 * w_n:
        warnings.warn(
            "resonator detuning exceeds 10% of the notch frequency; the "
            "J expansion degrades", stacklevel=2)
    if geom.coupler.cm_over_c == 0:
        return 0.0
    with _float_range("J"):
        if exact:
            branch = notch_branch(geom)
            z_r = map_resonator(geom.ell_r, line).z
            z_p = map_resonator(geom.ell_p, line).z
            sq = math.sqrt(w_r * w_p)
            j_ang = (math.sqrt(z_r * z_p) / (2.0 * branch.z)
                     * sq * (sq / w_n - w_n / sq))
        else:
            ratio = w_bar / w_n
            j_ang = (w_bar * math.pi ** 2 / 32.0
                     * (ratio - 1.0 / ratio) ** 3
                     / math.cos(math.pi / (2.0 * ratio)) ** 2
                     * geom.coupler.cm_over_c
                     * math.sin(w_n * geom.len_c / line.v))
    return j_ang / TWO_PI


def equivalent_pair(geom: CoupledPairGeometry) -> LumpedPair:
    """Full lumped image of a coupled-pair geometry."""
    readout = map_resonator(geom.ell_r, geom.line)
    filt = map_resonator(geom.ell_p, geom.line)
    if geom.is_mtl:
        coupler: CouplerBranch = notch_branch(geom)
    else:
        coupler = EquivCap(equivalent_cap(geom.c_j, geom))
    return LumpedPair(readout=readout, filter=filt, coupler=coupler)


def two_port_z(pair: LumpedPair, f):
    """(Z11, Z22, Z21) of the lumped pair by nodal analysis."""
    f, scalar = _freq_array(f)
    y_c = pair.coupler.admittance(f)
    y11 = pair.readout.admittance(f) + y_c
    y22 = pair.filter.admittance(f) + y_c
    det = y11 * y22 - y_c * y_c
    hybridized = np.abs(det) < 1e-12 * np.abs(y11 * y22) + 1e-300
    if np.any(hybridized):
        f_bad = float(f[np.argmax(hybridized)])
        raise PoleError("hybridized", f_bad, f_bad)
    zs = (y22 / det, y11 / det, y_c / det)
    return tuple(_scalar_or_array(z, scalar) for z in zs)
