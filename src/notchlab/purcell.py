"""Purcell-limited qubit relaxation through the filtered readout network.

The qubit (shunt capacitance C_q) couples through C_qr to port 1 of a
lossless two-port; port 2 couples through C_ext to the readout line.  The
relaxation limit is T1 = C_q / Re Y_in(w_q).  The notch enhancement factor
compares MTL-coupled and capacitively coupled networks at equal exchange
coupling J.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .equiv import (EquivCap, LumpedPair, LumpedResonator, equivalent_pair,
                    j_mtl, map_resonator, two_port_z)
from .errors import BracketError, ValidationError
from .mtl import (TWO_PI, CoupledPairGeometry, ShuntLC, _freq_array,
                  _scalar_or_array, find_zero, z21_auto)

CONSTRAINED_Z0 = 66.0  # ohm; the resonator line impedance of constrained_pair


@dataclass(frozen=True)
class QubitCoupling:
    """Qubit-side and line-side capacitances of the relaxation model.

    c_q : qubit shunt capacitance (F)
    c_qr : qubit to readout-resonator coupling capacitance (F)
    c_ext : filter to readout-line coupling capacitance (F)
    z0_line : readout-line impedance (ohm)
    f_q : qubit frequency (Hz)
    """

    c_q: float
    c_qr: float
    c_ext: float
    z0_line: float
    f_q: float

    def __post_init__(self):
        for name in ("c_q", "c_qr", "c_ext", "z0_line", "f_q"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0")


def _line_mods(f: np.ndarray, z0_line: float, shunt: ShuntLC | None):
    """Z_ext addend and effective line resistance including the shunt.

    Points where the shunt impedance diverges leave the line unmodified.
    """
    if shunt is None:
        return 0.0, z0_line
    z_sh = shunt.impedance(f)
    finite = np.isfinite(z_sh)
    z_sh = np.where(finite, z_sh, 1.0)
    z_ext_add = np.where(finite, z_sh / (1.0 + np.abs(z_sh / z0_line) ** 2), 0.0)
    z0_eff = np.where(finite, z0_line / (1.0 + np.abs(z0_line / z_sh) ** 2),
                      z0_line)
    return z_ext_add, z0_eff


def re_input_admittance(z11, z22, z21, coupling: QubitCoupling, f,
                        shunt: ShuntLC | None = None):
    """Re Y_in seen by the qubit through the two-port at frequency f (S).

    Re Y_in = Z0 |Z21|^2 / |(Z11 + Z_qr)(Z22 + Z_ext + Z0)|^2, valid when
    |Z21| << |Z11|, |Z22| (warned otherwise).  A shunt, when present, adds
    Z_shunt/(1 + |Z_shunt/Z0|^2) to Z_ext and divides Z0 by
    (1 + |Z0/Z_shunt|^2).  f may be an array, with Z11, Z22, Z21 given on
    the same grid; a scalar f returns a float.
    """
    f, scalar = _freq_array(f)
    small = np.minimum(np.abs(z11), np.abs(z22))
    abs_z21 = np.abs(z21)
    strong = (small > 0) & (abs_z21 > 0.1 * small)
    if np.any(strong):
        warnings.warn(
            f"|Z21| = {np.max(abs_z21 * strong):.3g} is not small against "
            "|Z11|, |Z22|; the input-admittance formula degrades", stacklevel=2)
    w = TWO_PI * f
    z_qr = -1j / (w * coupling.c_qr)
    z_ext = -1j / (w * coupling.c_ext)
    z_ext_add, z0_eff = _line_mods(f, coupling.z0_line, shunt)
    z_ext = z_ext + z_ext_add
    denom = np.abs((z11 + z_qr) * (z22 + z_ext + z0_eff)) ** 2
    return _scalar_or_array(z0_eff * abs_z21 ** 2 / denom, scalar, float)


@dataclass(frozen=True)
class T1Result:
    """Purcell-limited relaxation time; notch_limited marks Re Y_in = 0."""

    t1_s: float | np.ndarray
    notch_limited: bool | np.ndarray = False


# predictions beyond this are numerically indistinguishable from a perfect
# notch (Re Y_in at round-off level) and are flagged as notch-limited
T1_NOTCH_CUTOFF_S = 1e12


def _two_port_at(network, f: np.ndarray):
    if isinstance(network, LumpedPair):
        return two_port_z(network, f)
    if isinstance(network, CoupledPairGeometry):
        # geometry-direct path: exact distributed Z21, coupler-independent
        # lumped Z11/Z22 (valid at weak coupling)
        z21 = z21_auto(network, f)
        y11 = map_resonator(network.ell_r, network.line).admittance(f)
        y22 = map_resonator(network.ell_p, network.line).admittance(f)
        return 1.0 / y11, 1.0 / y22, z21
    raise ValidationError(
        f"unsupported network type {type(network).__name__}; pass a "
        "LumpedPair or CoupledPairGeometry")


def t1_purcell(network, coupling: QubitCoupling, f_q=None,
               shunt: ShuntLC | None = None) -> T1Result:
    """Purcell-limited relaxation time at the qubit frequency.

    network is a LumpedPair (nodal two-port) or a CoupledPairGeometry
    (distributed Z21 with lumped Z11/Z22).  f_q, when given, replaces
    coupling.f_q and may be a frequency grid, evaluated in one pass.  A
    vanishing Re Y_in, as at the notch, yields an infinite, notch-limited
    result at that point.
    """
    f, scalar = _freq_array(coupling.f_q if f_q is None else f_q)
    z11, z22, z21 = _two_port_at(network, f)
    re_y = re_input_admittance(z11, z22, z21, coupling, f, shunt)
    with np.errstate(divide="ignore"):
        t1 = coupling.c_q / re_y
    limited = t1 > T1_NOTCH_CUTOFF_S
    t1 = np.where(limited, np.inf, t1)
    return T1Result(t1_s=_scalar_or_array(t1, scalar, float),
                    notch_limited=_scalar_or_array(limited, scalar, bool))


def enhancement_factor(f_q, f_n: float, f_rp_bar: float):
    """Purcell-filtering enhancement of the notch over a plain capacitor.

    xi = (1/4) (w_q^2 / Delta_qn^2) (1 - w_n^2/w_bar^2)^2, diverging as the
    qubit approaches the notch; infinite at exact coincidence.  f_q may be
    an array; a scalar f_q returns a float.
    """
    fq, scalar = _freq_array(f_q, "f_q")
    for name, val in (("f_n", f_n), ("f_rp_bar", f_rp_bar)):
        if not np.all(val > 0):
            raise ValidationError(f"{name} must be > 0")
    if np.any(np.abs(fq - f_n) > 0.2 * f_n):
        warnings.warn("qubit-notch detuning exceeds 20% of f_n; the "
                      "enhancement expansion degrades", stacklevel=2)
    bracket = 1.0 - (f_n / f_rp_bar) ** 2
    at_notch = fq == f_n
    detuning = np.where(at_notch, 1.0, fq - f_n)
    xi = np.where(at_notch, np.inf,
                  0.25 * (fq / detuning) ** 2 * bracket ** 2)
    return _scalar_or_array(xi, scalar, float)


def enhancement_bandwidth(xi_target: float, f_n: float, f_rp_bar: float) -> float:
    """Bandwidth around the notch with enhancement at least xi_target (Hz)."""
    if not xi_target > 0:
        raise ValidationError("xi_target must be > 0")
    return f_n / math.sqrt(xi_target) * abs(1.0 - (f_n / f_rp_bar) ** 2)


def notch_from_xi(xi: float, f_q: float, f_rp_bar: float) -> float:
    """Invert the enhancement factor for the notch frequency below f_q.

    Used to reconstruct per-qubit circuits when only the predicted
    enhancement is known.  BracketError when no notch in [0.3 f_q, f_q)
    reaches xi.
    """
    if not xi > 1.0:
        raise ValidationError("xi must exceed 1")

    def fun(f_n):
        return enhancement_factor(f_q, f_n, f_rp_bar) - xi

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return find_zero(fun, 0.3 * f_q, f_q * (1.0 - 1e-12), tol=1.0)
        except BracketError:  # no sign change over the bracket
            raise BracketError(f"no notch below f_q = {f_q:.6g} Hz gives "
                               f"xi = {xi:.6g}") from None


def c_qr_from_g(g_hz: float, f_q: float, f_r: float, c_q: float,
                c_r: float) -> float:
    """Coupling capacitance reproducing a qubit-resonator coupling g (Hz).

    Standard weak-coupling relation g = C_qr sqrt(w_q w_r) / (2 sqrt(C_q C_r)).
    """
    for name, v in (("g", g_hz), ("c_q", c_q), ("c_r", c_r)):
        if not v > 0:
            raise ValidationError(f"{name} must be > 0, got {v}")
    return (2.0 * TWO_PI * g_hz * math.sqrt(c_q * c_r)
            / math.sqrt(TWO_PI * f_q * TWO_PI * f_r))


def c_ext_from_kappa(kappa_hz: float, f_p: float, c_p: float,
                     z0_line: float) -> float:
    """Line coupling capacitance reproducing a filter linewidth kappa (Hz).

    kappa = w_p^2 C_ext^2 Z0 / C_p at weak line coupling.
    """
    for name, v in (("kappa", kappa_hz), ("c_p", c_p), ("z0_line", z0_line)):
        if not v > 0:
            raise ValidationError(f"{name} must be > 0, got {v}")
    w_p = TWO_PI * f_p
    return math.sqrt(TWO_PI * kappa_hz * c_p / (w_p ** 2 * z0_line))


def constrained_pair(f_r: float, f_p: float, j_hz: float,
                     f_n: float) -> LumpedPair:
    """Lumped pair pinned to measured frequencies and coupling.

    Resonators carry the lambda/4 image impedance 4 Z0/pi, Z0 = CONSTRAINED_Z0;
    the notch branch impedance is solved from the exact coupling relation so
    the pair has exchange coupling j_hz and a transmission zero at f_n.
    """
    z_char = 4.0 * CONSTRAINED_Z0 / math.pi
    w_r, w_p, w_n = TWO_PI * f_r, TWO_PI * f_p, TWO_PI * f_n
    readout = LumpedResonator(c=1.0 / (z_char * w_r), l=z_char / w_r)
    filt = LumpedResonator(c=1.0 / (z_char * w_p), l=z_char / w_p)
    sq = math.sqrt(w_r * w_p)
    z_n = z_char / (2.0 * TWO_PI * j_hz) * sq * abs(sq / w_n - w_n / sq)
    coupler = LumpedResonator(c=1.0 / (w_n * z_n), l=z_n / w_n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return LumpedPair(readout=readout, filter=filt, coupler=coupler)


def capacitive_twin(pair: LumpedPair, j_hz: float) -> LumpedPair:
    """Capacitively coupled pair with the same resonators and coupling J."""
    w_r = TWO_PI * pair.readout.f0
    w_p = TWO_PI * pair.filter.f0
    c_t = (2.0 * TWO_PI * j_hz
           / (math.sqrt(pair.readout.z * pair.filter.z) * w_r * w_p))
    return LumpedPair(readout=pair.readout, filter=pair.filter,
                      coupler=EquivCap(c_t))


def mtl_pair_and_twin(geom: CoupledPairGeometry):
    """(pair, twin): lumped image of an MTL pair and its equal-J capacitive twin.

    The twin's coupling is the exact-form J of the MTL pair.
    """
    pair = equivalent_pair(geom)
    return pair, capacitive_twin(pair, j_mtl(geom, exact=True))


def mtl_vs_cap_t1_ratio(geom: CoupledPairGeometry, coupling: QubitCoupling,
                        f_q: float | None = None) -> float:
    """Full-circuit T1 ratio of an MTL pair against its equal-J capacitive twin."""
    pair, twin = mtl_pair_and_twin(geom)
    t_mtl = t1_purcell(pair, coupling, f_q)
    t_cap = t1_purcell(twin, coupling, f_q)
    if t_mtl.notch_limited:
        return math.inf
    return t_mtl.t1_s / t_cap.t1_s
