"""Semi-classical model of the multiplexed readout network.

Each channel is a readout resonator (qubit-state-dependent frequency) coupled
with strength J to a filter resonator, which couples to a shared readout line
with external linewidth kappa_p.  A parasitic shunt LC sits at the common
node.  The model is linear: qubits only shift their readout resonator by 2*chi.

Conventions
-----------
All public frequencies, linewidths and couplings are ordinary frequencies in
Hz.  The electrical-engineering phasor convention exp(+i w t) is canonical;
the input-output expressions are conjugated on ingestion, here and nowhere
else.  Time evolution is computed in the rotating frame of the drive; normal
modes are reported at absolute frequencies.  State strings list one of
'g'/'e' per channel, e.g. "gegg".
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (CompositionPoleError, NumericalError, PassivityError,
                     SingularSystemError, ValidationError)
from .mtl import (MAX_SAMPLES, TWO_PI, QubitInfo, ReadoutChannel, ShuntLC,
                  _freq_array, _scalar_or_array)

# raised-cosine edges are sampled piecewise-constant at most this coarsely
EDGE_SAMPLE_MAX_S = 0.1e-9

MAX_CHANNELS = 8

# propagate's modal coordinates lose a few 1e-15 cond(V) of the trace, so
# it refuses cond(V) > COND_MAX; its step blocks decay by at most
# e^BLOCK_DECAY_MAX and hold at most BLOCK_STEPS steps
COND_MAX = 1e6
BLOCK_DECAY_MAX = 30.0
BLOCK_STEPS = 1024

# QUADPACK's qk15 rule (Piessens et al., 1983) on [-1, 1], for x >= 0:
# (abscissa x, Kronrod weight, weight of the 7-point Gauss rule or 0)
_GK15 = ((0.991455371120812639, 0.022935322010529225, 0.0),
         (0.949107912342758525, 0.063092092629978553, 0.129484966168869693),
         (0.864864423359769073, 0.104790010322250184, 0.0),
         (0.741531185599394440, 0.140653259715525919, 0.279705391489276668),
         (0.586087235467691130, 0.169004726639267903, 0.0),
         (0.405845151377397167, 0.190350578064785410, 0.381830050505118945),
         (0.207784955007898468, 0.204432940075298892, 0.0),
         (0.0, 0.209482141084727828, 0.417959183673469388))
NOISE_PANEL_RHO = 0.5
NOISE_POLE_FLOOR = 1e-9
NOISE_RTOL = 1e-9
NOISE_POINTS_MAX = 2 ** 18

# rows of MuxNetwork.params, in the order the spectrum fit lays out its x
PARAM_ROWS = ("f_r_g", "f_p", "j", "kappa_p", "chi", "gamma_r", "gamma_p")


@dataclass(frozen=True)
class MuxNetwork:
    """Multiplexed channels sharing one line node and shunt."""

    channels: tuple[ReadoutChannel, ...]
    shunt: ShuntLC
    z0_line: float = 50.0

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        n = len(self.channels)
        if not 1 <= n <= MAX_CHANNELS:
            raise ValidationError(f"1 to {MAX_CHANNELS} channels supported, got {n}")
        names = [ch.name for ch in self.channels]
        if len(set(names)) != n:
            raise ValidationError("channel names must be unique")
        if not self.z0_line > 0:
            raise ValidationError("z0_line must be > 0")

    @property
    def n(self) -> int:
        return len(self.channels)

    @cached_property
    def params(self) -> np.ndarray:
        """Read-only (parameter, channel) float array; rows PARAM_ROWS (Hz)."""
        p = np.array([[getattr(ch, row) for ch in self.channels]
                      for row in PARAM_ROWS], dtype=float)
        p.flags.writeable = False
        return p

    def index(self, name: str) -> int:
        for i, ch in enumerate(self.channels):
            if ch.name == name:
                return i
        raise ValidationError(f"no channel named {name!r}")


def validate_state(net: MuxNetwork, state: str) -> str:
    state = str(state)
    if len(state) != net.n or any(c not in "ge" for c in state):
        raise ValidationError(
            f"state must be a string over {{g,e}} of length {net.n}, got {state!r}")
    return state


def shunt_reflection(shunt: ShuntLC, z0: float, f) -> complex:
    """Reflection coefficient of the lossless shunt LC; |Gamma| = 1."""
    f, scalar = _freq_array(f)
    y = shunt.admittance(f)
    return _scalar_or_array((1.0 - z0 * y) / (1.0 + z0 * y), scalar)


def _root_kappa(net: MuxNetwork) -> np.ndarray:
    """sqrt(2 pi kappa_p) per channel: each filter's coupling to the line."""
    return np.sqrt(TWO_PI * net.params[PARAM_ROWS.index("kappa_p")])


def _branch(p, state: str, f, name: str):
    """Normalized load admittance (1 - Gamma_p)/(1 + Gamma_p) of one branch.

    p is the branch's MuxNetwork.params column as floats.  Engineering-
    convention form of the input-output reflection, in angular units:
    u = kappa_p w / den with a = gamma_p - 2i Delta_p, w = gamma_r -
    2i Delta_r, j4 = 4 J^2 and den = a w + j4; a bare filter (J = 0) takes
    u = kappa_p / a, which removes the 0/0 at w = 0.  Returns (u, pole,
    terms): pole marks exact Gamma_p = -1 points, terms = (kap, a, w, j4,
    den).  A J whose square overflows raises NumericalError naming the
    channel.
    """
    f_r_g, f_p, j, kappa_p, chi, gamma_r, gamma_p = p
    f_r = f_r_g + 2.0 * chi if state == "e" else f_r_g
    try:
        j4 = 4.0 * (TWO_PI * j) ** 2
    except OverflowError:
        raise NumericalError(f"channel {name!r}: 4 J^2 overflows at "
                             f"J = {j:.6g} Hz") from None
    kap = TWO_PI * kappa_p
    a = TWO_PI * gamma_p - 2j * (TWO_PI * (f_p - f))
    w = TWO_PI * gamma_r - 2j * (TWO_PI * (f_r - f))
    den = a * w + j4
    if j4 == 0.0:
        pole = a == 0.0
        u = kap / np.where(pole, 1.0, a)
    else:
        pole = den == 0.0
        u = kap * w / np.where(pole, 1.0, den)
    return np.where(pole, np.inf + 0j, u), pole, (kap, a, w, j4, den)


def _branch_partials(p, state: str, terms) -> np.ndarray:
    """Partial derivatives of _branch's u per Hz of each parameter.

    One row per PARAM_ROWS entry, at the _branch `terms` of column p in
    `state`.  With a = gamma_p - 2i Delta_p and den = a w + 4 J^2:
    du/dw = kappa 4 J^2 / den^2, du/da = -kappa w^2 / den^2,
    du/d(4 J^2) = -kappa w / den^2 and du/dkappa = w / den.  A bare filter
    (J = 0) takes the limit u = kappa / a, which depends on neither w nor J,
    so there is no 0/0 at w = 0.  Values at pole points (den = 0) are
    placeholders: gamma_incident rejects those frequencies.
    """
    kap, a, wfac, j4, den = terms
    if j4 == 0.0:
        inv = 1.0 / np.where(a == 0.0, 1.0, a)
        du_dkap = inv
        du_da = -kap * inv * inv
        du_dw = du_dj = np.zeros_like(a)
    else:
        inv = 1.0 / np.where(den == 0.0, 1.0, den)
        du_dkap = wfac * inv
        du_da = -kap * du_dkap * du_dkap
        du_dw = kap * j4 * inv * inv
        # d(4 J^2)/dJ = 8 (2 pi)^2 J
        du_dj = -kap * du_dkap * inv * (2.0 * j4 / p[PARAM_ROWS.index("j")])
    # dw/df_r = da/df_p = -2i (2 pi); f_r = f_r_g + 2 chi in state e
    du_df_r = -2j * TWO_PI * du_dw
    return np.array([du_df_r, -2j * TWO_PI * du_da, du_dj, TWO_PI * du_dkap,
                     2.0 * du_df_r if state == "e" else np.zeros_like(a),
                     TWO_PI * du_dw, TWO_PI * du_da])


def gamma_filter(ch: ReadoutChannel, state: str, f_d) -> complex:
    """Qubit-state-dependent reflection coefficient at one filter (engineering).

    Unimodular when the internal linewidths vanish.  The exact branch pole
    (bare over-coupled filter on resonance) returns the limit value -1.
    """
    f, scalar = _freq_array(f_d)
    ch.f_r(state)  # ValidationError unless state is 'g' or 'e'
    p = [float(getattr(ch, row)) for row in PARAM_ROWS]
    u, pole, _ = _branch(p, state, f, ch.name)
    with np.errstate(invalid="ignore"):
        out = np.where(pole, -1.0 + 0j, (1.0 - u) / (1.0 + u))
    return _scalar_or_array(out, scalar)


def _reflection(p: np.ndarray, names, state: str, f: np.ndarray,
                y_shunt: np.ndarray, terms: list | None = None):
    """(Gamma, Y) of the network: Y = y_shunt + sum_j u_j at the common node.

    p has the MuxNetwork.params layout, y_shunt = z0/Z_shunt(f) + 0j.  The
    u_j are added in channel order (the reflect goldens pin that order); a
    given `terms` list collects each branch's (u, terms), else they are
    freed one channel at a time.  Raises as gamma_incident; a branch pole
    names the first such channel.
    """
    total = y_shunt
    with np.errstate(over="ignore", invalid="ignore"):
        for col, s, name in zip(p.T.tolist(), state, names):
            u, pole, t = _branch(col, s, f, name)
            if np.any(pole):
                raise CompositionPoleError(
                    f"channel {name!r} reflects with Gamma_p = -1 at the "
                    "requested frequency")
            total = total + u
            if terms is not None:
                terms.append((u, t))
            del t  # freed before the next branch: long grids stay fast
        if np.any(np.abs(1.0 + total) == 0.0):
            raise CompositionPoleError("total admittance sum hit -1 exactly")
        gam = (1.0 - total) / (1.0 + total)
    if not np.all(np.isfinite(gam)):
        raise NumericalError("reflection coefficient is not finite; a "
                             "parameter overflows the float range")
    return gam, total


def gamma_incident(net: MuxNetwork, state: str, f_d) -> complex:
    """Reflection coefficient of the full multiplexed network.

    Branch and shunt loads combine as parallel admittances:
    (1 - G)/(1 + G) = z0/Z_shunt + sum_j (1 - G_pj)/(1 + G_pj).
    A branch sitting exactly at Gamma_p = -1 makes the sum diverge and is
    reported as CompositionPoleError; a result that is not finite (parameters
    beyond the float range) as NumericalError.  Branches are evaluated one
    at a time: a (channel, frequency) broadcast is slower on long grids.
    """
    state = validate_state(net, state)
    f, scalar = _freq_array(f_d)
    y_shunt = net.z0_line * net.shunt.admittance(f) + 0j
    gam, _ = _reflection(net.params, [ch.name for ch in net.channels], state,
                         f, y_shunt)
    return _scalar_or_array(gam, scalar)


def system_matrix(net: MuxNetwork, state: str, f_d: float,
                  gamma_shunt: complex | None = None):
    """Coupled-mode matrix and drive vector, engineering convention.

    The field vector x = (p_1..p_N, r_1..r_N) evolves as
    dx/dt = i A x + d s_in(t), with A in rad/s.  A carries drive detunings
    (rotating frame at f_d) and the shunt reflection evaluated at the
    carrier; gamma_shunt overrides the shunt value.  The normal modes pass
    f_d = 0 with gamma_shunt = 1, which gives absolute frequencies.
    """
    state = validate_state(net, state)
    n = net.n
    gs = (shunt_reflection(net.shunt, net.z0_line, f_d)
          if gamma_shunt is None else complex(gamma_shunt))
    a = np.zeros((2 * n, 2 * n), dtype=complex)
    root_k = _root_kappa(net)
    a[:n, :n] = 0.25j * (1.0 + gs) * np.outer(root_k, root_k)
    # one float column per channel: scalar writes beat fancy indexing at N <= 8
    for i, (f_r_g, f_p, j, _, chi, gamma_r, gamma_p) in enumerate(
            net.params.T.tolist()):
        f_r = f_r_g + 2.0 * chi if state[i] == "e" else f_r_g
        a[i, i] += TWO_PI * (f_p - f_d) + 0.5j * TWO_PI * gamma_p
        a[n + i, n + i] = TWO_PI * (f_r - f_d) + 0.5j * TWO_PI * gamma_r
        a[i, n + i] = a[n + i, i] = TWO_PI * j
    d = np.zeros(2 * n, dtype=complex)
    d[:n] = 0.5 * (1.0 + gs) * root_k
    return a, d


@dataclass(frozen=True)
class PulseSegment:
    """One envelope piece: hold `amplitude` for `duration`.

    edge "flat" holds the value; edge "raised_cosine" ramps from the previous
    segment's amplitude (or 0 at the start) to `amplitude` over the segment.
    Amplitudes are in sqrt(photons/s).
    """

    duration: float
    amplitude: complex
    edge: str = "flat"

    def __post_init__(self):
        if not self.duration > 0:
            raise ValidationError("segment duration must be > 0")
        if not np.isfinite(self.amplitude):
            raise ValidationError("segment amplitude must be finite")
        if self.edge not in ("flat", "raised_cosine"):
            raise ValidationError(f"unknown edge shape {self.edge!r}")


@dataclass(frozen=True)
class DrivePulse:
    """Carrier frequency plus a piecewise envelope."""

    f_d: float
    segments: tuple[PulseSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.f_d > 0:
            raise ValidationError("carrier frequency must be > 0")
        if not self.segments:
            raise ValidationError("pulse needs at least one segment")

    @property
    def duration(self) -> float:
        return sum(s.duration for s in self.segments)

    @classmethod
    def rectangular(cls, f_d: float, amplitude: complex,
                    duration: float) -> "DrivePulse":
        return cls(f_d, (PulseSegment(duration, amplitude),))

    @classmethod
    def two_step(cls, f_d: float, plateau_amplitude: complex,
                 plateau_duration: float, overshoot: float = 1.375,
                 flat_top: float = 14e-9, edge: float = 6e-9,
                 tail: float = 0.0) -> "DrivePulse":
        """Boosted two-step readout pulse.

        Raised-cosine rise to overshoot*plateau, a short flat top, a
        raised-cosine step down to the plateau, then the plateau itself (and
        an optional ring-down tail at zero drive).
        """
        if not 1.35 <= overshoot <= 1.4:
            raise ValidationError("overshoot ratio must lie in [1.35, 1.4]")
        a = complex(plateau_amplitude)
        segs = [
            PulseSegment(edge, overshoot * a, "raised_cosine"),
            PulseSegment(flat_top, overshoot * a, "flat"),
            PulseSegment(edge, a, "raised_cosine"),
            PulseSegment(plateau_duration, a, "flat"),
        ]
        if tail > 0:
            segs.append(PulseSegment(edge, 0.0, "raised_cosine"))
            segs.append(PulseSegment(tail, 0.0, "flat"))
        return cls(f_d, tuple(segs))

    def envelope(self, t):
        """Complex drive amplitude at time(s) t.

        Segments are half-open on the right; the value at exactly
        t = duration is the final segment amplitude (left-continuous end).
        Zero outside [0, duration].
        """
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros(t.shape, dtype=complex)
        t0 = 0.0
        prev = 0.0 + 0.0j
        for seg in self.segments:
            t1 = t0 + seg.duration
            m = (t >= t0) & (t < t1)
            if seg.edge == "flat":
                out[m] = seg.amplitude
            else:
                tau = (t[m] - t0) / seg.duration
                out[m] = prev + (seg.amplitude - prev) * 0.5 * (1 - np.cos(np.pi * tau))
            prev = complex(seg.amplitude)
            t0 = t1
        out[t == t0] = prev
        out[t > t0] = 0.0
        return _scalar_or_array(out, scalar)

    def sample_intervals(self):
        """Piecewise-constant sampling of the envelope.

        Returns arrays (t0, t1, amplitude), one entry per interval, covering
        [0, duration); raised-cosine edges are subdivided at <= 0.1 ns.  Each
        amplitude is `envelope` at the interval midpoint (t0 + t1) / 2.
        """
        starts, ends, t0 = [], [], 0.0
        for seg in self.segments:
            nsub = 1 if seg.edge == "flat" else max(
                1, math.ceil(seg.duration / EDGE_SAMPLE_MAX_S))
            k, h = np.arange(nsub), seg.duration / nsub
            starts.append(t0 + k * h)
            ends.append(t0 + (k + 1) * h)
            t0 += seg.duration
        t0s, t1s = np.concatenate(starts), np.concatenate(ends)
        return t0s, t1s, self.envelope(0.5 * (t0s + t1s))


@dataclass(frozen=True)
class FieldTraces:
    """Propagated mode amplitudes and output field on a uniform time grid."""

    t: np.ndarray          # (T,) seconds
    p: np.ndarray          # (N, T) filter amplitudes
    r: np.ndarray          # (N, T) readout amplitudes
    s_out: np.ndarray      # (T,)
    f_d: float
    state: str

    def __post_init__(self):
        if not np.all(np.diff(self.t) > 0):
            raise ValidationError("time grid must be strictly increasing")
        nt = self.t.size
        for name in ("p", "r", "s_out"):
            if getattr(self, name).shape[-1] != nt:
                raise ValidationError(f"{name} length must match the grid")


def _check_passivity(net: MuxNetwork, a: np.ndarray):
    """(lam, V) of a passive matrix: no Im lambda < -1e-6 max 2 pi kappa_p."""
    tol = 1e-6 * float(np.max(TWO_PI * net.params[PARAM_ROWS.index("kappa_p")]))
    # eigenvalues are good to about eps * max|A|; past the tolerance (or
    # with inf/nan entries) rounding decides the sign of Im lambda
    scale = float(np.max(np.abs(a)))
    if not np.finfo(float).eps * scale < tol:
        raise NumericalError(
            f"system matrix entries reach {scale:.3g} rad/s, too large to "
            "resolve its eigenvalues; a parameter overflows the float range")
    lam, vec = np.linalg.eig(a)
    if not np.all(np.isfinite(lam)):
        raise NumericalError("system matrix eigenvalues are not finite")
    if np.min(lam.imag) < -tol:
        raise PassivityError(
            f"system matrix has a growing mode (Im lambda = {np.min(lam.imag):.3g})")
    return lam, vec


def propagate(net: MuxNetwork, state: str | Sequence[str], pulse: DrivePulse,
              dt_out: float) -> FieldTraces | tuple[FieldTraces, ...]:
    """Integrate the driven coupled-mode equations from zero initial state.

    The system is linear and time-invariant within each envelope sample.
    With i A = V diag(mu) V^-1 and b = V^-1 d, each step of length h is
    diagonal in modal coordinates y = V^-1 x,
    y <- e^(mu h) y + (e^(mu h) - 1) / mu * b u, so there is no step-size
    error beyond the piecewise-constant envelope sampling.  NumericalError
    when cond(V) exceeds COND_MAX (near an exceptional point).  A sequence
    of states gives a tuple of FieldTraces in its order, computed together;
    each is bit-identical to propagating its state alone.
    """
    scalar = isinstance(state, str)
    states = [validate_state(net, s) for s in ([state] if scalar else state)]
    if not states:
        raise ValidationError("propagate needs at least one state")
    if not dt_out > 0:
        raise ValidationError("dt_out must be > 0")
    t_end = pulse.duration
    # an upper bound on the steps (output samples plus edge subdivisions),
    # in floats: no array or sample generator runs past the cap
    n_edge = sum(s.duration / EDGE_SAMPLE_MAX_S + 1
                 for s in pulse.segments if s.edge != "flat")
    n_steps = t_end / dt_out + n_edge + len(pulse.segments) + 2
    if not n_steps <= MAX_SAMPLES:
        raise ValidationError(
            f"a {t_end:.3g} s pulse at dt_out = {dt_out:.3g} s needs up to "
            f"{n_steps:.3g} time steps; the limit is {MAX_SAMPLES}")
    systems = [system_matrix(net, s, pulse.f_d) for s in states]
    eigs = [_check_passivity(net, a) for a, _ in systems]
    for _, vec in eigs:
        cond = np.linalg.cond(vec)
        if not cond <= COND_MAX:
            raise NumericalError(
                f"system matrix eigenvectors have cond(V) = {cond:.3g} > "
                f"{COND_MAX:.0e}: too close to an exceptional point to "
                "propagate in modal coordinates")
    mu = 1j * np.array([lam for lam, _ in eigs])                  # (S, 2N)
    vecs = np.array([vec for _, vec in eigs])                     # (S, 2N, 2N)
    b = np.array([np.linalg.solve(vec, d)
                  for (_, vec), (_, d) in zip(eigs, systems)])    # (S, 2N)
    n, dim = net.n, 2 * net.n

    n_out = int(math.floor(t_end / dt_out + 1e-9))
    out_times = np.arange(n_out + 1) * dt_out
    if out_times[-1] < t_end - 1e-15:
        out_times = np.append(out_times, t_end)

    # merge envelope-sample boundaries with output times
    starts, ends, amps = pulse.sample_intervals()
    cuts = np.unique(np.concatenate([out_times, starts, ends]))
    cuts = cuts[(cuts >= 0) & (cuts <= t_end + 1e-15)]
    cuts = cuts[np.insert(np.diff(cuts) > 1e-15, 0, True)]
    hs = np.diff(cuts)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    us = amps[np.maximum(np.searchsorted(starts, mids, side="right") - 1, 0)]

    # per-step factors once per state and step length rounded to 1e-18 s,
    # from its first step: step k applies decay[:, which[k]] and
    # drive[:, which[k]] * us[k]; mu = 0 takes the limit h
    _, first, which = np.unique(np.round(hs, 18), return_index=True,
                                return_inverse=True)
    h = hs[first][:, None]
    muh = mu[:, None, :] * h                                      # (S, U, 2N)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(muh == 0, h, np.expm1(muh) / mu[:, None, :])
    decay, drive = np.exp(muh), phi * b[:, None, :]

    # y_k = decay_k y_(k-1) + c_k in blocks of steps: y = P (y0 + cumsum(c/P))
    # with P = cumprod(decay) over the block.  Im trace A bounds every mode's
    # decay rate whatever the qubit states, so the blocks are the same for
    # every state set: each decays by at most e^BLOCK_DECAY_MAX, and a
    # longer step is a block of one, y = decay y0 + c.
    rate = float(np.trace(systems[0][0]).imag)
    decayed = np.cumsum(rate * hs)
    ys = np.empty((len(states), hs.size, dim), dtype=complex)
    y = np.zeros((len(states), dim), dtype=complex)
    k0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k0 < hs.size:
            reach = (decayed[k0 - 1] if k0 else 0.0) + BLOCK_DECAY_MAX
            k1 = min(max(int(np.searchsorted(decayed, reach, side="right")),
                         k0 + 1), k0 + BLOCK_STEPS)
            step = which[k0:k1]
            c = drive[:, step] * us[k0:k1, None]
            if k1 == k0 + 1:
                ys[:, k0] = decay[:, step[0]] * y + c[:, 0]
            else:
                p = np.cumprod(decay[:, step], axis=1)
                ys[:, k0:k1] = p * (y[:, None] + np.cumsum(c / p, axis=1))
            y = ys[:, k1 - 1]
            k0 = k1
        # an output time takes the state after the first step that reaches
        # it; one rounded past t_end takes the state at the end of the pulse
        reached = np.minimum(np.searchsorted(cuts[1:] + 1e-15, out_times[1:]),
                             hs.size - 1)
        fields = np.zeros((len(states), out_times.size, dim), dtype=complex)
        fields[:, 1:] = np.take(ys, reached, axis=1) @ vecs.swapaxes(1, 2)
        gs = shunt_reflection(net.shunt, net.z0_line, pulse.f_d)
        s_in = np.asarray(pulse.envelope(out_times), dtype=complex)
        root_k = _root_kappa(net)
        s_out = [gs * s_in - 0.5 * (1.0 + gs) * (root_k @ f[:, :n].T)
                 for f in fields]
    if not (np.all(np.isfinite(fields)) and np.all(np.isfinite(s_out))):
        raise NumericalError("propagated field traces are not finite; a "
                             "parameter or the drive overflows the float range")
    traces = tuple(FieldTraces(t=out_times, p=f[:, :n].T, r=f[:, n:].T,
                               s_out=s_o, f_d=pulse.f_d, state=s)
                   for f, s_o, s in zip(fields, s_out, states))
    return traces[0] if scalar else traces


def steady_state(net: MuxNetwork, state: str, f_d: float,
                 s_in: complex = 1.0) -> np.ndarray:
    """Steady-state field vector (p, r) under a constant drive."""
    a, d = system_matrix(net, state, f_d)
    try:
        return np.linalg.solve(1j * a, -d * s_in)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"steady state singular at f_d = {f_d}") from exc


@dataclass(frozen=True)
class NormalMode:
    """One hybridized mode: absolute frequency, external linewidth, identity."""

    channel: str
    character: str          # "readout" | "filter"
    f_hz: float
    kappa_hz: float
    weight: float           # eigenvector weight on the owning channel


def _eigensolve(net: MuxNetwork, state: str):
    a, _ = system_matrix(net, state, 0.0, gamma_shunt=1.0)
    lam, vec = _check_passivity(net, a)
    return lam, vec / np.linalg.norm(vec, axis=0, keepdims=True)


def _channel_weights(net: MuxNetwork, vec: np.ndarray) -> np.ndarray:
    n = net.n
    w = np.abs(vec[:n, :]) ** 2 + np.abs(vec[n:, :]) ** 2
    return w.T  # (mode, channel)


def _greedy_match(score: np.ndarray, cap: int) -> np.ndarray:
    """Greedy assignment of rows to columns by descending score.

    Each row takes at most one column and each column at most cap rows;
    equal scores go to the lower (row, column) first.  Returns the column of
    each row (an integer array), -1 where none is left.
    """
    n_cols = score.shape[1]
    match = [-1] * score.shape[0]
    left = [cap] * n_cols
    # a stable sort of the row-major flat index keeps (row, column) tie order
    for flat in np.argsort(-score, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n_cols)
        if match[i] < 0 and left[j] > 0:
            match[i] = j
            left[j] -= 1
    return np.array(match)


def _assign_channels(weights: np.ndarray) -> np.ndarray:
    """Greedy capacity-2 assignment of modes to channels by descending weight."""
    assigned = _greedy_match(weights, 2)
    for k in np.flatnonzero(assigned != np.argmax(weights, axis=1)).tolist():
        warnings.warn(
            f"ambiguous mode-to-channel assignment for mode {k}: weights "
            f"{np.round(weights[k], 6).tolist()}", stacklevel=4)
    return assigned


def _flip(state: str, idx: int) -> str:
    flipped = "e" if state[idx] == "g" else "g"
    return state[:idx] + flipped + state[idx + 1:]


def _owned_modes(net: MuxNetwork, state: str):
    """Modes of `state`: (lam, unit eigenvectors, channel weights, owner)."""
    lam, vec = _eigensolve(net, state)
    weights = _channel_weights(net, vec)
    return lam, vec, weights, _assign_channels(weights)


def normal_modes(net: MuxNetwork, state: str) -> list[NormalMode]:
    """Hybridized modes of the drive-free network (shunt reflection set to 1).

    Modes pair to channels by eigenvector weight.  Within a channel the
    readout-like mode is the one with the larger eigenvector weight on that
    channel's readout resonator: that share of the mode carries the qubit's
    dispersive shift.
    """
    state = validate_state(net, state)
    lam, vec, weights, owner = _owned_modes(net, state)
    modes: list[NormalMode] = []
    for j, ch in enumerate(net.channels):
        members = sorted(np.flatnonzero(owner == j).tolist(),
                         key=lambda k: -abs(vec[net.n + j, k]))
        for rank, k in enumerate(members):
            modes.append(NormalMode(
                channel=ch.name,
                character="readout" if rank == 0 else "filter",
                f_hz=lam[k].real / TWO_PI,
                kappa_hz=2.0 * lam[k].imag / TWO_PI,
                weight=float(weights[k, j]),
            ))
    return modes


def mode_dispersive_shifts(net: MuxNetwork, target: str) -> tuple[float, float]:
    """(chi_r, chi_p) of the hybridized modes for the target channel (Hz).

    Computed as half the frequency change of each mode when only the target
    qubit goes from g to e (others in g), each mode matched by overlap.
    """
    idx = net.index(target)
    state = "g" * net.n
    lam, vec, _, owner = _owned_modes(net, state)
    lam_f, vec_f = _eigensolve(net, _flip(state, idx))
    match = _greedy_match(np.abs(vec.conj().T @ vec_f), 1)
    mine = owner == idx
    chi = (lam_f.real[match[mine]] - lam.real[mine]) / 2.0 / TWO_PI
    chi_r, chi_p = chi[np.argsort(-np.abs(chi), kind="stable")]
    return chi_r, chi_p


@dataclass(frozen=True)
class SeparationResult:
    """Qubit-state output-field separation for a target channel."""

    t: np.ndarray
    s: np.ndarray             # |s_out^e - s_out^g| (t)
    s_target_only: np.ndarray  # single-channel approximation of s
    s_ss: float               # steady-state separation at the plateau drive
    gamma_m: float            # measurement-induced dephasing rate S_ss^2/2 (1/s)
    traces_g: FieldTraces
    traces_e: FieldTraces


def separation(net: MuxNetwork, target: str, pulse: DrivePulse,
               dt_out: float = 0.5e-9) -> SeparationResult:
    """Output-field separation S(t) between target-qubit g and e preparations.

    Two propagations differ only in the target qubit state (others in g).
    s is the exact output-field difference; s_target_only keeps only the
    target channel's filter amplitude and is accurate when spectator
    channels respond identically.  The steady-state value comes from the
    frequency domain, S_ss = |s_in| |Gamma^e - Gamma^g| at the carrier.
    """
    idx = net.index(target)
    state_g = "g" * net.n
    state_e = _flip(state_g, idx)
    # the cheap frequency-domain values first: they fail fast on overflow
    g_g = gamma_incident(net, state_g, pulse.f_d)
    g_e = gamma_incident(net, state_e, pulse.f_d)
    # plateau amplitude: the last segment that actually drives the network
    amp_ss = next((seg.amplitude for seg in reversed(pulse.segments)
                   if abs(seg.amplitude) > 0), 0.0)
    s_ss = abs(amp_ss) * abs(g_e - g_g)
    with np.errstate(over="ignore"):
        gamma_m = float(0.5 * np.float64(s_ss) ** 2)
    if gamma_m == math.inf:
        raise NumericalError(f"Gamma_m = S_ss^2/2 overflows: S_ss = {s_ss:.6g} "
                             f"at plateau amplitude {abs(amp_ss):.6g}")
    tr_g, tr_e = propagate(net, (state_g, state_e), pulse, dt_out)
    s = np.abs(tr_e.s_out - tr_g.s_out)
    gs = shunt_reflection(net.shunt, net.z0_line, pulse.f_d)
    root_k = _root_kappa(net)[idx]
    s_single = abs(0.5 * (1.0 + gs)) * root_k * np.abs(tr_e.p[idx] - tr_g.p[idx])
    return SeparationResult(t=tr_g.t, s=s, s_target_only=s_single, s_ss=s_ss,
                            gamma_m=gamma_m, traces_g=tr_g, traces_e=tr_e)


def _contrast(net: MuxNetwork, idx: int, f: np.ndarray) -> np.ndarray:
    """|Gamma^e - Gamma^g|^2 at f with channel idx in e, from N + 1 branches:
    Gamma^g as gamma_incident computes it, Y^e = Y^g - u_g + u_e.  Raises as
    gamma_incident."""
    names, branches = [ch.name for ch in net.channels], []
    gam_g, y_g = _reflection(net.params, names, "g" * net.n, f,
                             net.z0_line * net.shunt.admittance(f) + 0j,
                             branches)
    gam_e, _ = _reflection(net.params[:, idx:idx + 1], names[idx:idx + 1],
                           "e", f, y_g - branches[idx][0])
    return np.abs(gam_e - gam_g) ** 2


def noise_photon_bound(net: MuxNetwork, target: str, gamma_phi: float) -> float:
    """Readout-resonator noise photons explaining a pure dephasing rate.

    n = 2 Gamma_phi / Int |Gamma^e(f) - Gamma^g(f)|^2 df over every mode +-
    20 filter linewidths, on Gauss-Kronrod 7/15 panels whose edges start at
    the poles of the all-g and the flipped system matrices.  A panel is
    halved while its half-width passes NOISE_PANEL_RHO times its centre's
    distance to the nearest pole (at least NOISE_POLE_FLOOR of the window),
    then while QUADPACK's error estimate passes NOISE_RTOL of its value plus
    its width's share of the integral; NumericalError past NOISE_POINTS_MAX
    points.  Agrees with scipy's quad to 1e-12 on the paper device.
    """
    if not 0.0 <= gamma_phi < math.inf:
        raise ValidationError("gamma_phi must be finite and >= 0")
    if gamma_phi == 0.0:
        return 0.0
    idx = net.index(target)
    if 0.0 in (net.channels[idx].j, net.channels[idx].chi):  # no contrast
        raise SingularSystemError(
            "reflection contrast integral vanishes; bound is unbounded")
    margin = 20.0 * net.params[PARAM_ROWS.index("kappa_p")].max()
    lo, hi = net.params[:2].min() - margin, net.params[:2].max() + margin
    m = np.array([system_matrix(net, s, 0.0, gamma_shunt=1.0)[0]
                  for s in ("g" * net.n, _flip("g" * net.n, idx))])
    if not np.all(np.isfinite(m)):
        raise NumericalError("system matrix overflows the float range")
    poles = np.linalg.eigvals(m).ravel() / TWO_PI
    edges = np.unique(np.clip(np.append(poles.real, (lo, hi)), lo, hi))
    # panels [a, b] share their edges: halving keeps the window tiled exactly
    a, b, graded = edges[:-1], edges[1:], []
    floor = NOISE_POLE_FLOOR * (hi - lo)
    while a.size:
        c = 0.5 * (a + b)
        fine = b - a <= 2.0 * NOISE_PANEL_RHO * np.maximum(
            np.abs(c[:, None] - poles).min(axis=1), floor)
        graded.append((a[fine], b[fine]))
        a, b = (np.concatenate((a[~fine], c[~fine])),
                np.concatenate((c[~fine], b[~fine])))
    a, b = np.concatenate(graded, axis=1)
    x, wk, wg = np.array(_GK15).T
    nodes, w = np.concatenate((-x, x[-2::-1])), np.stack((wk, wk - wg), 1)
    weights = np.concatenate((w, w[-2::-1]))  # Kronrod, Kronrod - Gauss
    val, points = 0.0, 0
    while a.size:
        points += a.size * nodes.size
        if points > NOISE_POINTS_MAX:
            raise NumericalError("reflection contrast integral not converged "
                                 f"on {NOISE_POINTS_MAX} points")
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        y = _contrast(net, idx, c[:, None] + h[:, None] * nodes)
        k, diff = h * (y @ weights).T
        # QUADPACK's qk15 estimate: |K - G| scaled by the integrand's spread
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = h * (np.abs(y - (0.5 * k / h)[:, None]) @ weights[:, 0])
            err = spread * np.fmin(1.0, 200.0 * np.abs(diff) / spread) ** 1.5
        bad = err > NOISE_RTOL * (k + (val + k.sum()) * (b - a) / (hi - lo))
        val += k[~bad].sum()
        a, b = np.concatenate((a[bad], c[bad])), np.concatenate((c[bad], b[bad]))
    if val < 1e-30:
        raise SingularSystemError(
            "reflection contrast integral vanishes; bound is unbounded")
    return 2.0 * gamma_phi / val


def critical_photon(g: float, f_q: float, f_r: float) -> float:
    """Critical photon number ((f_r - f_q)/(2 g))^2 of the dispersive regime."""
    if not g > 0:
        raise ValidationError("g must be > 0")
    if not (math.isfinite(f_q) and math.isfinite(f_r)) or f_q == f_r:
        raise ValidationError("f_q and f_r must be finite and differ")
    return ((f_r - f_q) / (2.0 * g)) ** 2
