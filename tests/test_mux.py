import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from conftest import NOISE_PHOTON_BOUNDS, QUBIT_TABLE, TABLE_MODES
import notchlab.mux
from notchlab import (CompositionPoleError, DrivePulse, MuxNetwork,
                      NormalMode, NumericalError, PassivityError,
                      PulseSegment, QubitCoupling,
                      ReadoutChannel, ShuntLC, ValidationError,
                      critical_photon,
                      drive_for_photon_number, enhancement_factor,
                      equivalent_pair, gamma_filter, gamma_incident,
                      mode_dispersive_shifts, noise_photon_bound,
                      normal_modes, propagate, separation, shunt_reflection,
                      steady_state, system_matrix, t1_purcell, two_port_z,
                      z21_capacitive, z21_general)
from notchlab.mux import (_channel_weights, _check_passivity, _eigensolve,
                          _flip, _greedy_match)

TWO_PI = 2 * math.pi
PAPER_SHUNT = ShuntLC(c_shunt=230e-15, l_shunt=1.01e-9)


def single_channel_net(j=39.4e6, kappa=81.4e6, chi=-9.9e6, gamma_r=0.0,
                       gamma_p=0.0):
    ch = ReadoutChannel(name="Q", f_r_g=10386e6, chi=chi, f_p=10407e6,
                        j=j, kappa_p=kappa, gamma_r=gamma_r, gamma_p=gamma_p)
    return MuxNetwork(channels=(ch,), shunt=PAPER_SHUNT, z0_line=50.0)


class TestShuntReflection:
    def test_unimodular(self):
        rng = np.random.default_rng(0)
        fs = rng.uniform(1e9, 20e9, 1000)
        gam = shunt_reflection(PAPER_SHUNT, 50.0, fs)
        assert np.max(np.abs(np.abs(gam) - 1.0)) < 1e-12

    def test_screening_frequency_reflects_fully(self):
        gam = shunt_reflection(PAPER_SHUNT, 50.0, PAPER_SHUNT.f_screen)
        assert abs(gam - 1.0) < 1e-6
        # and still within 1e-3 at the rounded 10.44 GHz
        assert abs(shunt_reflection(PAPER_SHUNT, 50.0, 10.44e9) - 1.0) < 1e-3

    def test_low_frequency_inductive_short(self):
        gam = shunt_reflection(PAPER_SHUNT, 50.0, 1e3)
        assert gam == pytest.approx(-1.0, abs=1e-6)


class TestGammaFilter:
    def test_passivity_sweep(self, mux_net):
        fs = np.linspace(10.0e9, 10.9e9, 2001)
        for ch in mux_net.channels:
            for state in "ge":
                gam = gamma_filter(ch, state, fs)
                assert np.max(np.abs(np.abs(gam) - 1.0)) < 1e-12

    def test_kappa_to_zero_decouples(self):
        ch = ReadoutChannel("q", 10.4e9, -8e6, 10.42e9, 30e6, kappa_p=1.0)
        for f in (10.3e9, 10.42e9, 10.5e9):
            assert gamma_filter(ch, "g", f) == pytest.approx(1.0, abs=1e-5)

    def test_bare_filter_full_phase_flip(self):
        ch = ReadoutChannel("q", 10.4e9, -8e6, 10.42e9, j=0.0, kappa_p=80e6)
        assert gamma_filter(ch, "g", 10.42e9) == pytest.approx(-1.0, abs=1e-12)

    def test_internal_loss_subunitary(self):
        ch = ReadoutChannel("q", 10.4e9, -8e6, 10.42e9, 30e6, kappa_p=80e6,
                            gamma_p=2e6)
        assert abs(gamma_filter(ch, "g", 10.42e9)) < 1.0


class TestGammaIncident:
    def test_reduces_to_shunt_when_decoupled(self, mux_net):
        weak = MuxNetwork(
            channels=tuple(
                ReadoutChannel(c.name, c.f_r_g, c.chi, c.f_p, c.j, 1e-3)
                for c in mux_net.channels),
            shunt=mux_net.shunt, z0_line=mux_net.z0_line)
        f = 10.5e9
        assert gamma_incident(weak, "gggg", f) == pytest.approx(
            shunt_reflection(mux_net.shunt, 50.0, f), abs=1e-6)

    def test_unitary_for_all_joint_states(self, mux_net):
        fs = np.linspace(10.0e9, 10.9e9, 101)
        for bits in itertools.product("ge", repeat=4):
            state = "".join(bits)
            gam = gamma_incident(mux_net, state, fs)
            assert np.max(np.abs(np.abs(gam) - 1.0)) < 1e-9

    def test_composition_pole_reported(self):
        net = single_channel_net(j=0.0)
        with pytest.raises(CompositionPoleError):
            gamma_incident(net, "g", net.channels[0].f_p)

    def test_phase_structure_matches_modes(self, mux_net):
        # the dense phase scan shows an 8 x 2pi winding and the steepest
        # phase slope sits at each readout-mode frequency
        fs = np.linspace(10.0e9, 10.9e9, 36001)
        ph = np.unwrap(np.angle(gamma_incident(mux_net, "gggg", fs)))
        winding = abs(ph[-1] - ph[0]) / (2 * math.pi)
        assert 7.0 <= winding <= 9.0
        modes = {m.channel: m.f_hz for m in normal_modes(mux_net, "gggg")
                 if m.character == "readout"}
        dph = np.gradient(ph, fs)
        for name, f_ro in modes.items():
            window = (fs > f_ro - 20e6) & (fs < f_ro + 20e6)
            f_steep = fs[window][np.argmin(dph[window])]
            assert abs(f_steep - f_ro) < 3e6, name


class TestSystemMatrix:
    def test_single_channel_reduction(self):
        net = single_channel_net()
        ch = net.channels[0]
        a, d = system_matrix(net, "g", f_d=10.4e9, gamma_shunt=1.0)
        # filter diagonal: detuning + i kappa/2 (engineering sign)
        expect = TWO_PI * (ch.f_p - 10.4e9) + 0.5j * TWO_PI * ch.kappa_p
        assert a[0, 0] == pytest.approx(expect, rel=1e-12)
        assert a[0, 1] == pytest.approx(TWO_PI * ch.j, rel=1e-12)
        assert a[1, 0] == pytest.approx(TWO_PI * ch.j, rel=1e-12)
        assert a[1, 1] == pytest.approx(TWO_PI * (ch.f_r_g - 10.4e9), rel=1e-12)
        assert d[0] == pytest.approx(math.sqrt(TWO_PI * ch.kappa_p), rel=1e-12)
        assert d[1] == 0.0

    def test_state_shifts_readout_block(self, mux_net):
        a_g, _ = system_matrix(mux_net, "gggg", 10.4e9)
        a_e, _ = system_matrix(mux_net, "gegg", 10.4e9)
        delta = a_e - a_g
        n = mux_net.n
        expected = np.zeros_like(delta)
        expected[n + 1, n + 1] = TWO_PI * 2 * mux_net.channels[1].chi
        assert np.allclose(delta, expected)

    def test_growing_mode_fails_passivity(self):
        # dx/dt = i A x grows when Im lambda < 0 (engineering sign)
        net = single_channel_net()
        kappa = TWO_PI * net.channels[0].kappa_p
        _check_passivity(net, np.diag([0.5j * kappa, 0.0]))  # decay, lossless
        with pytest.raises(PassivityError, match="growing mode"):
            _check_passivity(net, np.diag([0.5j * kappa, -0.5j * kappa]))

    def test_j_block_diagonal(self, mux_net):
        a, _ = system_matrix(mux_net, "gggg", 10.4e9)
        n = mux_net.n
        j_block = a[:n, n:]
        assert np.allclose(np.diag(np.diag(j_block)), j_block)
        assert np.allclose(np.diag(j_block),
                           [TWO_PI * c.j for c in mux_net.channels])


class TestPropagate:
    def test_zero_drive_stays_zero(self, mux_net):
        pulse = DrivePulse.rectangular(10.36e9, 0.0, 50e-9)
        tr = propagate(mux_net, "gggg", pulse, 1e-9)
        assert np.all(tr.p == 0) and np.all(tr.r == 0)
        assert np.all(tr.s_out == 0)

    def test_converges_to_steady_state(self, mux_net):
        f_d = 10.357e9
        pulse = DrivePulse.rectangular(f_d, 2.0e6, 2000e-9)
        tr = propagate(mux_net, "gggg", pulse, 2e-9)
        x_end = np.concatenate([tr.p[:, -1], tr.r[:, -1]])
        x_ss = steady_state(mux_net, "gggg", f_d, 2.0e6)
        assert np.linalg.norm(x_end - x_ss) / np.linalg.norm(x_ss) < 1e-6

    def test_frequency_time_consistency_all_channels_states(self, mux_net):
        f_d = 10.52e9
        pulse = DrivePulse.rectangular(f_d, 1.0e6, 1500e-9)
        for state in ("gggg", "eegg", "geeg", "eeee"):
            tr = propagate(mux_net, state, pulse, 5e-9)
            x_end = np.concatenate([tr.p[:, -1], tr.r[:, -1]])
            x_ss = steady_state(mux_net, state, f_d, 1.0e6)
            assert np.linalg.norm(x_end - x_ss) / np.linalg.norm(x_ss) < 1e-6

    def test_energy_balance_on_ringdown(self):
        # with the drive off, loss through the line must account for the
        # full decay of the stored photon number; gamma = 0, shunt at its
        # screening frequency so Gamma_shunt = 1
        net = single_channel_net()
        f_d = PAPER_SHUNT.f_screen
        pulse = DrivePulse(f_d, (PulseSegment(40e-9, 3e6),
                                 PulseSegment(60e-9, 0.0)))
        dt = 0.01e-9
        tr = propagate(net, "g", pulse, dt)
        energy = np.sum(np.abs(tr.p) ** 2, axis=0) + \
            np.sum(np.abs(tr.r) ** 2, axis=0)
        # five-point stencil derivative on the ringdown section
        i0 = np.searchsorted(tr.t, 45e-9)
        i1 = np.searchsorted(tr.t, 95e-9)
        for k in range(i0, i1, 50):
            de = (energy[k - 2] - 8 * energy[k - 1] + 8 * energy[k + 1]
                  - energy[k + 2]) / (12 * dt)
            flux = -np.abs(tr.s_out[k]) ** 2
            assert de == pytest.approx(flux, rel=1e-6)

    def test_transient_reaches_steady_state_fast(self, mux_net):
        f_d = QUBIT_TABLE["Q2"][6] * 1e6
        pulse = DrivePulse.rectangular(f_d, 1e6, 100e-9)
        res = separation(mux_net, "Q2", pulse, 0.25e-9)
        t90 = res.t[np.argmax(res.s >= 0.9 * res.s_ss)]
        assert t90 < 60e-9
        assert 20e-9 < t90  # a transient of tens of ns, per the experiment

    def test_edge_sampling_density(self):
        pulse = DrivePulse.two_step(10.36e9, 1e6, 30e-9)
        edges = [iv for iv in pulse.sample_intervals()
                 if iv[1] - iv[0] <= 0.1e-9 + 1e-15]
        assert len(edges) >= 120  # two 6 ns edges at <= 0.1 ns per sample

    def test_passivity_guard(self):
        net = single_channel_net()
        pulse = DrivePulse.rectangular(10.4e9, 1e6, 10e-9)
        tr = propagate(net, "g", pulse, 1e-9)  # fine
        assert tr.t[-1] == pytest.approx(10e-9, rel=1e-12)


class TestSeparation:
    def test_zero_drive_zero_separation(self, mux_net):
        pulse = DrivePulse.rectangular(10.36e9, 0.0, 30e-9)
        res = separation(mux_net, "Q2", pulse, 1e-9)
        assert np.all(res.s == 0)

    def test_linear_in_drive(self, mux_net):
        f_d = 10.357e9
        r1 = separation(mux_net, "Q2",
                        DrivePulse.rectangular(f_d, 1e6, 60e-9), 1e-9)
        r2 = separation(mux_net, "Q2",
                        DrivePulse.rectangular(f_d, 2e6, 60e-9), 1e-9)
        assert np.allclose(r2.s, 2 * r1.s, rtol=1e-9, atol=1e-12)
        assert r2.s_ss == pytest.approx(2 * r1.s_ss, rel=1e-12)

    def test_steady_state_matches_frequency_domain(self, mux_net):
        f_d = 10.357e9
        pulse = DrivePulse.rectangular(f_d, 1.5e6, 2500e-9)
        res = separation(mux_net, "Q2", pulse, 5e-9)
        # propagated separation converges to the reflection-contrast value
        assert res.s[-1] == pytest.approx(res.s_ss, rel=1e-6)
        g_g = gamma_incident(mux_net, "gggg", f_d)
        g_e = gamma_incident(mux_net, "gegg", f_d)
        assert res.s_ss == pytest.approx(1.5e6 * abs(g_e - g_g), rel=1e-12)
        assert res.gamma_m == pytest.approx(0.5 * res.s_ss ** 2, rel=1e-12)

    def test_plateau_steady_state_with_ringdown_tail(self, mux_net):
        # a zero-amplitude tail must not zero out the plateau steady state
        f_d = 10.357e9
        pulse = DrivePulse.two_step(f_d, 1e6, 40e-9, tail=30e-9)
        res = separation(mux_net, "Q2", pulse, 1e-9)
        g_g = gamma_incident(mux_net, "gggg", f_d)
        g_e = gamma_incident(mux_net, "gegg", f_d)
        assert res.s_ss == pytest.approx(1e6 * abs(g_e - g_g), rel=1e-12)

    def test_target_only_approximation_close(self, mux_net):
        f_d = 10.357e9
        pulse = DrivePulse.rectangular(f_d, 1e6, 300e-9)
        res = separation(mux_net, "Q2", pulse, 1e-9)
        # spectator channels contribute about 1% here
        tail = slice(-50, None)
        rel = np.abs(res.s_target_only[tail] - res.s[tail]) / res.s[tail]
        assert np.max(rel) < 0.05


class TestNormalModes:
    def test_table_reproduction_all_g(self, mux_net):
        modes = {(m.channel, m.character): m
                 for m in normal_modes(mux_net, "gggg")}
        for name, (f_r, f_p, k_r_g, _k_r_e, k_p_g, _cr, _cp) in \
                TABLE_MODES.items():
            mr = modes[(name, "readout")]
            mp = modes[(name, "filter")]
            assert abs(mr.f_hz - f_r * 1e6) < 5e6
            assert abs(mp.f_hz - f_p * 1e6) < 5e6
            assert abs(mr.kappa_hz - k_r_g * 1e6) < 5e6
            assert abs(mp.kappa_hz - k_p_g * 1e6) < 5e6

    def test_kappa_r_excited_column(self, mux_net):
        for i, (name, row) in enumerate(TABLE_MODES.items()):
            state = "".join("e" if j == i else "g" for j in range(4))
            modes = {(m.channel, m.character): m
                     for m in normal_modes(mux_net, state)}
            assert abs(modes[(name, "readout")].kappa_hz - row[3] * 1e6) < 5e6

    def test_decoupled_channel_gives_bare_modes(self):
        net = single_channel_net(j=0.0, chi=-9.9e6)
        modes = {m.character: m for m in normal_modes(net, "g")}
        ch = net.channels[0]
        assert modes["readout"].f_hz == pytest.approx(ch.f_r_g, abs=1.0)
        assert modes["readout"].kappa_hz == pytest.approx(0.0, abs=1e-6)
        assert modes["filter"].f_hz == pytest.approx(ch.f_p, abs=1.0)
        assert modes["filter"].kappa_hz == pytest.approx(ch.kappa_p, rel=1e-9)

    def test_trace_preservation(self, mux_net):
        a, _ = system_matrix(mux_net, "gggg", 0.0, gamma_shunt=1.0)
        lam = np.linalg.eigvals(a)
        assert np.sum(lam) == pytest.approx(np.trace(a), rel=1e-9)

    def test_two_modes_per_channel_unit_weights(self, mux_net):
        modes = normal_modes(mux_net, "gggg")
        per = {}
        for m in modes:
            per.setdefault(m.channel, []).append(m)
        for name, ms in per.items():
            assert len(ms) == 2
            for m in ms:
                assert 0.5 < m.weight <= 1.0 + 1e-9
        # eigenvector weights across all channels sum to one per mode
        from notchlab.mux import (_channel_weights, _eigensolve)
        _, vec = _eigensolve(mux_net, "gggg")
        w = _channel_weights(mux_net, vec)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_chi_zero_falls_back_to_linewidth(self):
        net = single_channel_net(chi=0.0)
        modes = {m.character: m for m in normal_modes(net, "g")}
        assert modes["readout"].kappa_hz < modes["filter"].kappa_hz


class TestModeDispersiveShifts:
    def test_table_values(self, mux_net):
        for name, row in TABLE_MODES.items():
            chi_r, chi_p = mode_dispersive_shifts(mux_net, name)
            assert abs(chi_r - row[5] * 1e6) < 0.5e6, name
            assert abs(chi_p - row[6] * 1e6) < 0.5e6, name

    def test_zero_chi_gives_zero_shifts(self):
        net = single_channel_net(chi=0.0)
        chi_r, chi_p = mode_dispersive_shifts(net, "Q")
        assert chi_r == 0.0 and chi_p == 0.0

    def test_spectator_shifts_small(self, mux_net):
        # flipping Q2 moves the other readout modes by under 1% of the
        # target shift; spectator filter-like modes can pick up a bit more
        # (Q1's filter mode sits closest to Q2's readout mode, 2.4%)
        lam_g = {(m.channel, m.character): m.f_hz
                 for m in normal_modes(mux_net, "gggg")}
        lam_e = {(m.channel, m.character): m.f_hz
                 for m in normal_modes(mux_net, "gegg")}
        target = abs(lam_e[("Q2", "readout")] - lam_g[("Q2", "readout")])
        for key in lam_g:
            if key[0] == "Q2":
                continue
            bound = 0.01 if key[1] == "readout" else 0.03
            assert abs(lam_e[key] - lam_g[key]) < bound * target, key


# The tuple-sort matchers and the two-pass mode pipeline that
# _greedy_match and _owned_modes replaced, kept as references.

def assign_channels_tuple_sort(weights):
    """Greedy capacity-2 assignment of modes (rows) to channels (columns)."""
    n_modes, n_ch = weights.shape
    order = sorted(
        ((float(weights[k, j]), k, j) for k in range(n_modes)
         for j in range(n_ch)),
        key=lambda t: (-t[0], t[1], t[2]))
    cap = {j: 2 for j in range(n_ch)}
    assigned = {}
    for _, k, j in order:
        if k in assigned or cap[j] == 0:
            continue
        assigned[k] = j
        cap[j] -= 1
    return [assigned[k] for k in range(n_modes)]


def match_modes_tuple_sort(ov):
    """Greedy one-to-one matching of the rows and columns of a square ov."""
    n = ov.shape[1]
    order = sorted(((float(ov[i, j]), i, j) for i in range(n) for j in range(n)),
                   key=lambda t: (-t[0], t[1], t[2]))
    used_a, used_b = set(), set()
    match = [-1] * n
    for _, i, j in order:
        if i in used_a or j in used_b:
            continue
        match[i] = j
        used_a.add(i)
        used_b.add(j)
    return match


def _overlap(vec_a, vec_b):
    return np.abs(vec_a.conj().T @ vec_b)


def normal_modes_two_pass(net, state):
    """normal_modes as computed before _owned_modes."""
    lam, vec = _eigensolve(net, state)
    weights = _channel_weights(net, vec)
    owner = assign_channels_tuple_sort(weights)
    shifts = np.zeros(lam.size)
    for j, ch in enumerate(net.channels):
        members = [k for k in range(lam.size) if owner[k] == j]
        if ch.chi == 0.0:
            continue
        lam_f, vec_f = _eigensolve(net, _flip(state, j))
        match = match_modes_tuple_sort(_overlap(vec, vec_f))
        for k in members:
            shifts[k] = abs(lam[k].real - lam_f[match[k]].real)
    modes = []
    for j, ch in enumerate(net.channels):
        members = sorted(k for k in range(lam.size) if owner[k] == j)
        if ch.chi == 0.0:
            members.sort(key=lambda k: lam[k].imag)
        else:
            members.sort(key=lambda k: -shifts[k])
        for rank, k in enumerate(members):
            modes.append(NormalMode(
                channel=ch.name, character="readout" if rank == 0 else "filter",
                f_hz=lam[k].real / TWO_PI, kappa_hz=2.0 * lam[k].imag / TWO_PI,
                weight=float(weights[k, j])))
    return modes


def mode_dispersive_shifts_two_pass(net, target):
    """mode_dispersive_shifts as computed before _owned_modes."""
    idx = net.index(target)
    state_g = "g" * net.n
    lam_g, vec_g = _eigensolve(net, state_g)
    lam_e, vec_e = _eigensolve(net, _flip(state_g, idx))
    owner = assign_channels_tuple_sort(_channel_weights(net, vec_g))
    match = match_modes_tuple_sort(_overlap(vec_g, vec_e))
    members = [k for k in range(lam_g.size) if owner[k] == idx]
    shifts = {k: (lam_e[match[k]].real - lam_g[k].real) / 2.0 / TWO_PI
              for k in members}
    members.sort(key=lambda k: -abs(shifts[k]))
    return shifts[members[0]], shifts[members[1]]


class TestGreedyMatchVsTupleSort:
    @pytest.mark.parametrize("cap", [1, 2])
    def test_same_assignment_with_ties(self, cap):
        rng = np.random.default_rng(cap)
        tied = 0
        for _ in range(400):
            n = int(rng.integers(1, 9))
            # 0-2 decimals: many equal scores, so the tie order is tested
            score = np.round(rng.uniform(0.0, 1.0, (cap * n, n)),
                             int(rng.integers(0, 3)))
            tied += np.unique(score).size < score.size
            ref = (match_modes_tuple_sort(score) if cap == 1
                   else assign_channels_tuple_sort(score))
            assert _greedy_match(score, cap).tolist() == ref
        assert tied > 300


class TestModePipelineVsTwoPass:
    def test_mode_dispersive_shifts_identical(self, mux_net):
        for name in ("Q1", "Q2", "Q3", "Q4"):
            assert (mode_dispersive_shifts(mux_net, name)
                    == mode_dispersive_shifts_two_pass(mux_net, name)), name

    @pytest.mark.parametrize("state", ["gggg", "gegg", "eeee"])
    def test_normal_modes_identical(self, mux_net, state):
        assert normal_modes(mux_net, state) == normal_modes_two_pass(mux_net,
                                                                     state)

    def test_chi_zero_channel_identical(self):
        net = single_channel_net(chi=0.0)
        assert normal_modes(net, "g") == normal_modes_two_pass(net, "g")


def resolved_net(rng, n):
    """n channels 600 MHz apart, each readout resonator 1-3 J off its filter.

    The readout-filter detuning also exceeds 2|chi|, so it keeps its sign in
    both qubit states.  About half the channels have chi = 0; J spans
    3-100 MHz, kappa_p 17-255 MHz, and the internal linewidths are 0 or
    100 kHz.
    """
    channels = []
    for i in range(n):
        j = 33e6 * rng.uniform(0.1, 3.0)
        chi = 0.0 if rng.random() < 0.5 else -rng.uniform(5e6, 12e6)
        f_p = 10.0e9 + 600e6 * i
        f_r = f_p + rng.choice([-1, 1]) * (j * rng.uniform(1, 3) + 2 * abs(chi))
        loss = rng.choice([0.0, 100e3])
        channels.append(ReadoutChannel(
            name=f"Q{i + 1}", f_r_g=f_r, chi=chi, f_p=f_p, j=j,
            kappa_p=85e6 * rng.uniform(0.2, 3.0), gamma_r=loss, gamma_p=loss))
    return MuxNetwork(channels=channels, shunt=PAPER_SHUNT)


class TestModesByReadoutWeight:
    def test_one_eigensolve(self, mux_net, monkeypatch):
        calls = []

        def counting(net, state):
            calls.append(state)
            return _eigensolve(net, state)

        monkeypatch.setattr(notchlab.mux, "_eigensolve", counting)
        normal_modes(mux_net, "gegg")
        assert calls == ["gegg"]

    def test_two_pass_labels_where_resolved(self):
        # where each pair stays detuned by more than J through the qubit
        # flip, the mode that moves more with the flip is the one with more
        # weight on the readout resonator
        rng = np.random.default_rng(17)
        sizes = []
        for _ in range(300):
            n = int(rng.choice([1, 2, 4, 8]))
            net = resolved_net(rng, n)
            state = "".join(rng.choice(["g", "e"], n))
            assert normal_modes(net, state) == normal_modes_two_pass(net, state)
            target = net.channels[int(rng.integers(n))].name
            assert (mode_dispersive_shifts(net, target)
                    == mode_dispersive_shifts_two_pass(net, target))
            sizes.append(n)
        assert {1, 8} <= set(sizes)

    @pytest.mark.parametrize("chi,kappa", [(-2e6, 20e6), (-2e6, 150e6),
                                           (-10e6, 20e6), (-10e6, 150e6)])
    def test_mirror_detuned_channel(self, chi, kappa):
        # f_r - f_p is +|chi| in g and -|chi| in e: the e modes mirror the
        # g modes about f_p, the flip shifts both modes of a state nearly
        # equally, and the readout-like mode is the narrower one in each
        f_p = 10.4e9
        ch = ReadoutChannel(name="Q", f_r_g=f_p - chi, chi=chi, f_p=f_p,
                            j=40e6, kappa_p=kappa)
        net = MuxNetwork(channels=(ch,), shunt=PAPER_SHUNT)
        modes = {s: {m.character: m for m in normal_modes(net, s)}
                 for s in "ge"}
        for s in "ge":
            assert modes[s]["readout"].kappa_hz < modes[s]["filter"].kappa_hz
        assert (modes["g"]["readout"].f_hz - f_p
                == pytest.approx(f_p - modes["e"]["readout"].f_hz, abs=1.0))


class TestNoisePhotonBound:
    def test_zero_dephasing(self, mux_net):
        assert noise_photon_bound(mux_net, "Q2", 0.0) == 0.0

    def test_linear_in_gamma(self, mux_net):
        n1 = noise_photon_bound(mux_net, "Q1", 1e4)
        n2 = noise_photon_bound(mux_net, "Q1", 2e4)
        assert n2 == pytest.approx(2 * n1, rel=1e-9)

    def test_paper_bounds_within_50pc(self, mux_net):
        for name, row in QUBIT_TABLE.items():
            t2e = row[4] * 1e-6
            n = noise_photon_bound(mux_net, name, 1.0 / t2e)
            target = NOISE_PHOTON_BOUNDS[name]
            assert 0.5 * target < n < 1.5 * target, name


def quad_noise_photon_bound(net, target, gamma_phi):
    """The bound by adaptive Gauss-Kronrod quadrature over scalar calls.

    The reference the fixed-grid trapezoid rule replaced: same window, break
    points at every bare frequency, absolute tolerance 1e-6 of the peak of a
    4001-point scan, relative tolerance 1e-9.
    """
    state_g = "g" * net.n
    state_e = "".join("e" if ch.name == target else "g" for ch in net.channels)

    def integrand(f):
        return abs(gamma_incident(net, state_e, f)
                   - gamma_incident(net, state_g, f)) ** 2

    freqs = [ch.f_p for ch in net.channels] + [ch.f_r_g for ch in net.channels]
    kmax = max(ch.kappa_p for ch in net.channels)
    lo = min(freqs) - 20.0 * kmax
    hi = max(freqs) + 20.0 * kmax
    peak = float(np.max(integrand(np.linspace(lo, hi, 4001))))
    val, _ = quad(integrand, lo, hi, points=sorted(freqs), limit=500,
                  epsabs=1e-6 * peak, epsrel=1e-9)
    return 2.0 * gamma_phi / val


def narrowed(net, scale):
    """Copy with every kappa_p times scale and j times sqrt(scale)."""
    return dataclasses.replace(net, channels=tuple(
        dataclasses.replace(ch, kappa_p=ch.kappa_p * scale,
                            j=ch.j * math.sqrt(scale))
        for ch in net.channels))


@pytest.fixture()
def grid_sizes(monkeypatch):
    """Sizes of the frequency grids handed to mux.gamma_incident."""
    sizes = []
    inner = notchlab.mux.gamma_incident

    def counted(net, state, f_d):
        sizes.append(np.size(f_d))
        return inner(net, state, f_d)

    monkeypatch.setattr(notchlab.mux, "gamma_incident", counted)
    return sizes


class TestNoisePhotonBoundVsQuad:
    def test_paper_device(self, mux_net, grid_sizes):
        for name, row in QUBIT_TABLE.items():
            gamma_phi = 1.0 / (row[4] * 1e-6)
            n = noise_photon_bound(mux_net, name, gamma_phi)
            ref = quad_noise_photon_bound(mux_net, name, gamma_phi)
            assert n == pytest.approx(ref, rel=1e-10, abs=0), name
        assert min(grid_sizes) >= notchlab.mux.NOISE_GRID_START

    @pytest.mark.parametrize("scale, target", [
        (0.1, "Q1"), (0.1, "Q2"), (0.1, "Q3"), (0.1, "Q4"),
        (0.02, "Q1"), (0.02, "Q2")])
    def test_narrow_lines_refine(self, mux_net, grid_sizes, scale, target):
        net = narrowed(mux_net, scale)
        n = noise_photon_bound(net, target, 1e4)
        assert max(grid_sizes) > notchlab.mux.NOISE_GRID_START  # refined
        assert n == pytest.approx(quad_noise_photon_bound(net, target, 1e4),
                                  rel=1e-9, abs=0)

    def test_unresolved_lines_stop_at_the_cap(self, mux_net, grid_sizes):
        with pytest.raises(NumericalError, match="not converged"):
            noise_photon_bound(narrowed(mux_net, 0.005), "Q1", 1e4)
        assert max(grid_sizes) <= notchlab.mux.NOISE_GRID_MAX
        assert 2 * max(grid_sizes) - 1 > notchlab.mux.NOISE_GRID_MAX


def propagate_per_step(net, state, pulse, dt_out):
    """(p, r, s_out) from the step loop as first written.

    Each step looks its envelope sample up at the step midpoint and keys its
    matrix exponential by round(h, 18) on its own; propagate must reproduce
    this loop bit for bit.
    """
    a, d = system_matrix(net, state, pulse.f_d)
    m = 1j * a
    n = net.n
    dim = 2 * n
    t_end = pulse.duration
    n_out = int(math.floor(t_end / dt_out + 1e-9))
    out_times = np.arange(n_out + 1) * dt_out
    if out_times[-1] < t_end - 1e-15:
        out_times = np.append(out_times, t_end)
    bounds = set(float(x) for x in out_times)
    intervals = list(pulse.sample_intervals())
    for t0, t1, _ in intervals:
        bounds.add(float(t0))
        bounds.add(float(t1))
    cuts = np.array(sorted(bounds))
    cuts = cuts[(cuts >= 0) & (cuts <= t_end + 1e-15)]
    keep = np.ones(cuts.size, dtype=bool)
    keep[1:] = np.diff(cuts) > 1e-15
    cuts = cuts[keep]
    starts = np.array([iv[0] for iv in intervals])
    amps = [iv[2] for iv in intervals]

    def amp_at(tm):
        i = int(np.searchsorted(starts, tm, side="right")) - 1
        return amps[max(i, 0)]

    cache = {}

    def step_ops(h):
        key = round(h, 18)
        if key not in cache:
            aug = np.zeros((dim + 1, dim + 1), dtype=complex)
            aug[:dim, :dim] = m
            aug[:dim, dim] = d
            big = expm(aug * h)
            cache[key] = (big[:dim, :dim], big[:dim, dim])
        return cache[key]

    x = np.zeros(dim, dtype=complex)
    states = np.zeros((out_times.size, dim), dtype=complex)
    out_idx = 1
    for k in range(cuts.size - 1):
        t0, t1 = cuts[k], cuts[k + 1]
        h = t1 - t0
        e_h, f_h = step_ops(h)
        u = amp_at(0.5 * (t0 + t1))
        x = e_h @ x + f_h * u
        while out_idx < out_times.size and out_times[out_idx] <= t1 + 1e-15:
            states[out_idx] = x
            out_idx += 1

    gs = shunt_reflection(net.shunt, net.z0_line, pulse.f_d)
    s_in = np.asarray(pulse.envelope(out_times), dtype=complex)
    root_k = np.sqrt(np.array([TWO_PI * ch.kappa_p for ch in net.channels]))
    p = states[:, :n].T
    r = states[:, n:].T
    return p, r, gs * s_in - 0.5 * (1.0 + gs) * (root_k @ p)


class TestPropagateStepLoop:
    @pytest.mark.parametrize("dt_out", [0.25e-9, 0.3e-9, 0.5e-9])
    @pytest.mark.parametrize("tail", [0.0, 30e-9])
    def test_bit_identical_to_per_step_loop(self, mux_net, dt_out, tail):
        f_d = QUBIT_TABLE["Q2"][6] * 1e6
        pulse = DrivePulse.two_step(f_d, 1.2e6, 137.3e-9, tail=tail)
        for state in ("gggg", "gegg"):
            tr = propagate(mux_net, state, pulse, dt_out)
            p, r, s_out = propagate_per_step(mux_net, state, pulse, dt_out)
            assert np.array_equal(tr.p, p)
            assert np.array_equal(tr.r, r)
            assert np.array_equal(tr.s_out, s_out)


class TestPropagateGuards:
    def test_step_cap_before_sampling(self, mux_net, monkeypatch):
        def no_sampling(self):
            raise AssertionError("sample_intervals ran past the cap")
        monkeypatch.setattr(DrivePulse, "sample_intervals", no_sampling)
        # a 1 s raised-cosine edge needs 1e10 subdivisions at 0.1 ns
        long_edge = DrivePulse(10.36e9, (PulseSegment(1.0, 1e6,
                                                      "raised_cosine"),))
        with pytest.raises(ValidationError, match="the limit is 1000000"):
            propagate(mux_net, "gggg", long_edge, 1.0)
        short = DrivePulse.rectangular(10.36e9, 1e6, 100e-9)
        with pytest.raises(ValidationError, match="the limit is 1000000"):
            propagate(mux_net, "gggg", short, 100e-9 / (10 ** 6 + 1))

    def test_non_finite_eigenvalues_raise(self, mux_net, monkeypatch):
        def nan_eigvals(a):
            return np.full(a.shape[0], np.nan + 0j)
        monkeypatch.setattr(notchlab.mux.np.linalg, "eigvals", nan_eigvals)
        pulse = DrivePulse.rectangular(10.36e9, 1e6, 10e-9)
        with pytest.raises(NumericalError, match="eigenvalues are not finite"):
            propagate(mux_net, "gggg", pulse, 1e-9)

    def test_step_cap_before_sampling_for_two_states(self, mux_net,
                                                     monkeypatch):
        def no_sampling(self):
            raise AssertionError("sample_intervals ran past the cap")
        monkeypatch.setattr(DrivePulse, "sample_intervals", no_sampling)
        short = DrivePulse.rectangular(10.36e9, 1e6, 100e-9)
        with pytest.raises(ValidationError, match="the limit is 1000000"):
            propagate(mux_net, ("gggg", "gegg"), short,
                      100e-9 / (10 ** 6 + 1))

    def test_every_state_checked_before_any_expm(self, mux_net, monkeypatch):
        calls = []

        def counted_expm(m):
            calls.append(m)
            return expm(m)
        monkeypatch.setattr("scipy.linalg.expm", counted_expm)
        # chi overflows the readout frequency of Q1 in e only: "gggg" alone
        # propagates, "eggg" fails its passivity check
        net = dataclasses.replace(mux_net, channels=(
            dataclasses.replace(mux_net.channels[0], chi=1e300),
            *mux_net.channels[1:]))
        pulse = DrivePulse.rectangular(10.36e9, 1e6, 10e-9)
        propagate(net, "gggg", pulse, 1e-9)
        assert calls
        calls.clear()
        with pytest.raises(NumericalError, match="too large to resolve"):
            propagate(net, ("gggg", "eggg"), pulse, 1e-9)
        assert calls == []


class TestPropagateStates:
    """propagate over a sequence of states: one step loop, same bits."""

    @pytest.mark.parametrize("dt_out", [0.25e-9, 0.3e-9, 0.5e-9])
    @pytest.mark.parametrize("tail", [0.0, 30e-9])
    @pytest.mark.parametrize("states", [("gggg", "gegg"), ("gegg", "gggg"),
                                        ("gegg", "gegg")],
                             ids=["g-e", "e-g", "repeated"])
    def test_bit_identical_to_one_state_at_a_time(self, mux_net, dt_out,
                                                  tail, states):
        f_d = QUBIT_TABLE["Q2"][6] * 1e6
        pulse = DrivePulse.two_step(f_d, 1.2e6, 137.3e-9, tail=tail)
        traces = propagate(mux_net, states, pulse, dt_out)
        assert isinstance(traces, tuple) and len(traces) == len(states)
        for tr, state in zip(traces, states):
            alone = propagate(mux_net, state, pulse, dt_out)
            p, r, s_out = propagate_per_step(mux_net, state, pulse, dt_out)
            assert tr.state == state
            for name in ("t", "p", "r", "s_out", "s_in"):
                assert np.array_equal(getattr(tr, name), getattr(alone, name))
            assert np.array_equal(tr.p, p)
            assert np.array_equal(tr.r, r)
            assert np.array_equal(tr.s_out, s_out)

    def test_list_gives_tuple_and_one_state_gives_traces(self, mux_net):
        pulse = DrivePulse.rectangular(10.36e9, 1e6, 10e-9)
        one = propagate(mux_net, ["gggg"], pulse, 1e-9)
        assert isinstance(one, tuple) and len(one) == 1
        assert np.array_equal(one[0].s_out,
                              propagate(mux_net, "gggg", pulse, 1e-9).s_out)

    @pytest.mark.parametrize("states", [(), [], ("gggg", "gxgg"),
                                        ("ggg", "gggg"), ("gggg", "ggggg")],
                             ids=["empty-tuple", "empty-list", "bad-letter",
                                  "short-first", "long-last"])
    def test_bad_sequence_rejected(self, mux_net, states):
        pulse = DrivePulse.rectangular(10.36e9, 1e6, 10e-9)
        with pytest.raises(ValidationError):
            propagate(mux_net, states, pulse, 1e-9)

    def test_separation_propagates_once(self, mux_net, monkeypatch):
        calls = []
        real = notchlab.mux.propagate

        def spy(net, state, pulse, dt_out):
            calls.append(state)
            return real(net, state, pulse, dt_out)
        monkeypatch.setattr(notchlab.mux, "propagate", spy)
        pulse = DrivePulse.two_step(QUBIT_TABLE["Q3"][6] * 1e6, 1e6, 50e-9)
        res = separation(mux_net, "Q3", pulse, 0.5e-9)
        assert calls == [("gggg", "ggeg")]
        assert (res.traces_g.state, res.traces_e.state) == ("gggg", "ggeg")


class TestCriticalPhoton:
    def test_table_values(self, mux_net):
        for i, (name, row) in enumerate(QUBIT_TABLE.items()):
            f_q, g = row[0] * 1e6, row[1] * 1e6
            n = critical_photon(g, f_q, mux_net.channels[i].f_r_g)
            assert n == pytest.approx(row[2], abs=0.1), name

    def test_large_g_limit(self):
        assert critical_photon(1e12, 8e9, 10e9) < 1e-3

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            critical_photon(3e8, 1e10, 1e10)


class TestDrivePulse:
    def test_two_step_shape(self):
        pulse = DrivePulse.two_step(10.36e9, 2e6, 36e-9)
        assert pulse.duration == pytest.approx(6e-9 + 14e-9 + 6e-9 + 36e-9)
        t = np.array([3e-9, 13e-9, 23e-9, 40e-9])
        env = pulse.envelope(t)
        assert env[1] == pytest.approx(2e6 * 1.375, rel=1e-12)  # flat top
        assert env[3] == pytest.approx(2e6, rel=1e-12)          # plateau
        assert 0 < abs(env[0]) < 2e6 * 1.375                    # rising edge
        assert pulse.envelope(0.0) == 0.0
        assert pulse.envelope(pulse.duration + 1e-12) == 0.0

    def test_overshoot_bounds(self):
        with pytest.raises(ValidationError):
            DrivePulse.two_step(10e9, 1e6, 30e-9, overshoot=1.5)
        with pytest.raises(ValidationError):
            DrivePulse.two_step(10e9, 1e6, 30e-9, overshoot=1.2)

    def test_segment_validation(self):
        with pytest.raises(ValidationError):
            PulseSegment(duration=-1e-9, amplitude=1.0)
        with pytest.raises(ValidationError):
            PulseSegment(duration=1e-9, amplitude=1.0, edge="gauss")


def sample_intervals_cos(pulse):
    """(t0, t1, amplitude) from the edge sampler sample_intervals replaced.

    It evaluated the raised cosine a second time, with math.cos at
    tau = (k + 1/2) / nsub of each edge, instead of calling envelope.
    """
    t0 = 0.0
    prev = 0.0 + 0.0j
    for seg in pulse.segments:
        if seg.edge == "flat":
            yield t0, t0 + seg.duration, complex(seg.amplitude)
        else:
            nsub = max(1, math.ceil(seg.duration / 0.1e-9))
            h = seg.duration / nsub
            for k in range(nsub):
                tau = (k + 0.5) / nsub
                amp = prev + (seg.amplitude - prev) * 0.5 * (1 - math.cos(math.pi * tau))
                yield t0 + k * h, t0 + (k + 1) * h, complex(amp)
        prev = complex(seg.amplitude)
        t0 += seg.duration


SAMPLED_PULSES = {
    "rectangular": DrivePulse.rectangular(10.36e9, 1e6, 100e-9),
    "two_step": DrivePulse.two_step(10.36e9, 1.2e6, 137.3e-9),
    "two_step_tail": DrivePulse.two_step(10.36e9, 1.2e6, 137.3e-9, tail=30e-9),
    "segments": DrivePulse(10.36e9, (
        PulseSegment(2.5e-9, 1e6 + 2e5j, "raised_cosine"),
        PulseSegment(10e-9, 1e6 + 2e5j),
        PulseSegment(0.35e-9, -3e5j, "raised_cosine"),
        PulseSegment(0.05e-9, 4e5, "raised_cosine"),
        PulseSegment(4e-9, 4e5),
        PulseSegment(7.3e-9, 0.0, "raised_cosine"))),
}


class TestEnvelopeSampling:
    @pytest.mark.parametrize("name", sorted(SAMPLED_PULSES))
    def test_amplitudes_are_envelope_at_midpoints(self, name):
        pulse = SAMPLED_PULSES[name]
        t0, t1, amps = map(np.array, zip(*pulse.sample_intervals()))
        assert t0[0] == 0.0 and np.array_equal(t0[1:], t1[:-1])
        assert t1[-1] == pytest.approx(pulse.duration, rel=1e-12)
        assert np.array_equal(amps, pulse.envelope(0.5 * (t0 + t1)))

    @pytest.mark.parametrize("name", sorted(SAMPLED_PULSES))
    def test_matches_math_cos_sampler(self, name):
        pulse = SAMPLED_PULSES[name]
        got = pulse.sample_intervals()
        ref = list(sample_intervals_cos(pulse))
        assert [iv[:2] for iv in got] == [iv[:2] for iv in ref]
        amps = np.array([iv[2] for iv in got])
        ref_amps = np.array([iv[2] for iv in ref])
        peak = np.max(np.abs(ref_amps))
        assert np.max(np.abs(amps - ref_amps)) <= 1e-14 * peak


class TestDrivePhotonHelper:
    def test_round_trip(self, mux_net):
        f_d = 10.357e9
        s_in = drive_for_photon_number(mux_net, "Q2", "gggg", f_d, 1.05 * 6.7)
        x = steady_state(mux_net, "gggg", f_d, s_in)
        n = abs(x[mux_net.n + 1]) ** 2
        assert n == pytest.approx(1.05 * 6.7, rel=1e-9)


class TestNetworkValidation:
    def test_duplicate_names_rejected(self):
        ch = ReadoutChannel("a", 10e9, -8e6, 10.02e9, 30e6, 80e6)
        with pytest.raises(ValidationError):
            MuxNetwork(channels=(ch, ch), shunt=PAPER_SHUNT)

    def test_state_length_enforced(self, mux_net):
        with pytest.raises(ValidationError):
            gamma_incident(mux_net, "gg", 10.4e9)
        with pytest.raises(ValidationError):
            gamma_incident(mux_net, "ggxg", 10.4e9)

    def test_channel_count_bounds(self):
        with pytest.raises(ValidationError):
            MuxNetwork(channels=(), shunt=PAPER_SHUNT)


# Every frequency-taking entry point of L1/L2, called at frequency f.
FREQUENCY_CALLS = {
    "z21_general": lambda dev, f: z21_general(dev.pair("Q1"), f),
    "z21_capacitive": lambda dev, f: z21_capacitive(dev.pair("Cap"), f),
    "two_port_z": lambda dev, f: two_port_z(
        equivalent_pair(dev.pair("Q1")), f),
    "shunt_reflection": lambda dev, f: shunt_reflection(dev.shunt, 50.0, f),
    "gamma_filter": lambda dev, f: gamma_filter(dev.channels[0], "g", f),
    "gamma_incident": lambda dev, f: gamma_incident(
        dev.mux_network(), "gggg", f),
    "t1_purcell": lambda dev, f: t1_purcell(
        equivalent_pair(dev.pair("Q1")),
        QubitCoupling(90e-15, 5e-15, 10e-15, 50.0, 8e9), f_q=f),
    "enhancement_factor": lambda dev, f: enhancement_factor(
        f, 8.278e9, 10.3e9),
}


@pytest.mark.parametrize("f", [math.nan, 0.0, math.inf,
                               np.array([8.5e9, math.nan])],
                         ids=["nan", "zero", "inf", "nan_in_grid"])
@pytest.mark.parametrize("name", sorted(FREQUENCY_CALLS))
def test_nan_zero_inf_frequency_rejected(paper_device, name, f):
    with warnings.catch_warnings():
        # rejected before any arithmetic: no RuntimeWarning on the way
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="must be > 0"):
            FREQUENCY_CALLS[name](paper_device, f)
