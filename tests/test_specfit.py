import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import least_squares

import notchlab.specfit
from notchlab import (FitConfig, MuxNetwork, PhaseSpectrum, ReadoutChannel,
                      ShuntLC, ValidationError, fit_reflection,
                      gamma_incident, model_phase, synth_spectrum, wrap_phase)

PAPER_SHUNT = ShuntLC(c_shunt=230e-15, l_shunt=1.01e-9)
GRID = np.linspace(10.0e9, 10.9e9, 901)
THETA0, TAU = 0.7, 0.31e-9


def perturbed_guess(net, rng, df=2e6, dj=1e6, dk=2e6, dchi=0.3e6):
    chans = tuple(
        dataclasses.replace(
            c,
            f_r_g=c.f_r_g + rng.uniform(-df, df),
            f_p=c.f_p + rng.uniform(-df, df),
            j=c.j + rng.uniform(-dj, dj),
            kappa_p=c.kappa_p + rng.uniform(-dk, dk),
            chi=c.chi + rng.uniform(-dchi, dchi),
        ) for c in net.channels)
    return dataclasses.replace(net, channels=chans)


class TestModelPhase:
    def test_plain_arg_when_no_delay(self, mux_net):
        f = 10.4e9
        ph = model_phase(mux_net, "gggg", 0.0, 0.0, f)
        assert ph == pytest.approx(np.angle(gamma_incident(mux_net, "gggg", f)))

    def test_theta0_shifts_constant(self, mux_net):
        fs = GRID[:50]
        a = model_phase(mux_net, "gggg", 0.0, 0.0, fs)
        b = model_phase(mux_net, "gggg", 0.4, 0.0, fs)
        assert np.allclose(b - a, 0.4)

    def test_winding_count(self, mux_net):
        ph = np.unwrap(model_phase(mux_net, "gggg", 0.0, 0.0,
                                   np.linspace(10.0e9, 10.9e9, 30001)))
        turns = abs(ph[-1] - ph[0]) / (2 * math.pi)
        assert 7.0 <= turns <= 9.0


class TestSynthSpectrum:
    def test_noiseless_round_trips(self, mux_net):
        spec = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.0)
        model = model_phase(mux_net, "gggg", THETA0, TAU, GRID)
        assert np.allclose(wrap_phase(spec.phase_rad - model), 0.0, atol=1e-12)

    def test_seed_determinism(self, mux_net):
        a = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.02, seed=7)
        b = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.02, seed=7)
        assert np.array_equal(a.phase_rad, b.phase_rad)
        c = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.02, seed=8)
        assert not np.array_equal(a.phase_rad, c.phase_rad)

    def test_wrapped_range(self, mux_net):
        spec = synth_spectrum(mux_net, "g", 3.0, TAU, GRID, 0.5, seed=1)
        assert np.all(spec.phase_rad > -math.pi - 1e-12)
        assert np.all(spec.phase_rad <= math.pi + 1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PhaseSpectrum(freq_hz=np.array([2.0, 1.0]),
                          phase_rad=np.array([0.0, 0.0]))


class TestFitReflection:
    def test_noiseless_recovery(self, mux_net):
        rng = np.random.default_rng(3)
        spec_g = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.0)
        spec_e = synth_spectrum(mux_net, "e", THETA0, TAU, GRID, 0.0)
        cfg = FitConfig(initial=perturbed_guess(mux_net, rng),
                        theta0=0.5, tau=0.2e-9)
        res = fit_reflection(spec_g, spec_e, cfg)
        assert res.converged
        for fit, true in zip(res.network.channels, mux_net.channels):
            assert abs(fit.f_r_g - true.f_r_g) < 1e3
            assert abs(fit.f_p - true.f_p) < 1e3
            assert abs(fit.j - true.j) / true.j < 1e-3
            assert abs(fit.kappa_p - true.kappa_p) / true.kappa_p < 1e-3
        # theta0 is identifiable modulo 2*pi only
        assert float(wrap_phase(res.theta0 - THETA0)) == pytest.approx(0.0, abs=1e-6)
        assert res.tau == pytest.approx(TAU, abs=1e-15)

    def test_noisy_chi_recovery_over_seeds(self, mux_net):
        # 0.02 rad of phase noise: chi recovered within 0.2 MHz, no seed
        # diverging
        rng = np.random.default_rng(11)
        for seed in range(20):
            spec_g = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.02,
                                    seed=seed)
            spec_e = synth_spectrum(mux_net, "e", THETA0, TAU, GRID, 0.02,
                                    seed=1000 + seed)
            cfg = FitConfig(initial=perturbed_guess(mux_net, rng),
                            theta0=0.6, tau=0.25e-9)
            res = fit_reflection(spec_g, spec_e, cfg)
            assert res.converged, seed
            for fit, true in zip(res.network.channels, mux_net.channels):
                assert abs(fit.chi - true.chi) < 0.2e6, seed

    def test_swapped_spectra_flip_chi_sign(self, mux_net):
        rng = np.random.default_rng(5)
        spec_g = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.0)
        spec_e = synth_spectrum(mux_net, "e", THETA0, TAU, GRID, 0.0)
        guess = perturbed_guess(mux_net, rng, df=1e6)
        res = fit_reflection(spec_g, spec_e, FitConfig(initial=guess))
        # the mirrored solution sits at f_r_g + 2 chi with the sign of chi
        # flipped; start the swapped fit in that basin
        mirrored = dataclasses.replace(
            guess,
            channels=tuple(
                dataclasses.replace(c, f_r_g=c.f_r_g + 2 * c.chi, chi=-c.chi)
                for c in guess.channels))
        res_swapped = fit_reflection(spec_e, spec_g,
                                     FitConfig(initial=mirrored))
        for a, b in zip(res.network.channels, res_swapped.network.channels):
            assert b.chi == pytest.approx(-a.chi, rel=1e-6)
            assert b.f_r_g == pytest.approx(a.f_r_g + 2 * a.chi, abs=50.0)

    def test_single_spectrum_refuses_chi(self, mux_net):
        rng = np.random.default_rng(6)
        spec_g = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.0)
        cfg = FitConfig(initial=perturbed_guess(mux_net, rng, df=1e6))
        res = fit_reflection(spec_g, None, cfg)
        assert not res.chi_reported
        assert res.stderr["chi"] is None
        # chi stays at the initial guess
        for fit, init in zip(res.network.channels, cfg.initial.channels):
            assert fit.chi == init.chi

    def test_deterministic(self, mux_net):
        rng = np.random.default_rng(13)
        guess = perturbed_guess(mux_net, rng)
        spec_g = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.02, seed=2)
        spec_e = synth_spectrum(mux_net, "e", THETA0, TAU, GRID, 0.02, seed=3)
        cfg = FitConfig(initial=guess, theta0=0.6, tau=0.25e-9)
        r1 = fit_reflection(spec_g, spec_e, cfg)
        r2 = fit_reflection(spec_g, spec_e, cfg)
        assert r1.residual_norm == r2.residual_norm
        for a, b in zip(r1.network.channels, r2.network.channels):
            assert a == b

    def test_circular_residual_invariance(self, mux_net):
        rng = np.random.default_rng(17)
        spec_g = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.01, seed=4)
        spec_e = synth_spectrum(mux_net, "e", THETA0, TAU, GRID, 0.01, seed=5)
        shifted = PhaseSpectrum(
            freq_hz=spec_g.freq_hz,
            phase_rad=spec_g.phase_rad + 2 * math.pi)
        cfg = FitConfig(initial=perturbed_guess(mux_net, rng, df=1e6))
        r1 = fit_reflection(spec_g, spec_e, cfg)
        r2 = fit_reflection(shifted, spec_e, cfg)
        assert r1.residual_norm == pytest.approx(r2.residual_norm, rel=1e-12)

    def test_stderr_reasonable(self, mux_net):
        rng = np.random.default_rng(23)
        spec_g = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.02, seed=6)
        spec_e = synth_spectrum(mux_net, "e", THETA0, TAU, GRID, 0.02, seed=7)
        cfg = FitConfig(initial=perturbed_guess(mux_net, rng, df=1e6))
        res = fit_reflection(spec_g, spec_e, cfg)
        # nonzero finite errors; chi error under 0.2 MHz at this noise
        for key in ("f_r_g", "f_p", "j", "kappa_p", "chi"):
            assert np.all(np.isfinite(res.stderr[key]))
            assert np.all(res.stderr[key] > 0)
        assert np.all(res.stderr["chi"] < 0.2e6)

    def test_non_overlapping_spectra_rejected(self, mux_net):
        lo = synth_spectrum(mux_net, "g", 0, 0, np.linspace(1e9, 2e9, 50), 0)
        hi = synth_spectrum(mux_net, "e", 0, 0, np.linspace(5e9, 6e9, 50), 0)
        with pytest.raises(ValidationError):
            fit_reflection(lo, hi, FitConfig(initial=mux_net))


@pytest.mark.parametrize("max_eval", [20000, 3],
                         ids=["lm", "lm-stalls"])
def test_n_eval_counts_every_model_evaluation(monkeypatch, max_eval):
    ch = ReadoutChannel(name="Q", f_r_g=10386e6, chi=-9.9e6, f_p=10407e6,
                        j=39.4e6, kappa_p=81.4e6)
    net = MuxNetwork(channels=(ch,), shunt=PAPER_SHUNT)
    grid = np.linspace(10.2e9, 10.6e9, 201)
    spec_g = synth_spectrum(net, "g", THETA0, TAU, grid, 0.01, seed=1)
    spec_e = synth_spectrum(net, "e", THETA0, TAU, grid, 0.01, seed=2)
    guess = dataclasses.replace(net, channels=(
        dataclasses.replace(ch, f_r_g=ch.f_r_g + 1e6, j=ch.j + 0.5e6),))
    calls = []
    inner = notchlab.specfit.model_phase

    def counted(*args):
        calls.append(args[1])
        return inner(*args)

    monkeypatch.setattr(notchlab.specfit, "model_phase", counted)
    res = fit_reflection(spec_g, spec_e, FitConfig(
        initial=guess, theta0=0.6, tau=0.25e-9, max_eval=max_eval))
    # two spectra per residual evaluation, plus one each in the delay prefit
    assert len(calls) == 2 * res.n_eval + 2
    if max_eval == 3:
        assert not res.converged
        assert res.n_eval <= max_eval


def with_internal_loss(net, rng):
    """Random nonzero internal linewidths on every channel (Hz)."""
    return dataclasses.replace(net, channels=tuple(
        dataclasses.replace(c, gamma_r=rng.uniform(0.2e6, 2e6),
                            gamma_p=rng.uniform(0.2e6, 2e6))
        for c in net.channels))


def all_names(net, groups=notchlab.specfit._GROUPS):
    names = [f"{grp}[{i}]" for grp in groups for i in range(net.n)]
    return names + ["theta0", "tau"]


def model_phases(x, net, spectra, free):
    """Unwrapped model phase of every spectrum at scaled parameters x."""
    net_x, th, ta = notchlab.specfit._unpack(x, net, 0.0, 0.0, free)
    return np.concatenate([model_phase(net_x, joint, th, ta, spec.freq_hz)
                           for spec, joint in spectra])


def central_difference_jacobian(net, spectra, free, theta0, tau):
    """Steps of 1 kHz on the channel parameters, 1e-3 on theta0 and tau/ns."""
    sf = notchlab.specfit
    x = sf._pack(net, theta0, tau, free)
    cols = []
    for k, name in enumerate(free):
        h = 1e-3 if name in ("theta0", "tau") else \
            1e3 / sf._SCALE[sf._split(name)[0]]
        up, down = x.copy(), x.copy()
        up[k] += h
        down[k] -= h
        cols.append((model_phases(up, net, spectra, free)
                     - model_phases(down, net, spectra, free)) / (2 * h))
    return np.column_stack(cols)


def assert_columns_match(net, spectra, free, theta0, tau, rtol=1e-5):
    jac = notchlab.specfit._phase_jacobian(net, spectra, free)
    ref = central_difference_jacobian(net, spectra, free, theta0, tau)
    assert np.all(np.isfinite(jac))
    for k, name in enumerate(free):
        scale = np.max(np.abs(ref[:, k]))
        np.testing.assert_allclose(jac[:, k], ref[:, k], rtol=0,
                                   atol=rtol * scale, err_msg=name)


class TestAnalyticJacobian:
    """_phase_jacobian against central differences of model_phase."""

    @pytest.mark.parametrize("states", [("gggg",), ("eeee",), ("gegg",),
                                        ("gggg", "eeee")],
                             ids=lambda s: "+".join(s))
    def test_every_group_at_random_in_basin_points(self, mux_net, states):
        rng = np.random.default_rng(31)
        grid = np.linspace(10.0e9, 10.9e9, 301)
        spectra = [(PhaseSpectrum(grid, np.zeros_like(grid)), s)
                   for s in states]
        for _ in range(3):
            net = with_internal_loss(perturbed_guess(mux_net, rng), rng)
            assert_columns_match(net, spectra, all_names(net),
                                 rng.uniform(-3, 3), rng.uniform(0, 1e-9))

    def test_single_spectrum_fit_with_chi_frozen(self, mux_net):
        rng = np.random.default_rng(37)
        net = with_internal_loss(perturbed_guess(mux_net, rng), rng)
        spectra = [(PhaseSpectrum(GRID, np.zeros_like(GRID)), "gggg")]
        groups = tuple(g for g in notchlab.specfit._GROUPS if g != "chi")
        assert_columns_match(net, spectra, all_names(net, groups), THETA0, TAU)

    def test_bare_filter_with_a_point_on_the_readout_line(self, mux_net):
        # j = 0 on channel 0, lossless: the grid hits f_r, where the full
        # branch form is 0/0 and only the bare-filter limit is defined
        lossy = with_internal_loss(mux_net, np.random.default_rng(41))
        bare = dataclasses.replace(lossy.channels[0], j=0.0, gamma_r=0.0)
        net = dataclasses.replace(lossy,
                                  channels=(bare,) + lossy.channels[1:])
        for state, f_r in (("gggg", bare.f_r_g),
                           ("eggg", bare.f_r_g + 2 * bare.chi)):
            grid = np.sort(np.append(np.linspace(10.0e9, 10.9e9, 300), f_r))
            parts = notchlab.mux._branch_partials(bare, state[0], grid)
            for grp in ("f_r_g", "chi", "j", "gamma_r"):
                assert np.all(parts[grp] == 0), grp
            spectra = [(PhaseSpectrum(grid, np.zeros_like(grid)), state)]
            # j and gamma_r of the bare channel sit at their bound of 0
            free = [n for n in all_names(net)
                    if n not in ("j[0]", "gamma_r[0]")]
            assert_columns_match(net, spectra, free, THETA0, TAU)


def fd_fit_reflection(spec_g, spec_e, cfg):
    """fit_reflection as it was with a finite-difference Jacobian.

    The reference for the analytic Jacobian: the same prefit, packing and
    LM settings, with least_squares differentiating the residual itself.
    Only the LM pass is kept (the reference inputs never need the restart).
    """
    sf = notchlab.specfit
    net0 = cfg.initial
    free = all_names(net0, tuple(g for g in sf._GROUPS if g not in cfg.fix))
    spectra = [(spec_g, "g" * net0.n), (spec_e, "e" * net0.n)]

    def residuals(x):
        net, th, ta = sf._unpack(x, net0, cfg.theta0, cfg.tau, free)
        return np.concatenate([
            wrap_phase(model_phase(net, joint, th, ta, spec.freq_hz)
                       - spec.phase_rad) for spec, joint in spectra])

    theta0, tau = sf._prefit_delay(net0, spectra, cfg.theta0, cfg.tau)
    res = least_squares(residuals, sf._pack(net0, theta0, tau, free),
                        method="lm", xtol=cfg.tol, ftol=cfg.tol,
                        gtol=cfg.tol, max_nfev=cfg.max_eval)
    assert res.success
    net, th, ta = sf._unpack(res.x, net0, cfg.theta0, cfg.tau, free)
    return net, sf._standard_errors(res, free, net0.n), \
        float(np.sqrt(2.0 * res.cost))


def criterion_9_inputs(mux_net, seed):
    """Noisy two-state spectra and initial guess as in acceptance criterion 9."""
    rng = np.random.default_rng(2024 + seed)
    spec_g = synth_spectrum(mux_net, "g", 0.7, 0.31e-9, GRID, 0.02, seed=seed)
    spec_e = synth_spectrum(mux_net, "e", 0.7, 0.31e-9, GRID, 0.02,
                            seed=100 + seed)
    cfg = FitConfig(initial=perturbed_guess(mux_net, rng), theta0=0.5,
                    tau=0.25e-9)
    return spec_g, spec_e, cfg


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_matches_finite_difference_reference(mux_net, seed):
    spec_g, spec_e, cfg = criterion_9_inputs(mux_net, seed)
    res = fit_reflection(spec_g, spec_e, cfg)
    net_fd, stderr_fd, norm_fd = fd_fit_reflection(spec_g, spec_e, cfg)
    assert res.converged
    for fit, ref in zip(res.network.channels, net_fd.channels):
        assert abs(fit.chi - ref.chi) <= 1e3
    for key, ref in stderr_fd.items():
        assert res.stderr[key] == pytest.approx(ref, rel=1e-4), key
    assert res.residual_norm == pytest.approx(norm_fd, rel=1e-9)


def test_analytic_jacobian_keeps_model_evaluations_few(mux_net):
    # about 130 with a finite-difference Jacobian over 22 parameters
    spec_g, spec_e, cfg = criterion_9_inputs(mux_net, 0)
    res = fit_reflection(spec_g, spec_e, cfg)
    assert res.converged
    assert res.n_eval <= 20
    assert 1 <= res.n_jac <= res.n_eval + 1


@pytest.mark.parametrize("max_eval", [20000, 3],
                         ids=["lm", "lm-stalls"])
def test_n_jac_counts_every_jacobian_evaluation(monkeypatch, max_eval):
    ch = ReadoutChannel(name="Q", f_r_g=10386e6, chi=-9.9e6, f_p=10407e6,
                        j=39.4e6, kappa_p=81.4e6)
    net = MuxNetwork(channels=(ch,), shunt=PAPER_SHUNT)
    grid = np.linspace(10.2e9, 10.6e9, 201)
    spec_g = synth_spectrum(net, "g", THETA0, TAU, grid, 0.01, seed=1)
    spec_e = synth_spectrum(net, "e", THETA0, TAU, grid, 0.01, seed=2)
    guess = dataclasses.replace(net, channels=(
        dataclasses.replace(ch, f_r_g=ch.f_r_g + 1e6, j=ch.j + 0.5e6),))
    calls = []
    inner = notchlab.specfit._phase_jacobian

    def counted(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(notchlab.specfit, "_phase_jacobian", counted)
    res = fit_reflection(spec_g, spec_e, FitConfig(
        initial=guess, theta0=0.6, tau=0.25e-9, max_eval=max_eval))
    assert res.n_jac == len(calls) >= 1
    if max_eval == 3:
        assert not res.converged
        assert res.n_jac <= max_eval


def test_one_least_squares_call_per_fit(monkeypatch):
    import scipy.optimize
    ch = ReadoutChannel(name="Q", f_r_g=10386e6, chi=-9.9e6, f_p=10407e6,
                        j=39.4e6, kappa_p=81.4e6)
    net = MuxNetwork(channels=(ch,), shunt=PAPER_SHUNT)
    grid = np.linspace(10.2e9, 10.6e9, 201)
    spec_g = synth_spectrum(net, "g", THETA0, TAU, grid, 0.01, seed=1)
    spec_e = synth_spectrum(net, "e", THETA0, TAU, grid, 0.01, seed=2)
    guess = dataclasses.replace(net, channels=(
        dataclasses.replace(ch, f_r_g=ch.f_r_g + 1e6, j=ch.j + 0.5e6),))
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["max_nfev"])
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", counted)
    for max_eval, converged in ((20000, True), (3, False)):
        res = fit_reflection(spec_g, spec_e, FitConfig(
            initial=guess, theta0=0.6, tau=0.25e-9, max_eval=max_eval))
        assert res.converged is converged
    assert calls == [20000, 3]


@pytest.mark.parametrize("seed", [2, 8, 9])
def test_fit_steps_across_zero_j(mux_net, seed):
    # a 72 kHz J on Q1 under a guess up to 1 MHz off: LM trial steps cross
    # J = 0, which the fit must take as |J| instead of rejecting the network
    weak = dataclasses.replace(mux_net.channels[0],
                               j=0.002 * mux_net.channels[0].j)
    net = dataclasses.replace(mux_net, channels=(weak,) + mux_net.channels[1:])
    spec_g = synth_spectrum(net, "g", THETA0, TAU, GRID, 0.02, seed=seed)
    spec_e = synth_spectrum(net, "e", THETA0, TAU, GRID, 0.02,
                            seed=100 + seed)
    rng = np.random.default_rng(seed)
    guess = dataclasses.replace(net, channels=tuple(dataclasses.replace(
        c, j=abs(c.j + rng.uniform(-1e6, 1e6)),
        kappa_p=c.kappa_p + rng.uniform(-2e6, 2e6)) for c in net.channels))
    res = fit_reflection(spec_g, spec_e, FitConfig(initial=guess, theta0=0.5,
                                                   tau=0.25e-9))
    assert res.converged
    assert all(c.j >= 0 for c in res.network.channels)
    # at the noise floor: 0.02 rad on each of 2 x 901 points
    assert res.residual_norm <= 1.1 * 0.02 * math.sqrt(2 * GRID.size)



def test_jacobian_past_zero_j_matches_central_differences(mux_net,
                                                          monkeypatch):
    # past J = 0 the network takes |x|, so the j columns carry d|x|/dx = -1;
    # checked on the residuals and Jacobian that the fit hands LM
    import scipy.optimize
    grid = GRID[::3]
    spec_g = synth_spectrum(mux_net, "g", THETA0, TAU, grid, 0.0)
    spec_e = synth_spectrum(mux_net, "e", THETA0, TAU, grid, 0.0)
    seen = {}

    def capture(fun, x0, jac, **kwargs):
        seen.update(fun=fun, x0=x0, jac=jac)
        return least_squares(fun, x0, jac=jac, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", capture)
    fit_reflection(spec_g, spec_e, FitConfig(initial=mux_net, theta0=THETA0,
                                             tau=TAU))
    sf = notchlab.specfit
    free = all_names(mux_net, tuple(g for g in sf._GROUPS
                                    if g not in sf._DEFAULT_FIXED))
    is_j = np.array([name.startswith("j[") for name in free])
    x = np.where(is_j, -seen["x0"], seen["x0"])
    jac = seen["jac"](x)
    assert np.array_equal(jac[:, is_j], -seen["jac"](seen["x0"])[:, is_j])
    for k, name in enumerate(free):
        h = 1e-3 if name in ("theta0", "tau") else \
            1e3 / sf._SCALE[sf._split(name)[0]]
        up, down = x.copy(), x.copy()
        up[k] += h
        down[k] -= h
        ref = (seen["fun"](up) - seen["fun"](down)) / (2 * h)
        np.testing.assert_allclose(jac[:, k], ref, rtol=0,
                                   atol=1e-5 * np.max(np.abs(ref)),
                                   err_msg=name)


@pytest.mark.parametrize("scale,seed", [(3, 0), (3, 3), (6, 1), (6, 4)])
def test_fit_steps_across_zero_kappa_p(mux_net, scale, seed):
    # every filter linewidth guessed 3 or 6 times too wide and f_p up to
    # 5 MHz off: LM trial steps cross kappa_p = 0, which the fit must take
    # as |kappa_p| instead of rejecting the network
    spec_g = synth_spectrum(mux_net, "g", THETA0, TAU, GRID, 0.2, seed=seed)
    spec_e = synth_spectrum(mux_net, "e", THETA0, TAU, GRID, 0.2,
                            seed=100 + seed)
    rng = np.random.default_rng(seed)
    guess = dataclasses.replace(mux_net, channels=tuple(dataclasses.replace(
        c, kappa_p=scale * c.kappa_p, f_p=c.f_p + rng.uniform(-5e6, 5e6))
        for c in mux_net.channels))
    res = fit_reflection(spec_g, spec_e, FitConfig(initial=guess, theta0=0.5,
                                                   tau=0.25e-9))
    assert res.converged
    # at the noise floor: 0.2 rad on each of 2 x 901 points
    assert res.residual_norm <= 1.05 * 0.2 * math.sqrt(2 * GRID.size)
    for fit, true in zip(res.network.channels, mux_net.channels):
        assert fit.kappa_p == pytest.approx(true.kappa_p, abs=5e6)


def test_bounded_groups_past_zero_take_the_magnitude(mux_net, monkeypatch):
    # past zero the network takes |x| for J, kappa_p and the internal
    # linewidths: the fit's residuals repeat and those Jacobian columns
    # flip sign
    import scipy.optimize
    net = with_internal_loss(mux_net, np.random.default_rng(43))
    spectra = [synth_spectrum(net, s, THETA0, TAU, GRID[::3], 0.0)
               for s in "ge"]
    seen = {}

    def capture(fun, x0, jac, **kwargs):
        seen.update(fun=fun, x0=x0, jac=jac)
        return least_squares(fun, x0, jac=jac, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", capture)
    fit_reflection(*spectra, FitConfig(initial=net, theta0=THETA0, tau=TAU,
                                       fix=(), max_eval=3))
    bounded = np.array([name.split("[")[0] in ("j", "kappa_p", "gamma_r",
                                               "gamma_p")
                        for name in all_names(net)])
    x0 = seen["x0"]
    x = np.where(bounded, -x0, x0)
    assert np.array_equal(seen["fun"](x), seen["fun"](x0))
    assert np.array_equal(seen["jac"](x),
                          seen["jac"](x0) * np.where(bounded, -1.0, 1.0))


def test_internal_linewidth_freed_at_zero_leaves_its_bound(mux_net):
    # channel 3 starts lossless inside a lossy network: its gamma columns
    # are nonzero there, and d|x|/dx = +1 at x = 0 lets LM move them
    truth = with_internal_loss(mux_net, np.random.default_rng(43))
    guess = dataclasses.replace(truth, channels=truth.channels[:3] + (
        dataclasses.replace(truth.channels[3], gamma_r=0.0, gamma_p=0.0),))
    spectra = [synth_spectrum(truth, s, THETA0, TAU, GRID, 0.0) for s in "ge"]
    res = fit_reflection(*spectra, FitConfig(initial=guess, theta0=THETA0,
                                             tau=TAU, fix=()))
    assert res.converged
    fit, true = res.network.channels[3], truth.channels[3]
    assert fit.gamma_r == pytest.approx(true.gamma_r, rel=1e-4)
    assert fit.gamma_p == pytest.approx(true.gamma_p, rel=1e-4)
    assert res.stderr["gamma_r"][3] > 0 and res.stderr["gamma_p"][3] > 0


@pytest.mark.parametrize("fix", [(), ("gamma_p",), ("gamma_r",)])
def test_internal_linewidths_cannot_be_freed_on_a_lossless_network(
        mux_net, fix):
    # |Gamma| = 1 without internal loss, so the phase is stationary in
    # gamma_r and gamma_p and a fit could never leave zero
    with pytest.raises(ValidationError, match="gamma_r/gamma_p"):
        FitConfig(initial=mux_net, fix=fix)
    lossy = with_internal_loss(mux_net, np.random.default_rng(0))
    FitConfig(initial=lossy, fix=fix)
    FitConfig(initial=mux_net)


def test_lossless_network_phase_is_stationary_in_internal_loss(mux_net):
    free = all_names(mux_net)
    spectra = [(PhaseSpectrum(GRID, np.zeros_like(GRID)), s)
               for s in ("gggg", "eeee")]
    jac = notchlab.specfit._phase_jacobian(mux_net, spectra, free)
    for k, name in enumerate(free):
        assert np.all(jac[:, k] == 0) == name.startswith("gamma_"), name
