import dataclasses
import math

import numpy as np
import pytest

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
            phase_rad=spec_g.phase_rad + 2 * math.pi, state="g")
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
                         ids=["lm", "lm-stalls-simplex-polish"])
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
        assert res.n_eval > 2 * max_eval  # the restart and polish count too
