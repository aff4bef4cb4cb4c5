import ast
import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import hbar
from scipy.stats import norm

from notchlab import (QubitCoupling, ReadoutCounts, ValidationError,
                      coherence_limits, error_budget, fidelities,
                      gamma_filter, gamma_incident, incident_from_resonator,
                      photons_from_stark, rabi_to_omega, separation_error,
                      shot_analysis, stark_linear_fit, steady_state,
                      t1_from_drive, wilson_interval)
import notchlab
from notchlab import metrics
from notchlab.metrics import sigma_ellipse_radius

TWO_PI = 2 * math.pi


class TestPhotonsFromStark:
    def test_unit_photon(self):
        assert photons_from_stark(-15.6e6, -7.8e6) == 1.0

    def test_sign_mismatch_warns(self):
        with pytest.warns(UserWarning):
            n = photons_from_stark(+15.6e6, -7.8e6)
        assert n < 0

    def test_zero_chi_rejected(self):
        with pytest.raises(ValidationError):
            photons_from_stark(1e6, 0.0)

    def test_identity_with_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.uniform(0.01, 20.0)
            chi = rng.uniform(-20e6, -1e6)
            assert photons_from_stark(2 * chi * n, chi) == pytest.approx(
                n, rel=1e-12)

    def test_paper_chain_value(self):
        # 1.05 critical-photon fractions at n_crit = 6.7 for the second qubit
        chi = -9.9e6
        n = 1.05 * 6.7
        delta_ac = 2 * chi * n
        assert photons_from_stark(delta_ac, chi) == pytest.approx(7.035)


class TestIncidentFromResonator:
    def test_zero_target(self, mux_net):
        s_in, p = incident_from_resonator(mux_net, "Q2", 10.357e9, 0.0)
        assert s_in == 0 and p == 0

    def test_forward_backward_round_trip(self, mux_net):
        f_d = 10.357e9
        for s_true in (1e6, 2.3e6 * np.exp(0.7j)):
            x = steady_state(mux_net, "gggg", f_d, s_true)
            r_target = x[mux_net.n + 1]
            s_in, p = incident_from_resonator(mux_net, "Q2", f_d, r_target)
            assert abs(s_in - s_true) / abs(s_true) < 1e-9
            assert p == pytest.approx(hbar * TWO_PI * f_d * abs(s_true) ** 2,
                                      rel=1e-9)

    def test_power_quadratic_in_target(self, mux_net):
        f_d = 10.357e9
        _, p1 = incident_from_resonator(mux_net, "Q2", f_d, 1.0)
        _, p2 = incident_from_resonator(mux_net, "Q2", f_d, 2.0)
        assert p2 == pytest.approx(4 * p1, rel=1e-9)


def incident_by_hand(net, channel, f_d, r_target, state):
    """The hand inversion incident_from_resonator used before steady_state.

    Readout amplitude -> filter amplitude -> field incident on the filter,
    scaled to the device input by (1 + Gamma_p)/(1 + Gamma_incident).
    """
    idx = net.index(channel)
    ch = net.channels[idx]
    d_r = TWO_PI * (ch.f_r(state[idx]) - f_d)
    d_p = TWO_PI * (ch.f_p - f_d)
    kap = TWO_PI * ch.kappa_p
    g_r = TWO_PI * ch.gamma_r
    g_p = TWO_PI * ch.gamma_p
    j = TWO_PI * ch.j
    p = -(1j * d_r - 0.5 * g_r) * r_target / (1j * j)
    p_in = -((1j * d_p - 0.5 * (kap + g_p)) * p + 1j * j * r_target) \
        / math.sqrt(kap)
    s_in = p_in * (1.0 + gamma_filter(ch, state[idx], f_d)) \
        / (1.0 + gamma_incident(net, state, f_d))
    return s_in, hbar * TWO_PI * f_d * abs(s_in) ** 2


class TestIncidentFromResonatorVsHandInversion:
    def test_every_channel_state_and_carrier(self, mux_net):
        worst = 0.0
        r_target = 3.0e3 * np.exp(0.4j)
        for state in ("gggg", "eeee", "gegg"):
            for ch in mux_net.channels:
                for f_d in np.linspace(10.1e9, 10.8e9, 41).tolist():
                    s_in, p = incident_from_resonator(mux_net, ch.name, f_d,
                                                      r_target, state)
                    s_ref, p_ref = incident_by_hand(mux_net, ch.name, f_d,
                                                    r_target, state)
                    worst = max(worst, abs(s_in - s_ref) / abs(s_ref),
                                abs(p - p_ref) / p_ref)
        assert worst <= 1e-12


class TestStarkLinearFit:
    def test_exact_line(self):
        pts = [(p, 8.0e9 + 3.5e12 * p) for p in (0.0, 1e-6, 3e-6, 7e-6)]
        f_q, k, err = stark_linear_fit(pts)
        assert f_q == pytest.approx(8.0e9, abs=1.0)
        assert k == pytest.approx(3.5e12, rel=1e-9)

    def test_zero_slope(self):
        pts = [(p, 8.0e9) for p in (1e-6, 2e-6, 3e-6)]
        f_q, k, err = stark_linear_fit(pts)
        assert f_q == pytest.approx(8.0e9)
        # slope consistent with zero at the conditioning floor (Hz/W scale)
        assert abs(k) < 1.0

    def test_coverage(self):
        # 3-sigma coverage of the intercept error in >= 95% of seeds
        rng = np.random.default_rng(42)
        powers = np.linspace(0, 5e-6, 12)
        hits = 0
        n_try = 1000
        for _ in range(n_try):
            noise = rng.normal(0, 10e3, powers.size)
            pts = list(zip(powers, 8.0e9 + 2e12 * powers + noise))
            f_q, _, err = stark_linear_fit(pts)
            if abs(f_q - 8.0e9) < 3 * err:
                hits += 1
        assert hits / n_try >= 0.95

    def test_femtowatt_powers_same_fit_as_scaled_units(self):
        # eight powers from 0 to 1 fW in watts fit as the same data in fW
        rng = np.random.default_rng(7)
        p_fw = np.linspace(0.0, 1.0, 8)
        f = 8.0e9 - 25e6 * p_fw + rng.normal(0, 20e3, p_fw.size)
        f_q, k, err = stark_linear_fit(zip(p_fw * 1e-15, f))
        f_q_fw, k_fw, err_fw = stark_linear_fit(zip(p_fw, f))
        assert f_q == pytest.approx(f_q_fw, rel=1e-12)
        assert k * 1e-15 == pytest.approx(k_fw, rel=1e-9)
        assert err == pytest.approx(err_fw, rel=1e-9)
        assert abs(f_q - 8.0e9) < 6 * err
        # a constant femtowatt power is still degenerate
        with pytest.raises(ValidationError, match="rank-deficient"):
            stark_linear_fit([(1e-15, 8e9), (1e-15, 8.1e9), (1e-15, 8.2e9)])

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            stark_linear_fit([(1e-6, 8e9), (1e-6, 8.1e9), (1e-6, 8.2e9)])
        with pytest.raises(ValidationError):
            stark_linear_fit([(1e-6, 8e9), (2e-6, 8.1e9)])


def stark_lstsq_fit(points):
    """The Stark fit as first written: lstsq on power scaled to [-1, 1]."""
    pts = np.array([(float(p), float(f)) for p, f in points]).reshape(-1, 2)
    p, f = pts.T
    p_mid = float(np.mean(p))
    p_span = float(np.max(np.abs(p - p_mid))) or 1.0
    a = np.column_stack([np.ones_like(p), (p - p_mid) / p_span])
    coef, *_ = np.linalg.lstsq(a, f, rcond=None)
    resid = f - a @ coef
    cov = float(resid @ resid) / (len(pts) - 2) * np.linalg.inv(a.T @ a)
    k = float(coef[1]) / p_span
    g = np.array([1.0, -p_mid / p_span])
    return float(coef[0]) - k * p_mid, k, math.sqrt(max(g @ cov @ g, 0.0))


class TestStarkFitVsLstsq:
    @pytest.mark.parametrize("unit", [1.0, 1e-6, 1e-15])
    def test_matches_lstsq_reference(self, unit):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            p = rng.uniform(0.0, 5.0, n) * unit
            f = 8.0e9 + rng.normal(-2e6, 1e6) / unit * p \
                + rng.normal(0, 20e3, n)
            got = stark_linear_fit(zip(p, f))
            ref = stark_lstsq_fit(zip(p, f))
            for a, b in zip(got, ref):
                assert a == pytest.approx(b, rel=1e-9)


class TestT1FromDrive:
    def test_quarter_on_double_amplitude(self):
        t1 = t1_from_drive(1e-12, 1e6, 10e9)
        t4 = t1_from_drive(1e-12, 2e6, 10e9)
        assert t1 == pytest.approx(4 * t4, rel=1e-12)

    def test_rabi_conversions(self):
        assert rabi_to_omega(5e6, "ge") == 5e6
        assert rabi_to_omega(5e6, "ef") == pytest.approx(5e6 / math.sqrt(2))
        with pytest.raises(ValidationError):
            rabi_to_omega(5e6, "gf")

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValidationError):
            t1_from_drive(1e-12, 0.0, 10e9)


class TestSeparationError:
    def test_printed_table_values(self):
        # published error-budget rows at the measured SNRs
        assert round(separation_error(6.3) * 100, 2) == 0.08
        assert separation_error(8.4) < 1e-4          # prints as < 0.01 %
        assert round(separation_error(6.0) * 100, 2) == 0.13
        assert round(separation_error(6.7) * 100, 2) == 0.04

    def test_zero_snr(self):
        assert separation_error(0.0) == 0.5

    def test_strictly_decreasing_to_zero(self):
        snrs = np.linspace(0, 12, 200)
        vals = [separation_error(s) for s in snrs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert 0 < separation_error(50.0) < 1e-130

    def test_matches_normal_tail(self):
        # the misassignment is the normal tail beyond half the separation
        snrs = np.linspace(0, 50, 501)
        vals = [separation_error(s) for s in snrs]
        np.testing.assert_allclose(vals, norm.sf(snrs / 2), rtol=1e-12)


class TestCoherenceLimits:
    def test_printed_table_values(self):
        for t1_us, cl in ((45.0, 0.06), (26.0, 0.11), (38.0, 0.07),
                          (34.0, 0.08)):
            eps, _ = coherence_limits(56e-9, 116e-9, t1_us * 1e-6)
            assert round(eps * 100, 2) == cl

    def test_qnd_budget_with_inferred_buffer(self):
        # the 116 ns buffer reproduces the published QND coherence limit
        _, eps_q = coherence_limits(56e-9, 116e-9, 26e-6)
        assert round(eps_q * 100, 2) == 0.33

    def test_long_t1_limit(self):
        eps, eps_q = coherence_limits(56e-9, 116e-9, 10.0)
        assert eps < 1e-8 and eps_q < 1e-8


class TestFidelities:
    def _counts(self, p0_eg=0.0003, ppi_gg=0.0016, p0_ee=0.997, n=100000):
        no_pulse = np.array([[round(n * (1 - p0_eg)), round(n * p0_eg)],
                             [100, 900]])
        pi_second = np.array([[round(n * ppi_gg), round(n * (1 - ppi_gg))],
                              [50, 50]])
        pi_first = np.array([[990, 10],
                             [round(n * (1 - p0_ee)), round(n * p0_ee)]])
        return ReadoutCounts(no_pulse, pi_second, pi_first)

    def test_perfect_counts(self):
        counts = ReadoutCounts([[1000, 0], [0, 10]],
                               [[0, 1000], [0, 10]],
                               [[10, 0], [0, 1000]])
        fid = fidelities(counts)
        assert fid.f == 1.0 and fid.f_q == 1.0

    def test_published_assignment_error(self):
        fid = fidelities(self._counts())
        assert 1 - fid.f == pytest.approx(0.00095, abs=2e-5)
        assert round((1 - fid.f) * 100, 2) == 0.09 or \
            round((1 - fid.f) * 100, 2) == 0.1

    def test_symmetric_flip(self):
        counts = ReadoutCounts([[9900, 100], [0, 1]],
                               [[100, 9900], [0, 1]],
                               [[1, 0], [100, 9900]])
        fid = fidelities(counts)
        assert fid.f == pytest.approx(0.99, abs=1e-12)

    def test_scale_invariance(self):
        c1 = self._counts(n=10000)
        c2 = ReadoutCounts(c1.no_pulse * 7, c1.pi_before_second * 7,
                           c1.pi_before_first * 7)
        f1, f2 = fidelities(c1), fidelities(c2)
        assert f1.f == f2.f and f1.f_q == f2.f_q

    def test_empty_cell_named(self):
        counts = ReadoutCounts([[0, 0], [5, 5]], [[1, 1], [1, 1]],
                               [[1, 1], [1, 1]])
        with pytest.raises(ValidationError, match="no_pulse"):
            fidelities(counts)

    def test_wilson_interval_basic(self):
        lo, hi = wilson_interval(90, 100)
        assert lo < 0.9 < hi
        assert 0 <= lo and hi <= 1


class TestErrorBudget:
    def test_table_row(self):
        b = error_budget(8.4, 56e-9, 116e-9, 26e-6)
        assert b.eps_sep < 1e-4
        assert round(b.eps_cl * 100, 2) == 0.11
        assert round(b.eps_cl_q * 100, 2) == 0.33
        assert b.f is None


class TestShotAnalysis:
    def _blobs(self, rng, snr=8.0, n=60000, sigma=1.0):
        half = n // 2
        g = rng.normal(0, sigma, (half, 2))
        e = rng.normal(0, sigma, (half, 2)) + np.array([snr * sigma, 0.0])
        iq = np.vstack([g, e])
        labels = np.array([0] * half + [1] * half)
        perm = rng.permutation(n)
        return iq[perm], labels[perm]

    def test_assignment_error_tracks_overlap(self):
        rng = np.random.default_rng(1)
        iq, labels = self._blobs(rng, snr=8.0, n=120000)
        ana = shot_analysis(iq, labels, n_train=20000)
        err = 1 - ana.accuracy
        floor = separation_error(8.0)
        assert err < 2 * floor
        assert ana.stats.snr == pytest.approx(8.0, abs=0.1)

    def test_identical_distributions_coin_flip(self):
        rng = np.random.default_rng(2)
        iq, labels = self._blobs(rng, snr=0.0, n=40000)
        ana = shot_analysis(iq, labels, n_train=20000)
        assert ana.accuracy == pytest.approx(0.5, abs=0.01)

    def test_planted_outliers_recovered(self):
        rng = np.random.default_rng(3)
        iq, labels = self._blobs(rng, snr=8.0, n=100000)
        n_plant = round(0.001 * len(labels))
        idx = rng.choice(len(labels), n_plant, replace=False)
        iq[idx] = np.array([4.0, 8.0 * 1.0]) + rng.normal(0, 0.3,
                                                          (n_plant, 2))
        ana = shot_analysis(iq, labels, n_train=20000)
        n_eval = (~ana.train_mask).sum()
        frac = ana.leakage_suspect.sum() / n_eval
        assert frac == pytest.approx(0.001, abs=0.0003)

    def test_four_sigma_ellipse_mass(self):
        # the 4-sigma confidence ellipse holds 99.994% of its own Gaussian
        rng = np.random.default_rng(4)
        n = 2_000_000
        xy = rng.multivariate_normal([0, 0], [[2.0, 0.7], [0.7, 1.0]], n)
        cov = np.cov(xy.T)
        d = xy - xy.mean(axis=0)
        m2 = np.einsum("ij,ji->i", d, np.linalg.solve(cov, d.T))
        inside = np.mean(m2 <= sigma_ellipse_radius(4.0) ** 2)
        assert inside == pytest.approx(0.99994, abs=3e-5)

    def test_sigma_ellipse_radii(self):
        # 1-sigma ellipse holds 68.27%; radii increase with k
        assert sigma_ellipse_radius(1.0) == pytest.approx(
            math.sqrt(-2 * math.log(1 - math.erf(1 / math.sqrt(2)))), rel=1e-12)
        assert sigma_ellipse_radius(4.0) > sigma_ellipse_radius(1.0)

    def test_degenerate_covariance_rejected(self):
        iq = np.zeros((400, 2))
        labels = np.array([0] * 200 + [1] * 200)
        with pytest.raises(ValidationError):
            shot_analysis(iq, labels, n_train=100)

    def test_minimum_shots_enforced(self):
        rng = np.random.default_rng(5)
        iq = rng.normal(0, 1, (150, 2))
        labels = np.array([0] * 99 + [1] * 51)
        with pytest.raises(ValidationError):
            shot_analysis(iq, labels)

    @pytest.mark.parametrize("form", [
        lambda lab: lab,
        lambda lab: lab.astype(bool),
        lambda lab: lab.astype(float),
        lambda lab: lab.astype(str),
        lambda lab: np.array(["g", "e"])[lab],
        lambda lab: [("g", "e")[k] for k in lab],
        lambda lab: np.array([(0, "e")[k] for k in lab], dtype=object),
    ], ids=["int", "bool", "float", "str-digits", "str-ge", "list-ge",
            "object-mixed"])
    def test_label_forms_agree(self, form):
        rng = np.random.default_rng(6)
        iq, labels = self._blobs(rng, snr=4.0, n=4000)
        ref = shot_analysis(iq, labels, n_train=2000)
        ana = shot_analysis(iq, form(labels), n_train=2000)
        assert np.array_equal(ana.labels, labels)
        assert np.array_equal(ana.assigned, ref.assigned)

    @pytest.mark.parametrize("bad,shown", [
        (2, "2"), ("x", "'x'"), ("G", "'G'"), (0.5, "0.5"), (None, "None"),
    ])
    def test_unknown_label_named(self, bad, shown):
        # the old per-shot rule str(l) in ("0", "g") counted these as e
        rng = np.random.default_rng(7)
        iq, labels = self._blobs(rng, snr=4.0, n=1000)
        mixed = labels.astype(object)
        mixed[[17, 400]] = bad
        with pytest.raises(ValidationError, match=f"shot label {re.escape(shown)} "):
            shot_analysis(iq, mixed)

    def test_one_label_per_shot(self):
        rng = np.random.default_rng(8)
        iq, labels = self._blobs(rng, snr=4.0, n=1000)
        with pytest.raises(ValidationError, match="one label per shot"):
            shot_analysis(iq, labels.reshape(2, -1))

    def test_complex_iq_matches_pairs(self):
        rng = np.random.default_rng(9)
        xy, labels = self._blobs(rng, snr=3.0, n=4000)
        xy[-20:] = [1.5, 8.0]  # outside both 4-sigma ellipses
        ref = shot_analysis(xy, labels, n_train=2000)
        ana = shot_analysis(xy[:, 0] + 1j * xy[:, 1], labels, n_train=2000)
        assert ana.stats == ref.stats and ana.accuracy == ref.accuracy
        for name in ("weights", "assigned", "misassigned", "diamonds",
                     "circles", "triangles", "leakage_suspect"):
            assert np.array_equal(getattr(ana, name), getattr(ref, name)), name
        assert ref.diamonds.any() and ref.circles.any()


def logistic_irls(x, y, max_iter=50, tol=1e-10):
    """The iteratively reweighted logistic fit shot_analysis used before.

    When the training shots are linearly separable the maximum-likelihood
    weights do not exist; this loop then stops at max_iter with |w| growing.
    """
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


def shot_record(seed, snr, n=40000):
    """Unit-variance IQ clouds snr apart along a random axis, random labels."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    axis = np.exp(1j * rng.uniform(0, 2 * math.pi))
    iq = np.where(labels == 1, snr * axis, 0.0) + rng.normal(size=n) \
        + 1j * rng.normal(size=n)
    return np.column_stack([iq.real, iq.imag]), labels


class TestFisherDiscriminant:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("snr", [6.0, 6.3, 6.7, 8.4])
    def test_assignments_match_logistic_reference(self, seed, snr):
        xy, labels = shot_record(seed, snr)
        ana = shot_analysis(xy, labels, n_train=20000)
        w = logistic_irls(xy[:20000], labels[:20000].astype(float))
        ref = (w[0] + xy[20000:] @ w[1:] > 0).astype(int)
        assert np.count_nonzero(ana.assigned[20000:] != ref) <= 20

    @pytest.mark.parametrize("snr", [8.4, 12.0])
    def test_separable_training_finite_weights(self, snr):
        xy, labels = shot_record(3, snr)
        ana = shot_analysis(xy, labels, n_train=20000)
        train = ana.train_mask
        # the training shots are linearly separable: no logistic optimum
        assert np.array_equal(ana.assigned[train], labels[train])
        assert np.all(np.isfinite(ana.weights))
        assert np.linalg.norm(ana.weights[1:]) == pytest.approx(snr, rel=0.05)

    def test_mahalanobis_matches_solve(self):
        rng = np.random.default_rng(11)
        xy = rng.multivariate_normal([0.3, -1.0], [[2.0, 0.7], [0.7, 1.0]],
                                     40000)
        mu = xy.mean(axis=0)
        cov = np.cov(xy.T)
        d = xy - mu
        ref = np.einsum("ij,ji->i", d, np.linalg.solve(cov, d.T))
        got = metrics._mahalanobis2(xy, mu, metrics._precision(cov))
        assert np.max(np.abs(got - ref) / ref) < 1e-12

    def test_stats_bit_identical_to_moment_formula(self):
        xy, labels = shot_record(5, 6.3)
        stats = shot_analysis(xy, labels).stats
        g, e = xy[labels == 0], xy[labels == 1]
        mu_g, mu_e = g.mean(axis=0), e.mean(axis=0)
        axis = (mu_e - mu_g) / np.linalg.norm(mu_e - mu_g)
        assert stats.mu_g == complex(*mu_g) and stats.mu_e == complex(*mu_e)
        assert stats.sigma_g == float(np.std((g - mu_g) @ axis, ddof=1))
        assert stats.sigma_e == float(np.std((e - mu_e) @ axis, ddof=1))

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("n_train", [20000, 150, None])
    def test_bit_identical_to_mask_built_subsets(self, seed, n_train):
        xy, labels = shot_record(seed, 6.3)
        n_train = len(labels) if n_train is None else n_train
        ana = shot_analysis(xy, labels, n_train=n_train)
        # the weights as computed from masks over all shots
        train = np.arange(len(labels)) < n_train
        tg, te = xy[train & (labels == 0)], xy[train & (labels == 1)]
        m_g, m_e = tg.mean(axis=0), te.mean(axis=0)
        pooled = ((len(tg) - 1) * np.cov(tg.T) + (len(te) - 1) * np.cov(te.T)) \
            / (n_train - 2)
        w = metrics._precision(pooled) @ (m_e - m_g)
        w = np.concatenate([[math.log(len(te) / len(tg))
                             - w @ (m_g + m_e) / 2.0], w])
        assert np.array_equal(ana.weights, w)
        assert np.array_equal(ana.assigned, (w[0] + xy @ w[1:] > 0).astype(int))
        assert np.array_equal(ana.train_mask, train)
        assert (ana.stats.n_g, ana.stats.n_e) == (np.sum(labels == 0),
                                                  np.sum(labels == 1))

    @pytest.mark.parametrize("n_train", [150, 0, -5])
    def test_too_few_training_shots_named(self, n_train):
        xy, labels = shot_record(6, 6.3, n=1000)
        order = np.argsort(labels, kind="stable")  # all g shots first
        with pytest.raises(ValidationError, match="n_train = "):
            shot_analysis(xy[order], labels[order], n_train=n_train)


class TestMetricsConstants:
    def test_hbar_is_scipy_value(self):
        assert metrics.hbar == hbar

    @pytest.mark.parametrize("name", sorted(
        path.stem for path in Path(notchlab.__file__).parent.glob("*.py")
        if path.stem not in ("mux", "specfit")))
    def test_module_imports_no_scipy(self, name):
        # scipy loads only for expm (mux) and the optimizers (specfit)
        module = importlib.import_module(f"notchlab.{name}")
        tree = ast.parse(inspect.getsource(module))
        names = [a.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for a in node.names]
        names += [node.module or "" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)]
        assert not [m for m in names if m.split(".")[0] == "scipy"]


class TestMatchedFilter:
    def test_proportional_and_normalized(self, mux_net):
        from notchlab import DrivePulse, matched_filter_weights, separation
        pulse = DrivePulse.rectangular(10.357e9, 1e6, 60e-9)
        res = separation(mux_net, "Q2", pulse, 1e-9)
        w = matched_filter_weights(res.t, res.s)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        nz = res.s > 0
        ratio = w[nz] / res.s[nz]
        assert np.allclose(ratio, ratio[0])

    def test_empty_signal_rejected(self):
        from notchlab import matched_filter_weights
        with pytest.raises(ValidationError):
            matched_filter_weights(np.arange(5.0), np.zeros(5))


class TestQubitCouplingType:
    def test_positive_fields(self):
        with pytest.raises(ValidationError):
            QubitCoupling(c_q=-1e-15, c_qr=1e-15, c_ext=1e-15, z0_line=50,
                          f_q=8e9)
