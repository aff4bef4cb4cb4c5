import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from abcd_oracle import qubit_drive_voltage
from notchlab import (BracketError, CoupledPairGeometry, EquivCap,
                      LumpedPair, MtlCouplerParams, QubitCoupling, ShuntLC,
                      ValidationError, c_ext_from_kappa, c_qr_from_g,
                      capacitive_twin, constrained_pair,
                      enhancement_bandwidth, enhancement_factor,
                      equivalent_pair, j_mtl, map_resonator,
                      mtl_vs_cap_t1_ratio, notch_frequency, notch_from_xi,
                      re_input_admittance, t1_purcell, two_port_z)
from test_mtl import LINE

TWO_PI = 2 * math.pi

PAPER_SHUNT = ShuntLC(c_shunt=230e-15, l_shunt=1.01e-9)


def weak_mtl_geom(scale=0.25):
    """Table geometry with the coupling scaled down into the weak regime."""
    return CoupledPairGeometry(
        974e-6, 1617e-6, 759e-6, 1659e-6,
        MtlCouplerParams(318e-6, 0.066759 * scale, d=5.5e-6), LINE)


def default_coupling(geom, f_q, c_qr_scale=1.0):
    pair = equivalent_pair(geom)
    c_q = 90e-15
    c_qr = c_qr_from_g(420e6, f_q, geom.f_r, c_q, pair.readout.c) * c_qr_scale
    c_ext = c_ext_from_kappa(97.6e6, geom.f_p, pair.filter.c, 50.0)
    return QubitCoupling(c_q=c_q, c_qr=c_qr, c_ext=c_ext, z0_line=50.0,
                         f_q=f_q)


class TestReInputAdmittance:
    def test_zero_z21_decouples(self):
        coup = default_coupling(weak_mtl_geom(), 8.0e9)
        assert re_input_admittance(100j, 80j, 0.0, coup, 8.0e9) == 0.0

    def test_quadratic_scaling(self):
        coup = default_coupling(weak_mtl_geom(), 8.0e9)
        y1 = re_input_admittance(500j, 400j, 1.0j, coup, 8.0e9)
        y2 = re_input_admittance(500j, 400j, 2.0j, coup, 8.0e9)
        assert y2 == pytest.approx(4 * y1, rel=1e-12)

    def test_positive_for_lossless_networks(self):
        rng = np.random.default_rng(2)
        coup = default_coupling(weak_mtl_geom(), 8.0e9)
        for _ in range(200):
            z11 = 1j * rng.uniform(-1e4, 1e4)
            z22 = 1j * rng.uniform(-1e4, 1e4)
            z21 = 1j * rng.uniform(-50, 50)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                y = re_input_admittance(z11, z22, z21, coup,
                                        rng.uniform(2e9, 12e9))
            assert y >= 0.0

    def test_warns_when_z21_not_small(self):
        coup = default_coupling(weak_mtl_geom(), 8.0e9)
        with pytest.warns(UserWarning):
            re_input_admittance(10j, 10j, 9j, coup, 8.0e9)

    def test_zero_frequency_rejected(self):
        coup = default_coupling(weak_mtl_geom(), 8.0e9)
        with pytest.raises(ValidationError):
            re_input_admittance(100j, 80j, 1j, coup, 0.0)


class TestT1Purcell:
    def test_notch_limited_flag(self, mtl_geom):
        f_n = notch_frequency(mtl_geom)
        coup = default_coupling(mtl_geom, f_n)
        res = t1_purcell(mtl_geom, coup)
        assert res.notch_limited and math.isinf(res.t1_s)
        pair = equivalent_pair(mtl_geom)
        res2 = t1_purcell(pair, coup)
        assert res2.notch_limited and math.isinf(res2.t1_s)

    def test_mtl_vs_cap_ratio_infinite_at_the_notch(self, mtl_geom):
        f_n = notch_frequency(mtl_geom)
        coup = default_coupling(mtl_geom, 8.0e9)
        assert t1_purcell(mtl_geom, coup, f_q=f_n).notch_limited
        assert mtl_vs_cap_t1_ratio(mtl_geom, coup, f_q=f_n) == math.inf

    def test_geometry_and_lumped_paths_agree_off_notch(self, mtl_geom):
        coup = default_coupling(mtl_geom, 8.0e9)
        t_geo = t1_purcell(mtl_geom, coup).t1_s
        t_lmp = t1_purcell(equivalent_pair(mtl_geom), coup).t1_s
        assert t_geo == pytest.approx(t_lmp, rel=0.2)

    def test_shunt_increases_t1_at_table_frequencies(self):
        # per-qubit circuits reconstructed from the published bare parameters
        # with the notch inverted from the quoted enhancement factors; the
        # shunt raises T1 by 5-10% for the two lower qubits and by 1-2% for
        # the upper two (the published blanket figure is 5-10%)
        table = {
            "Q1": (10250e6, 10232e6, 36.1e6, 97.6e6, 8032e6, 420e6, 3000.0),
            "Q2": (10386e6, 10407e6, 39.4e6, 81.4e6, 8189e6, 423e6, 85.0),
            "Q3": (10540e6, 10566e6, 30.9e6, 66.7e6, 9046e6, 280e6, 25.0),
            "Q4": (10666e6, 10710e6, 26.2e6, 93.5e6, 8980e6, 275e6, 10.0),
        }
        ratios = {}
        for name, (f_r, f_p, j, kap, f_q, g, xi) in table.items():
            f_bar = 0.5 * (f_r + f_p)
            f_n = notch_from_xi(xi, f_q, f_bar)
            pair = constrained_pair(f_r, f_p, j, f_n)
            c_q = 90e-15
            c_qr = c_qr_from_g(g, f_q, f_r, c_q, pair.readout.c)
            c_ext = c_ext_from_kappa(kap, f_p, pair.filter.c, 50.0)
            coup = QubitCoupling(c_q=c_q, c_qr=c_qr, c_ext=c_ext,
                                 z0_line=50.0, f_q=f_q)
            t_plain = t1_purcell(pair, coup).t1_s
            t_shunt = t1_purcell(pair, coup, shunt=PAPER_SHUNT).t1_s
            ratios[name] = t_shunt / t_plain
        for name, r in ratios.items():
            assert 1.005 < r < 1.12, f"{name}: {r}"
        assert 1.05 < ratios["Q1"] < 1.12
        assert 1.05 < ratios["Q2"] < 1.12

    def test_detuning_fourth_power(self):
        # capacitive coupler, degenerate pair swept at fixed couplings and
        # fixed qubit frequency: T1 grows as the fourth power of detuning
        f_q = 8.0e9
        w_q = TWO_PI * f_q
        c_q = 90e-15
        coup = QubitCoupling(c_q=c_q, c_qr=0.5e-15, c_ext=2e-15,
                             z0_line=50.0, f_q=f_q)
        z_r = 4 * 66.0 / math.pi
        ds = np.logspace(math.log10(0.02), math.log10(0.2), 12)
        t1 = []
        for d in ds:
            f0 = f_q / (1 - d)
            length = LINE.v / (4 * f0)
            res = map_resonator(length, LINE)
            pair = LumpedPair(res, res, EquivCap(0.05e-15))
            t1.append(t1_purcell(pair, coup).t1_s)
        deltas = ds / (1 - ds) * f_q
        slope = np.polyfit(np.log(deltas), np.log(t1), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)


class TestArrayPath:
    """One call on a frequency grid against per-point scalar calls."""

    @pytest.fixture(scope="class")
    def grid(self, mtl_geom):
        # crosses the notch and the shunt screening frequency exactly
        f = np.linspace(7.5e9, 11.0e9, 351)
        return np.sort(np.r_[f, notch_frequency(mtl_geom),
                             PAPER_SHUNT.f_screen])

    @pytest.mark.parametrize("twin", [False, True], ids=["mtl", "cap_twin"])
    @pytest.mark.parametrize("shunt", [None, PAPER_SHUNT],
                             ids=["no_shunt", "shunt"])
    def test_t1_grid_matches_scalar_calls(self, mtl_geom, grid, twin, shunt):
        pair = equivalent_pair(mtl_geom)
        if twin:
            pair = capacitive_twin(pair, j_mtl(mtl_geom, exact=True))
        coup = default_coupling(mtl_geom, 8.0e9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = t1_purcell(pair, coup, f_q=grid, shunt=shunt)
            ref = [t1_purcell(pair, coup, f_q=float(f), shunt=shunt)
                   for f in grid]
        assert res.t1_s.shape == res.notch_limited.shape == grid.shape
        assert not np.isnan(res.t1_s).any()
        assert res.notch_limited.tolist() == [r.notch_limited for r in ref]
        t_ref = np.array([r.t1_s for r in ref])
        assert np.array_equal(np.isinf(res.t1_s), np.isinf(t_ref))
        fin = np.isfinite(t_ref)
        np.testing.assert_allclose(res.t1_s[fin], t_ref[fin], rtol=1e-15,
                                   atol=0)
        # the MTL pair is notch-limited at the notch; its twin nowhere
        assert res.notch_limited.any() != twin

    def test_enhancement_grid_matches_scalar_calls(self, grid):
        f_n, f_bar = 8.2e9, 10.4e9
        f = np.sort(np.r_[grid, f_n])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            xi = enhancement_factor(f, f_n, f_bar)
            ref = np.array([enhancement_factor(float(x), f_n, f_bar)
                            for x in f])
        assert np.array_equal(np.isinf(xi), f == f_n)
        assert np.array_equal(np.isinf(ref), f == f_n)
        fin = f != f_n
        np.testing.assert_allclose(xi[fin], ref[fin], rtol=1e-15, atol=0)

    def test_grid_checks_every_point(self, mtl_geom):
        coup = default_coupling(mtl_geom, 8.0e9)
        with pytest.raises(ValidationError):
            t1_purcell(equivalent_pair(mtl_geom), coup,
                       f_q=np.array([8.0e9, 0.0]))
        with pytest.raises(ValidationError):
            enhancement_factor(np.array([8.0e9, -1.0]), 8.2e9, 10.4e9)
        with pytest.warns(UserWarning):
            re_input_admittance(np.array([500j, 10j]), np.array([400j, 10j]),
                                np.array([1j, 9j]), coup,
                                np.array([8.0e9, 8.1e9]))


class TestEnhancementFactor:
    def test_zero_when_notch_at_mean(self):
        assert enhancement_factor(8.1e9, 10.0e9, 10.0e9) == 0.0

    def test_divergence_law(self):
        f_n = 8.189e9
        f_bar = 10.3965e9
        vals = []
        for delta in (1e6, 1e5, 1e4):
            xi = enhancement_factor(f_n + delta, f_n, f_bar)
            vals.append(xi * delta ** 2)
        assert vals[0] == pytest.approx(vals[1], rel=1e-3)
        assert vals[1] == pytest.approx(vals[2], rel=1e-3)

    def test_infinite_at_notch(self):
        assert math.isinf(enhancement_factor(8.189e9, 8.189e9, 10.4e9))

    def test_monotone_in_detuning(self):
        f_n, f_bar = 8.2e9, 10.4e9
        xis = [enhancement_factor(f_n + d, f_n, f_bar)
               for d in np.linspace(1e6, 1.5e9, 40)]
        assert all(a > b for a, b in zip(xis, xis[1:]))

    def test_full_circuit_ratio_tiers(self):
        # equal-J comparison against the full nodal circuits; the expansion
        # error is O((dqn/fn)^2) once the couplings are weak
        geom = weak_mtl_geom(scale=0.25)  # J ~ 8 MHz
        f_n = notch_frequency(geom)
        f_bar = 0.5 * (geom.f_r + geom.f_p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for frac, tol in ((0.1, 0.20), (0.05, 0.10), (0.01, 0.02)):
                for sign in (+1, -1):
                    f_q = f_n * (1 + sign * frac)
                    coup = default_coupling(geom, f_q, c_qr_scale=0.3)
                    ratio = mtl_vs_cap_t1_ratio(geom, coup)
                    xi = enhancement_factor(f_q, f_n, f_bar)
                    assert abs(ratio - xi) / xi < tol, (frac, sign)


class TestEnhancementBandwidth:
    def test_paper_style_value(self):
        b = enhancement_bandwidth(100.0, 8189e6, 10396.5e6)
        assert b == pytest.approx(310.8e6, rel=1e-3)
        assert b > 200e6

    def test_quadrupling_xi_halves_b(self):
        b1 = enhancement_bandwidth(50.0, 8.2e9, 10.4e9)
        b4 = enhancement_bandwidth(200.0, 8.2e9, 10.4e9)
        assert b4 == pytest.approx(b1 / 2, rel=1e-12)

    def test_unit_xi(self):
        f_n, f_bar = 8.2e9, 10.4e9
        assert enhancement_bandwidth(1.0, f_n, f_bar) == pytest.approx(
            f_n * abs(1 - (f_n / f_bar) ** 2), rel=1e-12)


class TestShunt:
    def test_screening_frequency(self):
        assert PAPER_SHUNT.f_screen == pytest.approx(10.44e9, rel=1e-3)

    def test_impedance_diverges_at_screening(self):
        z = PAPER_SHUNT.impedance(PAPER_SHUNT.f_screen)
        assert abs(z) > 1e6


class TestDriveChainConsistency:
    def test_power_calibration_matches_admittance_model(self):
        # Drive an incident wave through the full cascade, read off the
        # induced qubit drive amplitude, and convert power and amplitude to
        # a relaxation limit; it must agree with the input-admittance route.
        from scipy.constants import hbar

        f0 = 10.0e9
        length = LINE.v / (4 * f0)
        res = map_resonator(length, LINE)
        pair = LumpedPair(res, res, EquivCap(0.5e-15))
        c_q, c_qr, c_ext, z0 = 90e-15, 2e-15, 5e-15, 50.0
        for f_q in (7.0e9, 8.0e9, 8.5e9, 9.3e9):
            w = TWO_PI * f_q
            coup = QubitCoupling(c_q=c_q, c_qr=c_qr, c_ext=c_ext,
                                 z0_line=z0, f_q=f_q)
            t1_adm = t1_purcell(pair, coup).t1_s
            v_x = qubit_drive_voltage(two_port_z(pair, f_q), f_q, c_ext,
                                      c_qr, c_q, z0, v_plus=1.0)
            p_in = 1.0 / (2 * z0)
            omega = c_qr * abs(v_x) * math.sqrt(w / (2 * hbar * c_q))
            t1_drive = 4 * p_in / (omega ** 2 * hbar * w)
            assert t1_drive == pytest.approx(t1_adm, rel=0.05), f_q


class TestNotchFromXi:
    def test_round_trip(self):
        f_q, f_bar = 8.189e9, 10.3965e9
        for xi in (10.0, 85.0, 3000.0):
            f_n = notch_from_xi(xi, f_q, f_bar)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert enhancement_factor(f_q, f_n, f_bar) == pytest.approx(
                    xi, rel=1e-6)

    @pytest.mark.parametrize("bar_lo,bar_hi", [(0.6, 0.99), (1.01, 1.5)],
                             ids=["f_bar_below_f_q", "f_bar_above_f_q"])
    def test_matches_brentq_reference(self, bar_lo, bar_hi):
        # the bracketing solver notch_from_xi used before: same bracket and
        # 1 Hz tolerance
        rng = np.random.default_rng(2024)
        for _ in range(200):
            f_q = rng.uniform(4e9, 9e9)
            f_bar = f_q * rng.uniform(bar_lo, bar_hi)
            xi = 10 ** rng.uniform(0.2, 4.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref = brentq(lambda f_n: enhancement_factor(f_q, f_n, f_bar)
                             - xi, 0.3 * f_q, f_q * (1.0 - 1e-12), xtol=1.0)
            assert abs(notch_from_xi(xi, f_q, f_bar) - ref) <= 2.0

    def test_unreachable_xi_is_bracket_error(self):
        # with f_q = f_bar, xi = ((f_q + f_n)/(2 f_q))^2 <= 1 below f_q
        with pytest.raises(BracketError, match="no notch below f_q"):
            notch_from_xi(1.5, 8e9, 8e9)
