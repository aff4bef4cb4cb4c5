import math
import warnings

import numpy as np
import pytest

from abcd_oracle import z21_lumped_cascade
from notchlab import (CoupledPairGeometry, DegenerateNotchError, EquivCap,
                      LineParams, LumpedPair, LumpedResonator,
                      MtlCouplerParams, UnboundedCouplerError,
                      ValidationError, equivalent_cap, equivalent_pair,
                      j_capacitive, j_mtl, map_resonator, notch_branch,
                      notch_frequency, z21_homogeneous, z21_lumped)
from test_mtl import LINE, random_mtl_geom

TWO_PI = 2 * math.pi


class TestMapResonator:
    def test_characteristic_impedance_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            length = rng.uniform(0.2e-3, 8e-3)
            z0 = rng.uniform(20, 120)
            v = rng.uniform(0.8e8, 2.0e8)
            res = map_resonator(length, LineParams(z0, v))
            assert res.z == pytest.approx(4 * z0 / math.pi, rel=1e-12)

    def test_resonance_preserved_exactly(self):
        # sqrt(LC) = 2*length/(pi*v), so 1/(2 pi sqrt(LC)) = v/(4 length)
        rng = np.random.default_rng(1)
        for _ in range(50):
            length = rng.uniform(0.2e-3, 8e-3)
            res = map_resonator(length, LINE)
            assert res.f0 == pytest.approx(LINE.v / (4 * length), rel=1e-12)

    def test_table_design_values(self):
        # 2909 um, 66 ohm, 1.19e8 m/s per the published design row
        res = map_resonator(2909e-6, LINE)
        assert res.c == pytest.approx(185.19e-15, rel=1e-3)
        assert res.l == pytest.approx(1.3078e-9, rel=1e-3)


class TestEquivalentCap:
    def test_shorted_end_gives_zero(self, cap_geom):
        geom = CoupledPairGeometry(
            l_r_open=cap_geom.l_r_open + cap_geom.l_r_short, l_r_short=0.0,
            l_p_open=cap_geom.l_p_open, l_p_short=cap_geom.l_p_short,
            coupler=cap_geom.c_j, line=LINE)
        assert equivalent_cap(1.4e-15, geom) == 0.0

    def test_open_end_maximum(self):
        geom = CoupledPairGeometry(0.0, 2909e-6, 0.0, 2736e-6, 1.4e-15, LINE)
        assert equivalent_cap(1.4e-15, geom) == pytest.approx(1.4e-15, rel=1e-12)

    def test_table_value(self, cap_geom):
        # C_J = 1.4 fF with sin factors 0.8185 and 0.8640
        val = equivalent_cap(1.4e-15, cap_geom)
        assert val == pytest.approx(1.4e-15 * 0.8185 * 0.8640, rel=1e-3)

    def test_equivalent_pair_couples_through_it(self, cap_geom):
        pair = equivalent_pair(cap_geom)
        assert isinstance(pair.coupler, EquivCap)
        assert pair.coupler.c_j_eff == equivalent_cap(cap_geom.c_j, cap_geom)


class TestJCapacitive:
    def test_table_value_within_5pc_of_30mhz(self, cap_geom):
        j = j_capacitive(cap_geom, 1.4e-15)
        assert j == pytest.approx(29.08e6, rel=1e-3)
        assert abs(j - 30e6) / 30e6 < 0.05

    def test_zero_cap(self, cap_geom):
        assert j_capacitive(cap_geom, 0.0) == 0.0

    def test_eigen_splitting_oracle(self):
        # degenerate pair, coupling at the open ends: J should equal half the
        # splitting of the circuit normal modes.  The gap grows like
        # 3 J / w0 from the counter-rotating terms, about 0.8% per fF here.
        geom = CoupledPairGeometry(0.0, 2909e-6, 0.0, 2909e-6, 1e-15, LINE)
        res = map_resonator(2909e-6, LINE)
        for c_j, tol in ((0.5e-15, 0.005), (1.0e-15, 0.01), (2.0e-15, 0.02)):
            j = j_capacitive(geom, c_j)
            cmat = np.array([[res.c + c_j, -c_j], [-c_j, res.c + c_j]])
            linv = np.diag([1 / res.l, 1 / res.l])
            w2 = np.linalg.eigvalsh(np.linalg.inv(cmat) @ linv)
            split = abs(math.sqrt(w2[1]) - math.sqrt(w2[0])) / TWO_PI
            assert abs(j - split / 2) / j < tol


class TestNotchBranch:
    def test_resonance_matches_notch_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            geom = random_mtl_geom(rng)
            branch = notch_branch(geom)
            assert branch.f0 == pytest.approx(notch_frequency(geom), rel=1e-12)

    def test_halving_coupling_doubles_zn(self, mtl_geom):
        z1 = notch_branch(mtl_geom).z
        half = CoupledPairGeometry(
            mtl_geom.l_r_open, mtl_geom.l_r_short, mtl_geom.l_p_open,
            mtl_geom.l_p_short,
            MtlCouplerParams(mtl_geom.len_c, mtl_geom.coupler.cm_over_c / 2),
            LINE)
        assert z1 > 0
        assert notch_branch(half).z == pytest.approx(2 * z1, rel=1e-12)

    def test_zero_coupling_unbounded(self, mtl_geom):
        geom = CoupledPairGeometry(
            mtl_geom.l_r_open, mtl_geom.l_r_short, mtl_geom.l_p_open,
            mtl_geom.l_p_short, MtlCouplerParams(mtl_geom.len_c, 0.0), LINE)
        with pytest.raises(UnboundedCouplerError):
            notch_branch(geom)

    def test_value_and_slope_match_at_notch(self):
        # the defining conditions: equal zeros and equal first derivatives
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 25:
            geom = random_mtl_geom(rng, r_max=0.08)
            f_n = notch_frequency(geom)
            # keep the notch well separated from the lambda/4 poles
            if min(abs(f_n - geom.f_r), abs(f_n - geom.f_p)) < 0.3e9:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pair = equivalent_pair(geom)
            h = 1e3
            d_l = (z21_lumped(pair, f_n + h).imag
                   - z21_lumped(pair, f_n - h).imag) / (2 * h)
            d_d = (z21_homogeneous(geom, f_n + h).imag
                   - z21_homogeneous(geom, f_n - h).imag) / (2 * h)
            assert abs(z21_lumped(pair, f_n)) < 1e-9
            assert d_l == pytest.approx(d_d, rel=1e-6)
            checked += 1


class TestJMtl:
    def test_table_value_within_10pc_of_30mhz(self, mtl_geom):
        j = j_mtl(mtl_geom)
        assert j == pytest.approx(32.12e6, rel=1e-3)
        assert abs(j - 30e6) / 30e6 < 0.10

    def test_zero_coupling(self, mtl_geom):
        geom = CoupledPairGeometry(
            mtl_geom.l_r_open, mtl_geom.l_r_short, mtl_geom.l_p_open,
            mtl_geom.l_p_short, MtlCouplerParams(mtl_geom.len_c, 0.0), LINE)
        assert j_mtl(geom) == 0.0

    def test_exact_vs_expansion(self, mtl_geom):
        # detuning 647 MHz against a 8.28 GHz notch: expansion within 1%
        j0 = j_mtl(mtl_geom)
        j1 = j_mtl(mtl_geom, exact=True)
        assert abs(j0 - j1) / j1 < 0.01

    def test_expansion_order_scaling(self):
        # relative gap below 1e-3 once the detuning is under 1% of the notch
        base = dict(l_r_open=1.0e-3, l_p_open=1.0e-3, l_r_short=1.2e-3,
                    l_p_short=1.2e-3)
        cpl = MtlCouplerParams(0.3e-3, 0.05)
        for d_scale, bound in ((0.02, 2e-3), (0.008, 1e-3)):
            geom = CoupledPairGeometry(
                l_r_open=base["l_r_open"] * (1 + d_scale),
                l_r_short=base["l_r_short"],
                l_p_open=base["l_p_open"] * (1 - d_scale),
                l_p_short=base["l_p_short"], coupler=cpl, line=LINE)
            d_rel = abs(geom.f_r - geom.f_p) / notch_frequency(geom)
            j0, j1 = j_mtl(geom), j_mtl(geom, exact=True)
            assert d_rel < 0.011 if d_scale < 0.01 else True
            assert abs(j0 - j1) / j1 < bound

    def test_degenerate_notch_rejected(self):
        # short-side path tuned so the notch sits at the mean mode frequency
        geom = CoupledPairGeometry(
            l_r_open=0.4545e-3, l_r_short=2.0e-3, l_p_open=0.4545e-3,
            l_p_short=2.0e-3, coupler=MtlCouplerParams(0.3e-3, 0.05),
            line=LINE)
        # (l_rs + l_c + l_ps) = 4.3 mm vs total 2.7545+... tune exactly:
        # pick open lengths so f_bar equals f_n
        l_n = geom.l_r_short + geom.len_c + geom.l_p_short
        open_len = l_n - geom.len_c - geom.l_r_short  # makes ell_r = l_n
        geom = CoupledPairGeometry(
            l_r_open=open_len, l_r_short=geom.l_r_short,
            l_p_open=open_len, l_p_short=geom.l_p_short,
            coupler=geom.coupler, line=LINE)
        assert notch_frequency(geom) == pytest.approx(
            0.5 * (geom.f_r + geom.f_p), rel=1e-12)
        with pytest.raises(DegenerateNotchError):
            j_mtl(geom)

    def test_detuning_warning(self):
        geom = CoupledPairGeometry(0.1e-3, 1.0e-3, 1.4e-3, 1.6e-3,
                                   MtlCouplerParams(0.3e-3, 0.05), LINE)
        assert abs(geom.f_r - geom.f_p) > 0.1 * notch_frequency(geom)
        with pytest.warns(UserWarning):
            j_mtl(geom)

    def test_eigen_splitting_oracle_degenerate(self):
        # degenerate resonators coupled by a notch branch: J from the exact
        # relation vs half the circuit splitting (non-RWA gap ~ 4.5 J/w0)
        f0 = 10.0e9
        w0 = TWO_PI * f0
        z_r = 4 * 66.0 / math.pi
        c0, l0 = 1 / (z_r * w0), z_r / w0
        f_n = 8.2777e9
        w_n = TWO_PI * f_n
        for j_target, tol in ((5e6, 0.01), (15e6, 0.02)):
            z_n = z_r / (2 * TWO_PI * j_target) * w0 * (w0 / w_n - w_n / w0)
            c_n, l_n = 1 / (w_n * z_n), z_n / w_n
            cmat = np.array([[c0 + c_n, -c_n], [-c_n, c0 + c_n]])
            linv = np.array([[1 / l0 + 1 / l_n, -1 / l_n],
                             [-1 / l_n, 1 / l0 + 1 / l_n]])
            w2 = np.linalg.eigvalsh(np.linalg.inv(cmat) @ linv)
            split = abs(math.sqrt(w2[1]) - math.sqrt(w2[0])) / TWO_PI
            assert abs(j_target - split / 2) / j_target < tol


class TestZ21Lumped:
    def test_notch_zero(self, mtl_geom):
        pair = equivalent_pair(mtl_geom)
        assert abs(z21_lumped(pair, notch_frequency(mtl_geom))) == 0.0

    def test_equivcap_low_frequency_scaling(self):
        res = map_resonator(2909e-6, LINE)
        p1 = LumpedPair(res, res, EquivCap(0.5e-15))
        p2 = LumpedPair(res, res, EquivCap(1.0e-15))
        f = 0.3e9
        # linear in the coupling capacitance, cubic in frequency at low f
        assert z21_lumped(p2, f).imag == pytest.approx(
            2 * z21_lumped(p1, f).imag, rel=1e-4)
        assert z21_lumped(p1, 2 * f).imag == pytest.approx(
            8 * z21_lumped(p1, f).imag, rel=2e-2)

    def test_matches_distributed_around_notch(self, mtl_geom):
        pair = equivalent_pair(mtl_geom)
        f_n = notch_frequency(mtl_geom)
        for f in np.linspace(f_n - 0.5e9, f_n + 0.5e9, 201):
            z_d = z21_homogeneous(mtl_geom, f)
            if abs(z_d) < 1e-3:
                continue
            z_l = z21_lumped(pair, f)
            assert abs(z_l.imag - z_d.imag) / abs(z_d.imag) < 0.05

    def test_matches_distributed_near_modes(self, mtl_geom):
        # Near the lambda/4 modes the coupler loading shifts the lumped
        # poles by ~0.3%, so pointwise comparison diverges at the pole; the
        # correspondence is in log magnitude (as on a log-scale transfer
        # plot) and in the pole positions themselves.
        pair = equivalent_pair(mtl_geom)
        from scipy.optimize import brentq

        for f0 in (mtl_geom.f_r, mtl_geom.f_p):
            # lumped pole within 0.3% of the bare lambda/4 frequency
            pole = brentq(lambda f: 1.0 / z21_lumped(pair, f).imag,
                          f0 - 0.1e9, f0 + 0.1e9, xtol=1e4)
            assert abs(pole - f0) / f0 < 5e-3
            for df in (-0.3e9, -0.15e9, 0.15e9, 0.3e9):
                f = f0 + df
                z_d = abs(z21_homogeneous(mtl_geom, f))
                z_l = abs(z21_lumped(pair, f))
                assert abs(math.log10(z_l / z_d)) < 0.2

    def test_cascade_oracle_agreement(self, mtl_geom):
        pair = equivalent_pair(mtl_geom)
        for f in (8.0e9, 9.3e9, 10.5e9):
            assert z21_lumped(pair, f).imag == pytest.approx(
                z21_lumped_cascade(pair, f).imag, rel=1e-9)


class TestTypes:
    def test_lumped_resonator_validation(self):
        with pytest.raises(ValidationError):
            LumpedResonator(c=-1e-15, l=1e-9)

    def test_notchlc_resonance(self):
        b = LumpedResonator(c=2.844e-15, l=130e-9)
        assert b.f0 == pytest.approx(
            1 / (TWO_PI * math.sqrt(2.844e-15 * 130e-9)), rel=1e-12)

    def test_weak_coupling_warning(self):
        res = LumpedResonator(c=100e-15, l=2e-9)
        with pytest.warns(UserWarning):
            LumpedPair(res, res, LumpedResonator(c=20e-15, l=10e-9))
