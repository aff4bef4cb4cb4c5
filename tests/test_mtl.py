import math

import numpy as np
import pytest

from abcd_oracle import z21_cap_nodal, z21_mtl_cascade
from notchlab import (BracketError, CoupledPairGeometry, LineParams,
                      MtlCouplerParams, PoleError, ValidationError,
                      coupling_diagnostics, find_zero, lambda4_frequency,
                      notch_frequency, z21_capacitive, z21_general,
                      z21_homogeneous, z21_multi)

LINE = LineParams(66.0, 1.19e8)


def random_mtl_geom(rng, r_max=0.1):
    return CoupledPairGeometry(
        l_r_open=rng.uniform(0.5e-3, 2e-3),
        l_r_short=rng.uniform(0.5e-3, 2e-3),
        l_p_open=rng.uniform(0.5e-3, 2e-3),
        l_p_short=rng.uniform(0.5e-3, 2e-3),
        coupler=MtlCouplerParams(len_c=rng.uniform(0.1e-3, 0.5e-3),
                                 cm_over_c=rng.uniform(0.005, r_max)),
        line=LINE,
    )


def random_cap_geom(rng, c_j_max=2e-15):
    return CoupledPairGeometry(
        l_r_open=rng.uniform(0.5e-3, 2e-3),
        l_r_short=rng.uniform(0.5e-3, 2e-3),
        l_p_open=rng.uniform(0.5e-3, 2e-3),
        l_p_short=rng.uniform(0.5e-3, 2e-3),
        coupler=rng.uniform(0.1e-15, c_j_max),
        line=LINE,
    )


def probe_freqs(geom, rng, n, margin=50e6):
    """Random probe frequencies away from the z21 poles."""
    out = []
    while len(out) < n:
        f = rng.uniform(2e9, 14e9)
        if min(abs(f - geom.f_r), abs(f - 3 * geom.f_r),
               abs(f - geom.f_p), abs(f - 3 * geom.f_p)) > margin:
            out.append(f)
    return out


def z21_homogeneous_closed_form(geom, f):
    """Compact Z_m = Z_0 form, the notch explicit through cos(pi f/2f_n)."""
    line, w = geom.line, 2 * math.pi * f
    num = (1j * line.z0 * math.sin(w * geom.len_c / line.v)
           * math.cos(0.5 * w / (2 * notch_frequency(geom)))
           * geom.coupler.cm_over_c)
    return num / (math.cos(0.5 * w / (2 * geom.f_p))
                  * math.cos(0.5 * w / (2 * geom.f_r)))


class TestLambda4:
    def test_table_design_length(self):
        # 974 + 318 + 1617 um at v = 1.19e8 m/s
        f = lambda4_frequency(2909e-6, LINE)
        assert f == pytest.approx(10.2269e9, rel=1e-4)
        # consistent with the measured bare readout frequency to < 0.3%
        assert abs(f - 10250e6) / 10250e6 < 3e-3

    def test_doubling_length_halves_frequency(self):
        assert lambda4_frequency(2e-3, LINE) == 2 * lambda4_frequency(4e-3, LINE)

    def test_inverse_identity(self):
        length = LINE.v / (4 * 10e9)
        assert lambda4_frequency(length, LINE) == pytest.approx(10e9, abs=1e-3)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValidationError):
            lambda4_frequency(0.0, LINE)


class TestLineParams:
    def test_derived_per_length(self):
        assert LINE.c_per_len == pytest.approx(1.2732365e-10, rel=1e-6)
        assert LINE.l_per_len == pytest.approx(66.0 / 1.19e8, rel=1e-12)


class TestZ21General:
    def test_low_frequency_limit(self, mtl_geom):
        assert abs(z21_general(mtl_geom, 1e3)) < 1e-6

    def test_reduces_to_homogeneous(self, mtl_geom):
        rng = np.random.default_rng(11)
        for f in probe_freqs(mtl_geom, rng, 20):
            zc = z21_homogeneous_closed_form(mtl_geom, f)
            assert z21_general(mtl_geom, f) == pytest.approx(zc, rel=1e-12)
            assert z21_homogeneous(mtl_geom, f) == pytest.approx(zc, rel=1e-12)

    def test_single_sign_change_at_notch(self, mtl_geom):
        fs = np.linspace(8.0e9, 10.0e9, 4001)
        vals = z21_general(mtl_geom, fs).imag
        changes = np.sum(np.diff(np.sign(vals)) != 0)
        assert changes == 1
        f_n = find_zero(lambda f: z21_general(mtl_geom, f), 8.0e9, 10.0e9)
        assert f_n == pytest.approx(notch_frequency(mtl_geom), abs=10.0)

    def test_purely_imaginary(self, mtl_geom):
        rng = np.random.default_rng(3)
        for f in probe_freqs(mtl_geom, rng, 50):
            assert z21_general(mtl_geom, f).real == 0.0

    def test_pole_guard_names_mode(self, mtl_geom):
        with pytest.raises(PoleError) as err:
            z21_general(mtl_geom, mtl_geom.f_r + 200.0)
        assert err.value.mode == "readout"
        with pytest.raises(PoleError) as err:
            z21_general(mtl_geom, mtl_geom.f_p - 300.0)
        assert err.value.mode == "filter"


class TestZ21Capacitive:
    def test_low_frequency_limit(self, cap_geom):
        assert abs(z21_capacitive(cap_geom, 1e3)) < 1e-9

    def test_no_zero_below_twice_modes(self, cap_geom):
        f_hi = 2 * min(cap_geom.f_r, cap_geom.f_p)
        fs = np.linspace(1e8, f_hi * 0.999, 7001)
        keep = np.ones(fs.size, dtype=bool)
        for fm in (cap_geom.f_r, cap_geom.f_p):
            keep &= np.abs(fs - fm) > 2e5
        vals = z21_capacitive(cap_geom, fs[keep]).imag
        # sign flips only across the poles, never through zero
        assert np.all(np.abs(vals) > 0)
        signs = np.sign(vals)
        flips = np.where(np.diff(signs) != 0)[0]
        for i in flips:
            f_flip = 0.5 * (fs[keep][i] + fs[keep][i + 1])
            assert min(abs(f_flip - cap_geom.f_r),
                       abs(f_flip - cap_geom.f_p)) < 5e6

    def test_capacitive_no_notch_bound_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            geom = random_cap_geom(rng)
            f_first = math.pi * LINE.v / max(geom.l_r_short, geom.l_p_short) \
                / (2 * math.pi)
            assert f_first >= min(2 * geom.f_r, 2 * geom.f_p) * (1 - 1e-9)

    def test_mtl_limit_converges(self, cap_geom):
        # z21_general with a vanishing coupled section (c_m len_c = C_J,
        # l_m -> 0) approaches the capacitive formula; C_J is kept small so
        # the section stays inside the physical bound cm_over_c < 1
        lengths = dict(l_r_open=cap_geom.l_r_open, l_r_short=cap_geom.l_r_short,
                       l_p_open=cap_geom.l_p_open, l_p_short=cap_geom.l_p_short)

        def rel_gap(len_c):
            c_j = 0.5 * LINE.c_per_len * len_c  # cm_over_c = 0.5, in bound
            tiny = CoupledPairGeometry(
                coupler=MtlCouplerParams(len_c=len_c, cm_over_c=0.5,
                                         zm_over_z0=1e-6),
                line=LINE, **lengths)
            small_cap = CoupledPairGeometry(coupler=c_j, line=LINE, **lengths)
            return max(
                abs(z21_general(tiny, f).imag - z21_capacitive(small_cap, f).imag)
                / abs(z21_capacitive(small_cap, f).imag)
                for f in (5e9, 8e9, 9.5e9))

        assert rel_gap(0.1e-9) < 1e-6
        # first-order convergence in the section length
        assert rel_gap(1e-9) / rel_gap(0.1e-9) == pytest.approx(10.0, rel=0.05)


class TestNotchFrequency:
    def test_table_value(self, mtl_geom):
        assert notch_frequency(mtl_geom) == pytest.approx(8.2776850e9, abs=1e3)

    def test_independent_of_open_lengths_and_coupling(self, mtl_geom):
        base = notch_frequency(mtl_geom)
        moved = CoupledPairGeometry(
            l_r_open=mtl_geom.l_r_open * 1.37, l_r_short=mtl_geom.l_r_short,
            l_p_open=mtl_geom.l_p_open * 0.61, l_p_short=mtl_geom.l_p_short,
            coupler=MtlCouplerParams(len_c=mtl_geom.len_c, cm_over_c=0.01),
            line=LINE)
        assert notch_frequency(moved) == base

    def test_bisection_agrees(self, mtl_geom):
        f_n = find_zero(lambda f: z21_homogeneous(mtl_geom, f),
                        7.5e9, 9.0e9, tol=100.0)
        assert f_n == pytest.approx(notch_frequency(mtl_geom), abs=1e3)

    def test_homogeneous_zero_at_notch(self, mtl_geom):
        assert abs(z21_homogeneous(mtl_geom, notch_frequency(mtl_geom))) < 1e-9


class TestFindZero:
    def test_monotone_synthetic(self):
        root = find_zero(lambda f: f - 9e9, 8e9, 10e9, tol=1.0)
        assert root == pytest.approx(9e9, abs=1.0)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_zero(lambda f: f + 1e9, 8e9, 10e9)

    @pytest.mark.parametrize("root", [8e9, 10e9])
    def test_exact_zero_at_an_endpoint(self, root):
        # returned as is: no sign test, no bisection step
        calls = []

        def evaluator(f):
            calls.append(f)
            return f - root

        assert find_zero(evaluator, 8e9, 10e9) == root
        assert calls == [8e9, 10e9]

    def test_pole_in_bracket_rejected(self, mtl_geom):
        # bracket straddling the readout pole: sign change is a pole, not a zero
        with pytest.raises(PoleError):
            find_zero(lambda f: z21_general(mtl_geom, f),
                      mtl_geom.f_r - 0.2e9, mtl_geom.f_r + 0.1e9, tol=10.0)

    def test_small_inhomogeneity(self, mtl_geom):
        geom = CoupledPairGeometry(
            l_r_open=mtl_geom.l_r_open, l_r_short=mtl_geom.l_r_short,
            l_p_open=mtl_geom.l_p_open, l_p_short=mtl_geom.l_p_short,
            coupler=MtlCouplerParams(len_c=mtl_geom.len_c,
                                     cm_over_c=mtl_geom.coupler.cm_over_c,
                                     zm_over_z0=0.98),
            line=LINE)
        root = find_zero(lambda f: z21_general(geom, f), 7.5e9, 9.5e9, tol=10.0)
        # measured shift for this geometry is 1.29%; a 2% zm perturbation
        # moves the notch by about 1.3% per the A- admixture
        assert abs(root - notch_frequency(mtl_geom)) / notch_frequency(mtl_geom) < 0.02


class TestZ21Multi:
    def test_single_section_identity(self, mtl_geom):
        f = 9.1e9
        assert z21_multi([mtl_geom], f) == z21_general(mtl_geom, f)

    def test_two_identical_sections_double(self, mtl_geom):
        f = 9.1e9
        assert z21_multi([mtl_geom, mtl_geom], f) == pytest.approx(
            2 * z21_general(mtl_geom, f), rel=1e-15)

    def test_zero_between_single_section_notches(self):
        a = CoupledPairGeometry(1.2e-3, 1.4e-3, 1.0e-3, 1.5e-3,
                                MtlCouplerParams(0.3e-3, 0.05), LINE)
        b = CoupledPairGeometry(2.0e-3, 0.6e-3, 1.8e-3, 0.7e-3,
                                MtlCouplerParams(0.3e-3, 0.05), LINE)
        f_lo = min(notch_frequency(a), notch_frequency(b)) * 1.01
        f_hi = max(notch_frequency(a), notch_frequency(b)) * 0.99
        fs = np.linspace(f_lo, f_hi, 2001)
        vals = np.array([z21_multi([a, b], f).imag for f in fs])
        assert np.sum(np.diff(np.sign(vals)) != 0) >= 1

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            z21_multi([], 9e9)


class TestReciprocity:
    def test_mirrored_geometry_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            geom = random_mtl_geom(rng)
            f = probe_freqs(geom, rng, 1)[0]
            z = z21_general(geom, f)
            z_m = z21_general(geom.mirrored(), f)
            assert z == pytest.approx(z_m, rel=1e-12)
            assert z.real == 0.0


class TestOracleEquivalence:
    """Cascade-matrix reference checks (see abcd_oracle)."""

    def test_weak_cascade_matches_homogeneous(self, mtl_geom):
        # same network evaluated by generic cascade matrices instead of the
        # closed-form identity
        for f in (8.0e9, 8.9e9, 9.5e9, 10.0e9, 10.55e9, 11.0e9):
            z_closed = z21_homogeneous(mtl_geom, f)
            z_casc = z21_mtl_cascade(mtl_geom, f, mode="weak")
            assert z_closed.imag == pytest.approx(z_casc.imag, rel=1e-6)

    def test_weak_cascade_matches_general_inhomogeneous(self, mtl_geom):
        geom = CoupledPairGeometry(
            mtl_geom.l_r_open, mtl_geom.l_r_short, mtl_geom.l_p_open,
            mtl_geom.l_p_short,
            MtlCouplerParams(mtl_geom.len_c, mtl_geom.coupler.cm_over_c,
                             zm_over_z0=0.9), LINE)
        for f in (8.0e9, 9.5e9):
            assert z21_general(geom, f).imag == pytest.approx(
                z21_mtl_cascade(geom, f, mode="weak").imag, rel=1e-6)

    def test_capacitive_matches_linearized_nodal(self, cap_geom):
        for f in (5e9, 8e9, 9.5e9, 11e9):
            assert z21_capacitive(cap_geom, f).imag == pytest.approx(
                z21_cap_nodal(cap_geom, f, loading=False).imag, rel=1e-9)

    def test_exact_backaction_far_from_features(self, mtl_geom):
        # documented tolerance: 1% for cm_over_c <= 0.07 at probe points
        # at least 0.8 GHz away from the poles and the notch
        feats = (mtl_geom.f_r, mtl_geom.f_p, notch_frequency(mtl_geom))
        for f in np.linspace(8.0e9, 11.0e9, 61):
            if min(abs(f - x) for x in feats) < 0.8e9:
                continue
            z_cl = z21_homogeneous(mtl_geom, f)
            z_ex = z21_mtl_cascade(mtl_geom, f, mode="exact")
            assert abs(z_ex.imag - z_cl.imag) / abs(z_cl.imag) < 0.01

    def test_exact_backaction_feature_positions(self, mtl_geom):
        # notch and pole positions of the exact network within 0.2%
        from scipy.optimize import brentq
        f_n = notch_frequency(mtl_geom)
        fn_exact = brentq(
            lambda f: z21_mtl_cascade(mtl_geom, f, mode="exact").imag,
            f_n - 0.3e9, f_n + 0.3e9, xtol=1e3)
        assert abs(fn_exact - f_n) / f_n < 2e-3

    def test_capacitive_loading_is_small(self, cap_geom):
        # exact nodal solve (with capacitor loading) stays within a few
        # percent away from the poles (measured: <= 3.3% at 1.4 fF)
        for f in (5e9, 8e9, 9.0e9):
            z_cl = z21_capacitive(cap_geom, f)
            z_ex = z21_cap_nodal(cap_geom, f, loading=True)
            assert abs(z_ex.imag - z_cl.imag) / abs(z_cl.imag) < 0.05


class TestDiagnostics:
    def test_weak_coupling_warns(self, mtl_geom):
        d = coupling_diagnostics(mtl_geom)
        assert d["cm_over_c"] == pytest.approx(0.066759, abs=1e-6)
        assert d["k"] == pytest.approx(math.sqrt(1 - 0.066759 ** 2), rel=1e-9)
        strong = CoupledPairGeometry(
            1e-3, 1e-3, 1e-3, 1e-3, MtlCouplerParams(0.3e-3, 0.2), LINE)
        with pytest.warns(UserWarning):
            coupling_diagnostics(strong)

    def test_invariants_rejected(self):
        with pytest.raises(ValidationError):
            MtlCouplerParams(len_c=-1e-3, cm_over_c=0.05)
        with pytest.raises(ValidationError):
            MtlCouplerParams(len_c=1e-3, cm_over_c=1.5)
        with pytest.raises(ValidationError):
            CoupledPairGeometry(-1e-3, 1e-3, 1e-3, 1e-3, 1e-15, LINE)
