import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmimb import (
    IdentifiabilityError,
    IdentificationResult,
    InputError,
    OperatingPoint,
    SecondHarmonicPhasor,
    fit_flux,
    fit_resistance,
    flux_coeffs,
    flux_delta,
    resistance_coeffs,
    resistance_delta,
)
from pmimb.imbalance import _UNSPREAD, _phasors, _terms

GRID = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)

dev = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestInvertPhasor:
    @given(da=dev, db=dev, dc=dev)
    def test_roundtrip_recovers_any_triple(self, da, db, dc):
        # The sum and the 2theta phasor fix the triple: no shift to a
        # zero minimum, whatever the smallest entry is.
        triple = (da, db, dc)
        phasor = flux_coeffs(triple)
        recovered = _UNSPREAD @ (sum(triple), phasor.k * math.cos(phasor.phi),
                                 phasor.k * math.sin(phasor.phi))
        tol = 1e-12 * (1.0 + da + db + dc)
        assert np.allclose(recovered, triple, atol=tol)


@pytest.mark.parametrize("family, field", [("resistance", "d_r"),
                                           ("flux", "d_lam")])
def test_reported_terms_are_the_coeffs_map_of_per_phase(rng, family, field):
    # s and phasor are what the coeffs job reports for the fitted triple,
    # bit for bit, whatever the rounding of the fit.
    for _ in range(100):
        triple = tuple(rng.normal(0.0, 1e-2, 3))
        if family == "resistance":
            out = fit_resistance(*resistance_residuals(triple, -1.0, 8.0),
                                 -1.0, 8.0, GRID)
        else:
            out = fit_flux(*flux_residuals(triple, 400.0), 400.0, GRID)
        deviations = {field: out.per_phase}
        assert out.s == _terms(family, deviations)[0]
        assert out.phasor == _phasors(family, deviations)[""]


def near_limit_fit(spread):
    # A 2theta spread Re C/3 = spread near the float limit, at a current
    # small enough that the residuals square without overflow.
    i_q = 1e-160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fit_resistance(spread * i_q * np.sin(2.0 * GRID),
                              -spread * i_q * np.cos(2.0 * GRID),
                              0.0, i_q, GRID)


def test_fit_near_the_float_limit_is_reported():
    # per_phase (1e308, -5e307, -5e307) maps forward to a finite |C|.
    assert near_limit_fit(5e307).phasor.k == pytest.approx(5e307)


@pytest.mark.parametrize("spread", [7e307, 1e308, 1.5e308])
def test_fit_overflow_is_refused_without_warnings(spread):
    # From 7e307 on, |C| of the fitted triple, the triple itself or the
    # residual product overflows.
    with pytest.raises(InputError, match="^resistance fit overflows"):
        near_limit_fit(spread)


class TestResultValidation:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            IdentificationResult("inductance", 0.0,
                                 SecondHarmonicPhasor(0.0, 0.0),
                                 (0.0, 0.0, 0.0), 0.0)

    def test_rejects_negative_residual(self):
        with pytest.raises(ValueError):
            IdentificationResult("flux", 0.0,
                                 SecondHarmonicPhasor(0.0, 0.0),
                                 (0.0, 0.0, 0.0), -1.0)

    def test_rejects_non_finite_per_phase(self):
        with pytest.raises(ValueError, match="per_phase must be finite"):
            IdentificationResult("flux", 0.0,
                                 SecondHarmonicPhasor(0.0, 0.0),
                                 (0.0, np.nan, 0.0), 0.0)


def resistance_residuals(d_r, i_d, i_q, theta=GRID):
    op = OperatingPoint(theta=theta, omega_e=0.0, i_d=i_d, i_q=i_q)
    delta = resistance_delta(d_r, op)
    ones = np.ones_like(theta)
    return delta[0] * ones, delta[1] * ones


def flux_residuals(d_lam, omega_e, theta=GRID):
    delta = flux_delta(d_lam, omega_e, theta)
    ones = np.ones_like(theta)
    return delta[0] * ones, delta[1] * ones


class TestFitResistance:
    def test_single_phase_deviation_roundtrip(self):
        d_r = (0.02, 0.0, 0.0)
        dv_d, dv_q = resistance_residuals(d_r, i_d=2.0, i_q=5.0)
        out = fit_resistance(dv_d, dv_q, 2.0, 5.0, GRID)
        assert out.family == "resistance"
        assert np.allclose(out.per_phase, d_r, atol=1e-10)
        assert out.s == pytest.approx(0.02, abs=1e-10)
        assert out.fit_residual_rms < 1e-12

    def test_general_triple_roundtrip(self):
        d_r = (0.03, 0.01, 0.02)
        dv_d, dv_q = resistance_residuals(d_r, i_d=-3.0, i_q=7.0)
        out = fit_resistance(dv_d, dv_q, -3.0, 7.0, GRID)
        assert np.allclose(out.per_phase, d_r, atol=1e-6)
        ref = resistance_coeffs(d_r)
        assert out.phasor.k == pytest.approx(ref.k, rel=1e-9)
        assert out.phasor.phi == pytest.approx(ref.phi, abs=1e-9)

    def test_sum_matches_per_phase_exactly(self):
        d_r = (0.011, 0.004, 0.0)
        dv_d, dv_q = resistance_residuals(d_r, i_d=1.0, i_q=4.0)
        out = fit_resistance(dv_d, dv_q, 1.0, 4.0, GRID)
        assert out.s == sum(out.per_phase)

    def test_single_axis_current_suffices(self):
        d_r = (0.0, 0.015, 0.005)
        dv_d, dv_q = resistance_residuals(d_r, i_d=0.0, i_q=6.0)
        out = fit_resistance(dv_d, dv_q, 0.0, 6.0, GRID)
        assert np.allclose(out.per_phase, d_r, atol=1e-9)

    def test_zero_current_is_unidentifiable(self):
        with pytest.raises(
                IdentifiabilityError,
                match=r"^resistance imbalance is invisible at zero current$"):
            fit_resistance(np.zeros_like(GRID), np.zeros_like(GRID),
                           0.0, 0.0, GRID)

    def test_subnormal_current_is_rank_deficient(self):
        # Nonzero, so the zero-current guard passes; the columns it scales
        # fall below lstsq's rank tolerance.
        zeros = np.zeros_like(GRID)
        with pytest.raises(IdentifiabilityError, match=r"rank 2 of 3"):
            fit_resistance(zeros, zeros, 5e-324, 0.0, GRID)

    def test_insufficient_coverage_rejected(self):
        short = np.linspace(0.0, 2.0, 256)
        with pytest.raises(InputError, match="period"):
            fit_resistance(np.zeros(256), np.zeros(256), 1.0, 0.0, short)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError, match="shape"):
            fit_resistance(np.zeros(10), np.zeros(11), 1.0, 0.0, GRID)

    def test_non_finite_residual_rejected(self):
        dv_d = np.zeros_like(GRID)
        dv_d[3] = np.inf
        with pytest.raises(InputError,
                           match="^dv_d and dv_q must be finite$"):
            fit_resistance(dv_d, np.zeros_like(GRID), 1.0, 0.0, GRID)

    def test_non_finite_operating_point_rejected(self):
        zeros = np.zeros_like(GRID)
        with pytest.raises(InputError, match="finite"):
            fit_resistance(zeros, zeros, np.nan, 1.0, GRID)
        with pytest.raises(InputError, match="finite"):
            fit_flux(zeros, zeros, np.inf, GRID)

    def test_shape_refused_before_zero_current(self):
        with pytest.raises(InputError, match="shape") as info:
            fit_resistance(np.zeros(10), np.zeros(11), 0.0, 0.0, GRID)
        assert type(info.value) is InputError

    def test_nan_current_is_not_zero_current(self):
        zeros = np.zeros_like(GRID)
        with pytest.raises(
                InputError,
                match=r"^resistance fit needs a finite operating point$"):
            fit_resistance(zeros, zeros, np.nan, 0.0, GRID)

    def test_out_of_family_content_lands_in_residual(self):
        d_r = (0.02, 0.0, 0.01)
        dv_d, dv_q = resistance_residuals(d_r, i_d=2.0, i_q=3.0)
        contamination = 0.05 * np.cos(3.0 * GRID)
        out = fit_resistance(dv_d + contamination, dv_q, 2.0, 3.0, GRID)
        # 3theta is orthogonal to the basis on a full period: the fit
        # stays clean and the residual carries the contamination.
        assert np.allclose(out.per_phase, d_r, atol=1e-6)
        want_rms = 0.05 / math.sqrt(2.0) / math.sqrt(2.0)
        assert out.fit_residual_rms == pytest.approx(want_rms, rel=1e-3)


class TestFitFlux:
    def test_single_phase_deviation_roundtrip(self):
        d_lam = (0.003, 0.0, 0.0)
        dv_d, dv_q = flux_residuals(d_lam, omega_e=250.0)
        out = fit_flux(dv_d, dv_q, 250.0, GRID)
        assert out.family == "flux"
        assert np.allclose(out.per_phase, d_lam, atol=1e-10)
        assert out.fit_residual_rms < 1e-10

    def test_general_triple_roundtrip(self):
        d_lam = (0.004, 0.001, 0.002)
        dv_d, dv_q = flux_residuals(d_lam, omega_e=-180.0)
        out = fit_flux(dv_d, dv_q, -180.0, GRID)
        assert np.allclose(out.per_phase, d_lam, atol=1e-6)

    def test_zero_speed_is_unidentifiable(self):
        with pytest.raises(
                IdentifiabilityError,
                match=r"^flux imbalance is invisible at zero speed$"):
            fit_flux(np.zeros_like(GRID), np.zeros_like(GRID), 0.0, GRID)

    def test_negative_zero_speed_is_unidentifiable(self):
        zeros = np.zeros_like(GRID)
        with pytest.raises(
                IdentifiabilityError,
                match=r"^flux imbalance is invisible at zero speed$"):
            fit_flux(zeros, zeros, -0.0, GRID)

    def test_coverage_refused_before_zero_speed(self):
        short = np.linspace(0.0, 2.0, 256)
        with pytest.raises(InputError, match="electrical period") as info:
            fit_flux(np.zeros(256), np.zeros(256), 0.0, short)
        assert type(info.value) is InputError

    def test_subnormal_speed_is_rank_deficient(self):
        zeros = np.zeros_like(GRID)
        with pytest.raises(IdentifiabilityError, match=r"rank 2 of 3"):
            fit_flux(zeros, zeros, 5e-324, GRID)

    def test_recovery_independent_of_speed_magnitude(self):
        d_lam = (0.002, 0.0005, 0.0)
        for omega in (50.0, 500.0, 5000.0):
            dv_d, dv_q = flux_residuals(d_lam, omega_e=omega)
            out = fit_flux(dv_d, dv_q, omega, GRID)
            assert np.allclose(out.per_phase, d_lam, atol=1e-9)


def design_matrix_resistance(i_d, i_q, theta):
    cos2, sin2 = np.cos(2 * theta), np.sin(2 * theta)
    top = np.column_stack([np.full_like(theta, i_d / 3.0),
                           i_d * cos2 + i_q * sin2,
                           -i_d * sin2 + i_q * cos2])
    bottom = np.column_stack([np.full_like(theta, i_q / 3.0),
                              i_d * sin2 - i_q * cos2,
                              i_d * cos2 + i_q * sin2])
    return np.vstack([top, bottom])


class TestNoiseRobustness:
    # per_phase is linear in the fitted coefficients:
    # (s/3 + 2a, s/3 - a + sqrt(3) b, s/3 - a - sqrt(3) b)
    COEFF_TO_PHASE = np.array([
        [1.0 / 3.0, 2.0, 0.0],
        [1.0 / 3.0, -1.0, math.sqrt(3.0)],
        [1.0 / 3.0, -1.0, -math.sqrt(3.0)],
    ])

    def test_monte_carlo_recovery_within_predicted_spread(self, rng):
        d_r = (0.02, 0.005, 0.0)
        i_d, i_q = 2.0, 6.0
        dv_d, dv_q = resistance_residuals(d_r, i_d, i_q)
        signal_rms = math.sqrt(np.mean(np.concatenate([dv_d, dv_q]) ** 2))
        sigma = 0.01 * signal_rms
        design = design_matrix_resistance(i_d, i_q, GRID)
        cov_coeff = sigma ** 2 * np.linalg.inv(design.T @ design)
        cov_phase = self.COEFF_TO_PHASE @ cov_coeff @ self.COEFF_TO_PHASE.T
        bound = 5.0 * np.sqrt(np.diag(cov_phase))
        errors = []
        for _ in range(100):
            noisy_d = dv_d + rng.normal(0.0, sigma, GRID.size)
            noisy_q = dv_q + rng.normal(0.0, sigma, GRID.size)
            out = fit_resistance(noisy_d, noisy_q, i_d, i_q, GRID)
            err = np.array(out.per_phase) - np.array(d_r)
            errors.append(err)
            assert np.all(np.abs(err) < bound)
        spread = np.std(np.array(errors), axis=0)
        predicted = np.sqrt(np.diag(cov_phase))
        assert np.all(spread < 1.6 * predicted)
        assert np.all(spread > 0.4 * predicted)

    def test_noisy_fit_reports_noise_floor(self, rng):
        d_lam = (0.002, 0.0, 0.001)
        dv_d, dv_q = flux_residuals(d_lam, omega_e=300.0)
        sigma = 0.01 * math.sqrt(np.mean(dv_q ** 2))
        out = fit_flux(dv_d + rng.normal(0, sigma, GRID.size),
                       dv_q + rng.normal(0, sigma, GRID.size),
                       300.0, GRID)
        assert out.fit_residual_rms == pytest.approx(sigma, rel=0.2)
