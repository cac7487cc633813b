import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmimb import (
    HarmonicDecomposition,
    InputError,
    OperatingPoint,
    SecondHarmonicPhasor,
    WaveformComparison,
    compare_waveforms,
    check_angle_coverage,
    demodulate,
    resistance_coeffs,
    resistance_delta,
)
from pmimb.harmonics import _BLOCK

GRID = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)

amp = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
phase = st.floats(min_value=-math.pi + 1e-6, max_value=math.pi,
                  allow_nan=False)


def wrap_angle(phi):
    out = math.remainder(phi, 2.0 * math.pi)
    return math.pi if out == -math.pi else out


class TestCoverage:
    def test_full_period_grid_passes(self):
        check_angle_coverage(GRID)

    def test_endpoint_inclusive_grid_passes(self):
        check_angle_coverage(np.linspace(0.0, 2.0 * np.pi, 129))

    def test_short_span_rejected(self):
        with pytest.raises(InputError, match="period"):
            check_angle_coverage(np.linspace(0.0, np.pi, 200))

    def test_sparse_sampling_rejected(self):
        with pytest.raises(InputError, match="samples per period"):
            check_angle_coverage(np.linspace(0.0, 2.0 * np.pi, 40))

    def test_constant_angles_rejected(self):
        with pytest.raises(InputError):
            check_angle_coverage(np.full(100, 1.0))

    def test_scalar_rejected(self):
        with pytest.raises(InputError):
            check_angle_coverage(np.array(1.0))

    def test_non_finite_rejected(self):
        theta = GRID.copy()
        theta[7] = np.nan
        with pytest.raises(InputError, match="finite"):
            check_angle_coverage(theta)

    def test_repeated_samples_add_no_coverage(self):
        distinct = np.linspace(0.0, 3.0 * np.pi, 30, endpoint=False)
        for theta in (distinct, np.repeat(distinct, 5)):
            with pytest.raises(InputError, match="20.0 samples per period"):
                check_angle_coverage(theta)

    def test_sample_order_and_repeats_of_a_covering_grid_pass(self):
        shuffled = np.random.default_rng(3).permutation(GRID)
        check_angle_coverage(shuffled)
        check_angle_coverage(np.repeat(shuffled, 3))


class TestDemodulate:
    def test_constant_signal(self):
        out = demodulate(np.full_like(GRID, 3.25), GRID)
        assert out.dc == pytest.approx(3.25, rel=1e-14)
        assert out.second.k < 1e-13
        assert out.second.phi == 0.0
        assert out.residual_rms < 1e-13

    def test_zero_signal_phase_is_positive_zero(self):
        # A zero signal gives no scale to floor k against, and atan2(-0.0,
        # 0.0) is -0.0, which phi == 0.0 cannot tell from +0.0.
        out = demodulate(np.zeros_like(GRID), GRID)
        assert out.second.k == 0.0
        assert math.copysign(1.0, out.second.phi) == 1.0

    def test_pure_second_harmonic(self):
        signal = 3.0 * np.cos(2.0 * GRID + math.pi / 4)
        out = demodulate(signal, GRID)
        assert out.dc == pytest.approx(0.0, abs=1e-12)
        assert out.second.k == pytest.approx(3.0, rel=1e-10)
        assert out.second.phi == pytest.approx(math.pi / 4, abs=1e-10)
        assert out.residual_rms < 1e-10

    def test_mixed_signal_with_residual(self):
        signal = 1.0 + 0.5 * np.cos(2.0 * GRID - 0.3) + 0.2 * np.cos(3.0 * GRID)
        out = demodulate(signal, GRID)
        assert out.dc == pytest.approx(1.0, abs=1e-10)
        assert out.second.k == pytest.approx(0.5, rel=1e-9)
        assert out.second.phi == pytest.approx(-0.3, abs=1e-9)
        # the 3theta part lands in the residual: RMS of 0.2 cos = 0.2/sqrt(2)
        assert out.residual_rms == pytest.approx(0.2 / math.sqrt(2), rel=1e-6)

    def test_reconstruct_roundtrip(self):
        signal = -0.7 + 1.3 * np.cos(2.0 * GRID + 2.1)
        out = demodulate(signal, GRID)
        rebuilt = out.dc + out.second.k * np.cos(2.0 * GRID + out.second.phi)
        assert np.max(np.abs(rebuilt - signal)) < 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            demodulate(np.zeros(100), GRID)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_signal_rejected(self, bad):
        # Refused where it enters, not by the phasor it would produce.
        signal = np.cos(2.0 * GRID)
        signal[5] = bad
        with pytest.raises(InputError,
                           match="^signal must be finite$") as info:
            demodulate(signal, GRID)
        assert type(info.value) is InputError

    def test_decomposition_rejects_negative_residual(self):
        with pytest.raises(ValueError, match="residual_rms"):
            HarmonicDecomposition(0.0, SecondHarmonicPhasor(0.0, 0.0),
                                  residual_rms=-1.0)

    def test_tiny_second_harmonic_floors_phase(self):
        signal = 5.0 + 1e-15 * np.cos(2.0 * GRID + 1.0)
        out = demodulate(signal, GRID)
        assert out.second.phi == 0.0

    @given(dc=amp, k=st.floats(min_value=1e-6, max_value=100.0), phi=phase)
    def test_exact_on_span(self, dc, k, phi):
        signal = dc + k * np.cos(2.0 * GRID + phi)
        out = demodulate(signal, GRID)
        scale = 1.0 + abs(dc) + k
        assert abs(out.dc - dc) < 1e-9 * scale
        assert abs(out.second.k - k) < 1e-9 * scale
        assert abs(wrap_angle(out.second.phi - phi)) < 1e-6 * (1.0 + scale / k)
        assert out.residual_rms < 1e-9 * scale

    def test_scaling_linearity(self):
        signal = 0.4 + 0.9 * np.cos(2.0 * GRID + 0.6)
        one = demodulate(signal, GRID)
        ten = demodulate(10.0 * signal, GRID)
        assert ten.dc == pytest.approx(10.0 * one.dc, rel=1e-12)
        assert ten.second.k == pytest.approx(10.0 * one.second.k, rel=1e-12)
        assert ten.second.phi == pytest.approx(one.second.phi, abs=1e-12)


class TestDemodulateAgainstClosedForm:
    def test_resistance_q_axis_signature(self):
        # q-axis delta: i_q (s/3 - k cos(2theta+gamma)); the demodulated
        # phasor is i_q k at phase gamma + pi.
        d_r = (0.03, 0.01, 0.02)
        i_q = 10.0
        op = OperatingPoint(theta=GRID, omega_e=0.0, i_d=0.0, i_q=i_q)
        signal = resistance_delta(d_r, op)[1]
        out = demodulate(signal, GRID)
        ph = resistance_coeffs(d_r)
        assert out.dc == pytest.approx(i_q * sum(d_r) / 3.0, rel=1e-10)
        assert out.second.k == pytest.approx(i_q * ph.k, rel=1e-10)
        assert wrap_angle(out.second.phi - ph.phi - math.pi) == pytest.approx(
            0.0, abs=1e-10)

    def test_random_triples_roundtrip_through_demodulation(self, rng):
        for _ in range(100):
            d_r = tuple(rng.uniform(0.0, 0.05, size=3))
            i_d = rng.uniform(0.5, 10.0)
            op = OperatingPoint(theta=GRID, omega_e=0.0, i_d=i_d, i_q=0.0)
            signal = resistance_delta(d_r, op)[0]
            out = demodulate(signal, GRID)
            ph = resistance_coeffs(d_r)
            scale = 1.0 + i_d * ph.k
            assert abs(out.second.k - i_d * ph.k) < 1e-10 * scale
            if ph.k > 1e-6:
                assert abs(wrap_angle(out.second.phi - ph.phi)) < 1e-8


class TestCompareWaveforms:
    def test_identical_waveforms(self):
        sig = np.sin(GRID)
        out = compare_waveforms(sig, sig)
        assert out.max_abs_error == 0.0
        assert out.rms_error == 0.0
        assert out.relative_rms == 0.0

    def test_known_offset(self):
        a = np.zeros(10)
        b = np.full(10, 0.5)
        out = compare_waveforms(a, b)
        assert out.max_abs_error == 0.5
        assert out.rms_error == pytest.approx(0.5)
        assert out.relative_rms is None

    def test_relative_normalizes_by_reference_rms(self):
        a = 2.0 * np.cos(GRID)
        b = a + 0.1
        out = compare_waveforms(a, b)
        ref_rms = math.sqrt(np.mean(a ** 2))
        assert out.relative_rms == pytest.approx(0.1 / ref_rms, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            compare_waveforms(np.zeros(4), np.zeros(5))

    # Once nan metrics; refused as demodulate and the fits refuse them,
    # in the last block too, and in a grid of one sample.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("size, at", [(2, 1), (1, 0),
                                          (_BLOCK + 3, _BLOCK + 1)])
    @pytest.mark.parametrize("which", ["a", "b"])
    def test_non_finite_waveform_rejected(self, which, size, at, bad):
        waves = {"a": np.ones(size), "b": np.full(size, 2.0)}
        waves[which][at] = bad
        with pytest.raises(InputError,
                           match=f"^{which} must be finite$") as info:
            compare_waveforms(waves["a"], waves["b"])
        assert type(info.value) is InputError

    def test_empty_waveforms_compare_as_equal(self):
        # No sample differs, and no reference RMS exists to normalize by.
        assert compare_waveforms([], []) == WaveformComparison(0.0, 0.0, None)

    @staticmethod
    def waveforms(size):
        rng = np.random.default_rng(size)
        a = 300.0 * rng.standard_normal(size)
        return a, a + 1e-3 * rng.standard_normal(size)

    @pytest.mark.parametrize("size", [1, 2, 9, 129, 1000, _BLOCK])
    def test_one_block_is_np_mean_bit_for_bit(self, size):
        a, b = self.waveforms(size)
        out = compare_waveforms(a, b)
        rms = np.sqrt(np.mean(np.square(b - a)))
        assert out.max_abs_error == np.max(np.abs(b - a))
        assert out.rms_error == rms
        assert out.relative_rms == rms / np.sqrt(np.mean(np.square(a)))

    @pytest.mark.parametrize("size", [_BLOCK + 1, 3 * _BLOCK + 7,
                                      40 * _BLOCK])
    def test_blocks_stay_near_the_exact_sum(self, size):
        # Pairwise within a block, then over the blocks: close to the
        # correctly rounded sum of the same squares.
        a, b = self.waveforms(size)
        out = compare_waveforms(a, b)
        rms = math.sqrt(math.fsum(np.square(b - a)) / size)
        ref_rms = math.sqrt(math.fsum(np.square(a)) / size)
        assert out.max_abs_error == np.max(np.abs(b - a))
        assert out.rms_error == pytest.approx(rms, rel=1e-13, abs=0.0)
        assert out.relative_rms == pytest.approx(rms / ref_rms, rel=1e-13,
                                                 abs=0.0)
