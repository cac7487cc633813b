import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from pmimb import (
    MachineParameters,
    OperatingPoint,
    SecondHarmonicPhasor,
    closed_form_dq,
    compose_total,
    decompose,
    flux_coeffs,
    flux_delta,
    ideal_dq_nonsalient,
    inductance_coeffs,
    inductance_delta,
    resistance_coeffs,
    resistance_delta,
)

dev = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def wrap_angle(phi):
    out = math.remainder(phi, 2.0 * math.pi)
    return math.pi if out == -math.pi else out


class TestPhasorTypes:
    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            SecondHarmonicPhasor(-1e-3, 0.0)

    def test_rejects_out_of_range_phase(self):
        with pytest.raises(ValueError):
            SecondHarmonicPhasor(1.0, 4.0)

    def test_branch_cut_endpoint_is_pinned(self):
        ph = SecondHarmonicPhasor(1.0, -math.pi)
        assert ph.phi == math.pi

    def test_as_complex(self):
        # In complex form a triple's phasor k e^{j phi} is its spread C/3,
        # C = d_a - (d_b + d_c)/2 + j (sqrt(3)/2)(d_b - d_c).
        d_a, d_b, d_c = 0.03, 0.01, 0.02
        ph = resistance_coeffs((d_a, d_b, d_c))
        spread = complex(d_a - 0.5 * (d_b + d_c),
                         0.5 * math.sqrt(3.0) * (d_b - d_c))
        assert ph.k * np.exp(1j * ph.phi) == pytest.approx(spread / 3.0,
                                                           rel=1e-14)


class TestCoefficients:
    def test_resistance_reference_triple(self):
        ph = resistance_coeffs((0.03, 0.01, 0.02))
        assert ph.k == pytest.approx(0.005773502691896258, rel=1e-14)
        assert ph.phi == pytest.approx(-math.pi / 6, abs=1e-14)

    def test_single_phase_triple(self):
        ph = resistance_coeffs((0.03, 0.0, 0.0))
        assert ph.k == pytest.approx(0.01, rel=1e-15)
        assert ph.phi == 0.0

    def test_balanced_triple_is_degenerate(self):
        ph = flux_coeffs((0.01, 0.01, 0.01))
        assert ph.k < 1e-17
        assert ph.phi == 0.0

    def test_zero_triple(self):
        ph = flux_coeffs((0.0, 0.0, 0.0))
        assert ph.k == 0.0 and ph.phi == 0.0

    def test_single_mutual_pair(self):
        ph_l, ph_m = inductance_coeffs((0.0, 0.0, 0.0), (3e-5, 0.0, 0.0))
        assert ph_l.k == 0.0
        assert ph_m.k == pytest.approx(2.0 * 3e-5 / 3.0, rel=1e-14)
        assert ph_m.phi == pytest.approx(-2.0 * math.pi / 3.0, abs=1e-14)

    def test_self_phasor_matches_resistance_convention(self):
        triple = (2e-5, 0.5e-5, 1e-5)
        ph_l, _ = inductance_coeffs(triple, (0.0, 0.0, 0.0))
        ref = resistance_coeffs(triple)
        assert ph_l.k == ref.k and ph_l.phi == ref.phi

    @given(da=dev, db=dev, dc=dev, offset=dev)
    def test_common_offset_invariance(self, da, db, dc, offset):
        base = resistance_coeffs((da, db, dc))
        shifted = resistance_coeffs((da + offset, db + offset, dc + offset))
        tol = 1e-12 * (1.0 + da + db + dc + offset)
        assert abs(base.k - shifted.k) < tol
        if base.k > 1e-9 * (1.0 + da + db + dc):
            assert abs(wrap_angle(base.phi - shifted.phi)) < 1e-6

    @given(da=dev, db=dev, dc=dev)
    def test_cyclic_shift_rotates_phase(self, da, db, dc):
        base = resistance_coeffs((da, db, dc))
        rolled = resistance_coeffs((dc, da, db))
        assert abs(base.k - rolled.k) < 1e-12 * (1.0 + da + db + dc)
        if base.k > 1e-9 * (1.0 + da + db + dc):
            got = wrap_angle(rolled.phi - base.phi - 2.0 * math.pi / 3.0)
            assert abs(got) < 1e-6

    @given(da=dev, db=dev, dc=dev, scale=pos)
    def test_homogeneity(self, da, db, dc, scale):
        base = resistance_coeffs((da, db, dc))
        scaled = resistance_coeffs((scale * da, scale * db, scale * dc))
        assert scaled.k == pytest.approx(scale * base.k, rel=1e-12, abs=1e-300)
        if base.k > 1e-9 * (1.0 + da + db + dc):
            assert scaled.phi == pytest.approx(base.phi, abs=1e-9)


class TestDeltaExamples:
    def test_resistance_quarter_turn(self):
        op = OperatingPoint(theta=math.pi / 2, omega_e=0.0, i_d=0.0, i_q=10.0)
        d = resistance_delta((0.03, 0.0, 0.0), op)
        assert d[0] == pytest.approx(0.0, abs=1e-15)
        assert d[1] == pytest.approx(0.2, rel=1e-12)

    def test_resistance_dc_term_alone(self):
        # at 2theta+gamma = pi/2 the d-axis keeps only the DC part
        op = OperatingPoint(theta=math.pi / 4, omega_e=0.0, i_d=3.0, i_q=0.0)
        d = resistance_delta((0.03, 0.0, 0.0), op)
        assert d[0] == pytest.approx(0.03 / 3.0 * 3.0, rel=1e-12)
        assert d[1] == pytest.approx(0.01 * 3.0, rel=1e-12)

    def test_resistance_zero_sequence_coupling(self):
        op = OperatingPoint(theta=0.0, omega_e=0.0, i_d=0.0, i_q=0.0, i_0=2.0)
        d = resistance_delta((0.03, 0.0, 0.0), op)
        assert d[0] == pytest.approx(2 * 0.01 * 2.0, rel=1e-12)
        assert d[1] == pytest.approx(0.0, abs=1e-15)

    def test_flux_quarter_turn(self):
        d = flux_delta((0.005, 0.0, 0.0), omega_e=100.0, theta=math.pi / 2)
        assert d[0] == pytest.approx(0.0, abs=1e-12)
        assert d[1] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_flux_scales_with_speed(self):
        slow = flux_delta((0.002, 0.001, 0.0), omega_e=10.0, theta=0.7)
        fast = flux_delta((0.002, 0.001, 0.0), omega_e=1000.0, theta=0.7)
        assert fast[0] == pytest.approx(100.0 * slow[0], rel=1e-12)
        assert fast[1] == pytest.approx(100.0 * slow[1], rel=1e-12)

    def test_flux_vanishes_at_standstill(self):
        d = flux_delta((0.005, 0.001, 0.0), omega_e=0.0, theta=1.3)
        assert d[0] == 0.0 and d[1] == 0.0

    def test_inductance_self_aligned(self):
        op = OperatingPoint(theta=0.0, omega_e=100.0, i_d=0.0, i_q=10.0)
        d = inductance_delta((1e-4, 0.0, 0.0), (0.0, 0.0, 0.0), op)
        assert d[0] == pytest.approx(2e-4 / 3.0 * 1000.0, rel=1e-12)
        assert d[1] == pytest.approx(0.0, abs=1e-15)

    def test_inductance_mutual_zero_sequence_coupling(self):
        m = 3e-5
        op = OperatingPoint(theta=0.0, omega_e=0.0, i_d=0.0, i_q=0.0,
                            di_0=1000.0)
        d = inductance_delta((0.0, 0.0, 0.0), (m, 0.0, 0.0), op)
        k_m, g_m = 2.0 * m / 3.0, -2.0 * math.pi / 3.0
        assert d[0] == pytest.approx(k_m * math.cos(-g_m) * 1000.0, rel=1e-12)
        assert d[1] == pytest.approx(k_m * math.sin(-g_m) * 1000.0, rel=1e-12)

    def test_zero_deviation_gives_zero_delta(self):
        op = OperatingPoint(theta=0.4, omega_e=300.0, i_d=-2.0, i_q=8.0,
                            i_0=1.0, di_d=50.0, di_q=-20.0, di_0=10.0)
        zero = (0.0, 0.0, 0.0)
        for d in (resistance_delta(zero, op),
                  flux_delta(zero, 300.0, 0.4),
                  inductance_delta(zero, zero, op)):
            assert d[0] == 0.0 and d[1] == 0.0

    @pytest.mark.parametrize("name, value", [
        ("omega_e", math.nan), ("omega_e", math.inf),
        ("theta", -math.inf), ("theta", np.array([0.0, math.nan])),
    ])
    def test_flux_rejects_non_finite(self, name, value):
        args = dict(omega_e=100.0, theta=0.3)
        args[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            flux_delta((0.005, 0.0, 0.0), **args)

    def test_array_theta(self):
        theta = np.linspace(0, 2 * np.pi, 9)
        op = OperatingPoint(theta=theta, omega_e=100.0, i_d=1.0, i_q=2.0)
        d = resistance_delta((0.02, 0.01, 0.0), op)
        assert np.shape(d[0]) == (9,)
        one = resistance_delta(
            (0.02, 0.01, 0.0),
            OperatingPoint(theta=theta[3], omega_e=100.0, i_d=1.0, i_q=2.0))
        assert d[0][3] == one[0] and d[1][3] == one[1]


def brute_family_delta(nominal, theta, omega, i_dq0, di_dq0,
                       d_r=(0, 0, 0), d_l=(0, 0, 0), d_m=(0, 0, 0),
                       d_lam=(0, 0, 0)):
    """Phase-frame voltage change caused by the deviations alone."""
    r, l, m, lam = nominal["r"], nominal["l"], nominal["m"], nominal["lam"]
    with_dev = oracles.dq_voltages_brute(
        [r + d for d in d_r], [l + d for d in d_l], [m + d for d in d_m],
        [lam + d for d in d_lam], theta, omega, i_dq0, di_dq0)
    base = oracles.dq_voltages_brute(
        [r] * 3, [l] * 3, [m] * 3, [lam] * 3, theta, omega, i_dq0, di_dq0)
    return with_dev - base


def random_op(rng):
    return dict(
        theta=rng.uniform(-2 * np.pi, 2 * np.pi),
        omega=rng.uniform(-1000.0, 1000.0),
        i_dq0=np.array([rng.uniform(-10, 10), rng.uniform(-10, 10),
                        rng.uniform(-2, 2)]),
        di_dq0=np.array([rng.uniform(-5e3, 5e3), rng.uniform(-5e3, 5e3),
                         rng.uniform(-1e3, 1e3)]),
    )


class TestDeltaOracleEquivalence:
    def check(self, got_d, got_q, want, scale):
        assert abs(got_d - want[0]) < 1e-12 * scale
        assert abs(got_q - want[1]) < 1e-12 * scale

    def test_resistance_family(self, nominal, rng):
        for _ in range(100):
            c = random_op(rng)
            d_r = tuple(rng.uniform(0, 0.2 * nominal["r"], size=3))
            op = OperatingPoint(theta=c["theta"], omega_e=c["omega"],
                                i_d=c["i_dq0"][0], i_q=c["i_dq0"][1],
                                i_0=c["i_dq0"][2], di_d=c["di_dq0"][0],
                                di_q=c["di_dq0"][1], di_0=c["di_dq0"][2])
            got = resistance_delta(d_r, op)
            want = brute_family_delta(nominal, c["theta"], c["omega"],
                                      c["i_dq0"], c["di_dq0"], d_r=d_r)
            self.check(got[0], got[1], want,
                       1.0 + np.max(np.abs(want)) + np.max(np.abs(c["i_dq0"])))

    def test_flux_family(self, nominal, rng):
        for _ in range(100):
            c = random_op(rng)
            d_lam = tuple(rng.uniform(0, 0.2 * nominal["lam"], size=3))
            got = flux_delta(d_lam, c["omega"], c["theta"])
            want = brute_family_delta(nominal, c["theta"], c["omega"],
                                      c["i_dq0"], c["di_dq0"], d_lam=d_lam)
            self.check(got[0], got[1], want,
                       1.0 + abs(c["omega"]) * sum(d_lam))

    def test_inductance_family(self, nominal, rng):
        for _ in range(100):
            c = random_op(rng)
            d_l = tuple(rng.uniform(0, 0.2 * nominal["l"], size=3))
            d_m = tuple(rng.uniform(0, 0.2 * nominal["m"], size=3))
            op = OperatingPoint(theta=c["theta"], omega_e=c["omega"],
                                i_d=c["i_dq0"][0], i_q=c["i_dq0"][1],
                                i_0=c["i_dq0"][2], di_d=c["di_dq0"][0],
                                di_q=c["di_dq0"][1], di_0=c["di_dq0"][2])
            got = inductance_delta(d_l, d_m, op)
            want = brute_family_delta(nominal, c["theta"], c["omega"],
                                      c["i_dq0"], c["di_dq0"], d_l=d_l, d_m=d_m)
            scale = 1.0 + np.max(np.abs(c["di_dq0"])) * (sum(d_l) + sum(d_m)) \
                + abs(c["omega"]) * np.max(np.abs(c["i_dq0"])) * (sum(d_l) + sum(d_m))
            self.check(got[0], got[1], want, scale)

    def test_composed_families_match_full_machine(self, nominal, rng):
        for _ in range(100):
            c = random_op(rng)
            d_r = tuple(rng.uniform(0, 0.2 * nominal["r"], size=3))
            d_l = tuple(rng.uniform(0, 0.2 * nominal["l"], size=3))
            d_m = tuple(rng.uniform(0, 0.2 * nominal["m"], size=3))
            d_lam = tuple(rng.uniform(0, 0.2 * nominal["lam"], size=3))
            op = OperatingPoint(theta=c["theta"], omega_e=c["omega"],
                                i_d=c["i_dq0"][0], i_q=c["i_dq0"][1],
                                i_0=c["i_dq0"][2], di_d=c["di_dq0"][0],
                                di_q=c["di_dq0"][1], di_0=c["di_dq0"][2])
            ideal = ideal_dq_nonsalient(
                MachineParameters.from_nominal(**nominal, pole_pairs=3), op)
            v_d, v_q = compose_total(
                ideal,
                resistance_delta(d_r, op),
                flux_delta(d_lam, op.omega_e, op.theta),
                inductance_delta(d_l, d_m, op))
            want = oracles.dq_voltages_brute(
                [nominal["r"] + d for d in d_r],
                [nominal["l"] + d for d in d_l],
                [nominal["m"] + d for d in d_m],
                [nominal["lam"] + d for d in d_lam],
                c["theta"], c["omega"], c["i_dq0"], c["di_dq0"])
            scale = 1.0 + np.max(np.abs(want))
            assert abs(v_d - want[0]) < 1e-11 * scale
            assert abs(v_q - want[1]) < 1e-11 * scale

    @pytest.mark.parametrize("i_0, di_0", [(0.0, 0.0), (1.5, 0.0),
                                           (1.5, 40.0)])
    def test_closed_form_is_composed_public_deltas_bitwise(self, rng, i_0,
                                                           di_0):
        p = MachineParameters(
            0.104, 0.1, 0.102,
            2.1e-4, 2e-4, 2.05e-4,
            2e-5, 2.2e-5, 2.1e-5,
            0.0505, 0.05, 0.0502,
            pole_pairs=3)
        op = OperatingPoint(theta=rng.uniform(-50.0, 50.0, size=257),
                            omega_e=400.0, i_d=-2.0, i_q=8.0, i_0=i_0,
                            di_d=30.0, di_q=-20.0, di_0=di_0)
        dec = decompose(p)
        ideal = ideal_dq_nonsalient(p, op)
        want = compose_total(ideal,
                             resistance_delta(dec.d_r, op),
                             flux_delta(dec.d_lam, op.omega_e, op.theta),
                             inductance_delta(dec.d_l, dec.d_m, op))
        got = closed_form_dq(p, op)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_compose_total_adds_any_deltas_left_to_right(self, rng, count):
        ideal = tuple(rng.normal(size=(3, 65)))
        deltas = [tuple(rng.normal(size=(2, 65))) for _ in range(count)]
        kept = [a.copy() for a in (*ideal, *(x for d in deltas for x in d))]
        v_d, v_q = compose_total(ideal, *deltas)
        want_d, want_q = ideal[0], ideal[1]
        for dv_d, dv_q in deltas:
            want_d, want_q = want_d + dv_d, want_q + dv_q
        assert np.array_equal(v_d, want_d) and np.array_equal(v_q, want_q)
        # The inputs are left as they were.
        assert all(np.array_equal(a, b) for a, b in zip(
            kept, (*ideal, *(x for d in deltas for x in d))))

    def test_composition_consistent_with_decompose(self, nominal, rng):
        p = MachineParameters(
            0.104, 0.1, 0.102,
            2.1e-4, 2e-4, 2.05e-4,
            2e-5, 2.2e-5, 2e-5,
            0.0505, 0.05, 0.0502,
            pole_pairs=3)
        for _ in range(20):
            c = random_op(rng)
            op = OperatingPoint(theta=c["theta"], omega_e=c["omega"],
                                i_d=c["i_dq0"][0], i_q=c["i_dq0"][1],
                                i_0=c["i_dq0"][2], di_d=c["di_dq0"][0],
                                di_q=c["di_dq0"][1], di_0=c["di_dq0"][2])
            v_d, v_q = closed_form_dq(p, op)
            want = oracles.dq_voltages_brute(
                [p.r_a, p.r_b, p.r_c], [p.l_a, p.l_b, p.l_c],
                [p.m_ab, p.m_bc, p.m_ca], [p.lam_a, p.lam_b, p.lam_c],
                c["theta"], c["omega"], c["i_dq0"], c["di_dq0"])
            scale = 1.0 + np.max(np.abs(want))
            assert abs(v_d - want[0]) < 1e-11 * scale
            assert abs(v_q - want[1]) < 1e-11 * scale
