import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from pmimb import (
    ImbalanceDecomposition,
    MachineParameters,
    OperatingPoint,
    decompose,
    ideal_dq_nonsalient,
    phase_voltages,
    torque_abc,
    transient_window,
)
from pmimb.transforms import _phase_basis

dev = st.floats(min_value=0.0, max_value=0.02, allow_nan=False)

# (theta shape, current shape): scalar theta with (3, n) currents, (n,)
# theta with constant (3,) currents, and 2-D theta with (3,), full-shape
# or per-sample (3, n) currents.
LAYOUTS = [((), (3, 16)), ((16,), (3,)), ((4, 16), (3,)),
           ((4, 16), (3, 4, 16)), ((4, 16), (3, 16))]


def rows(theta_shape):
    """Row indices of a 2-D theta layout; none otherwise."""
    return range(theta_shape[0]) if len(theta_shape) == 2 else ()


def row_of(i, j):
    """The currents that go with row j of a 2-D theta."""
    return i[:, j] if i.ndim == 3 else i


def make_machine(nominal, d_r=(0, 0, 0), d_l=(0, 0, 0), d_m=(0, 0, 0),
                 d_lam=(0, 0, 0), pole_pairs=3):
    return MachineParameters.from_nominal(
        nominal["r"], nominal["l"], nominal["m"], nominal["lam"],
        pole_pairs, d_r=d_r, d_l=d_l, d_m=d_m, d_lam=d_lam)


class TestValidation:
    def test_balanced_constructor(self, nominal):
        p = MachineParameters.from_nominal(**nominal, pole_pairs=4)
        assert p.r_a == p.r_b == p.r_c == nominal["r"]
        assert p.pole_pairs == 4

    def test_rejects_nonpositive_resistance(self, nominal):
        with pytest.raises(ValueError):
            MachineParameters.from_nominal(r=0.0, l=nominal["l"],
                                           m=nominal["m"], lam=nominal["lam"],
                                           pole_pairs=1)

    def test_rejects_negative_flux(self, nominal):
        with pytest.raises(ValueError):
            MachineParameters.from_nominal(r=nominal["r"], l=nominal["l"],
                                           m=nominal["m"], lam=-0.01,
                                           pole_pairs=1)

    def test_rejects_bad_pole_pairs(self, nominal):
        with pytest.raises(ValueError):
            MachineParameters.from_nominal(**nominal, pole_pairs=0)

    # Beyond float range, pole_pairs once reached the torque as an
    # OverflowError; the other refusals keep their message.
    @pytest.mark.parametrize("pole_pairs, message", [
        (10 ** 400, "pole_pairs must be at most the largest float"),
        (int(np.finfo(float).max) + 1,
         "pole_pairs must be at most the largest float"),
        (0, "pole_pairs must be an integer >= 1"),
        (-1, "pole_pairs must be an integer >= 1"),
        (2.0, "pole_pairs must be an integer >= 1"),
    ], ids=["1e400", "max+1", "0", "-1", "2.0"])
    def test_pole_pairs_refusal_names_the_rule(self, nominal, pole_pairs,
                                               message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MachineParameters.from_nominal(**nominal, pole_pairs=pole_pairs)

    def test_largest_float_pole_pairs_accepted(self, nominal):
        p = MachineParameters.from_nominal(
            **nominal, pole_pairs=int(np.finfo(float).max))
        assert float(p.pole_pairs) == np.finfo(float).max

    @pytest.mark.parametrize("name, value", [
        ("r_a", np.inf), ("r_c", np.nan),
        ("l_b", np.inf), ("l_a", np.nan),
        ("m_ab", np.nan), ("m_ca", -np.inf),
        ("lam_a", np.inf), ("lam_b", np.nan),
    ])
    def test_rejects_non_finite(self, name, value):
        fields = dict(r_a=0.1, r_b=0.1, r_c=0.1, l_a=2e-4, l_b=2e-4,
                      l_c=2e-4, m_ab=2e-5, m_bc=2e-5, m_ca=2e-5,
                      lam_a=0.05, lam_b=0.05, lam_c=0.05, pole_pairs=1)
        fields[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MachineParameters(**fields)

    def test_rejects_indefinite_inductance_matrix(self):
        # l - 2m < 0 makes the matrix indefinite even with positive entries
        with pytest.raises(ValueError, match="[lm]_"):
            MachineParameters.from_nominal(r=0.1, l=1e-4, m=6e-5, lam=0.05,
                                           pole_pairs=1)

    def test_operating_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            OperatingPoint(theta=0.0, omega_e=np.nan, i_d=0.0, i_q=0.0)


class TestDecompose:
    def test_example_triples(self, nominal):
        p = MachineParameters(
            0.13, 0.11, 0.12,
            2.2e-4, 2.0e-4, 2.1e-4,
            2e-5, 2e-5, 3e-5,
            0.05, 0.052, 0.05,
            pole_pairs=3)
        dec = decompose(p)
        assert dec.nominal_r == 0.11
        assert dec.d_r == (0.13 - 0.11, 0.0, 0.12 - 0.11)
        assert dec.nominal_l == 2.0e-4
        assert dec.d_l == (2.2e-4 - 2.0e-4, 0.0, 2.1e-4 - 2.0e-4)
        assert dec.nominal_m == 2e-5
        assert dec.d_m == (0.0, 0.0, 3e-5 - 2e-5)
        assert dec.nominal_lam == 0.05
        assert dec.d_lam == (0.0, 0.052 - 0.05, 0.0)

    def test_balanced_machine_decomposes_to_zero_deviations(self, nominal):
        dec = decompose(MachineParameters.from_nominal(**nominal,
                                                       pole_pairs=2))
        assert dec.d_r == (0.0, 0.0, 0.0)
        assert dec.d_l == (0.0, 0.0, 0.0)
        assert dec.d_m == (0.0, 0.0, 0.0)
        assert dec.d_lam == (0.0, 0.0, 0.0)

    @given(da=dev, db=dev, dc=dev)
    def test_roundtrip_is_exact(self, da, db, dc):
        p = make_machine(dict(r=0.1, l=2e-4, m=2e-5, lam=0.05),
                         d_r=(da, db, dc), d_lam=(dc, da, db))
        dec = decompose(p)
        back = MachineParameters.from_nominal(
            dec.nominal_r, dec.nominal_l, dec.nominal_m, dec.nominal_lam,
            p.pole_pairs, dec.d_r, dec.d_l, dec.d_m, dec.d_lam)
        assert back == p

    def test_rejects_negative_deviation(self):
        with pytest.raises(ValueError):
            ImbalanceDecomposition(0.1, 2e-4, 2e-5, 0.05,
                                   (-0.01, 0.0, 0.0), (0, 0, 0),
                                   (0, 0, 0), (0, 0, 0))

    def test_rejects_nonzero_minimum(self):
        with pytest.raises(ValueError):
            ImbalanceDecomposition(0.1, 2e-4, 2e-5, 0.05,
                                   (0.01, 0.02, 0.01), (0, 0, 0),
                                   (0, 0, 0), (0, 0, 0))


class TestFluxAndVoltage:
    def test_phase_voltages_match_component_assembly(self, nominal, rng):
        p = make_machine(nominal, d_r=(0.01, 0, 0.002), d_l=(1e-5, 0, 2e-5),
                         d_m=(0, 1e-6, 0), d_lam=(0, 0.001, 0))
        r_abc = np.array(p.resistances())
        lam_abc = np.array(p.pm_flux())
        l_mat = p.inductance_matrix()
        for _ in range(50):
            i = rng.uniform(-10, 10, size=3)
            di = rng.uniform(-1e4, 1e4, size=3)
            theta = rng.uniform(-10, 10)
            omega = rng.uniform(-500, 500)
            got = phase_voltages(p, i, di, theta, omega)
            ang = oracles.phase_angle_vec(theta)
            want = r_abc * i + l_mat @ di + omega * lam_abc * np.sin(ang)
            assert np.allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_array_theta_broadcast(self, nominal):
        p = make_machine(nominal, d_lam=(0, 0.001, 0))
        theta = np.linspace(0, 2 * np.pi, 7)
        i = np.array([1.0, 0.0, -1.0])
        di = np.array([50.0, -20.0, -30.0])
        v = phase_voltages(p, i, di, theta, 300.0)
        assert v.shape == (3, 7)
        for j, th in enumerate(theta):
            one = phase_voltages(p, i, di, th, 300.0)
            assert np.allclose(v[:, j], one, atol=0, rtol=0)

    @pytest.mark.parametrize("theta_shape, current_shape", LAYOUTS)
    def test_basis_fed_matches_theta_fed_bitwise(self, nominal, rng,
                                                 theta_shape, current_shape):
        p = make_machine(nominal, d_r=(0.01, 0, 0.002), d_l=(1e-5, 0, 2e-5),
                         d_m=(0, 1e-6, 0), d_lam=(0, 0.001, 0.002))
        theta = rng.uniform(-50.0, 50.0, size=theta_shape)
        i = rng.uniform(-10.0, 10.0, size=current_shape)
        di = rng.uniform(-1e4, 1e4, size=current_shape)
        want = phase_voltages(p, i, di, theta, 300.0)
        assert want.shape == (3,) + np.broadcast_shapes(theta_shape,
                                                        current_shape[1:])
        got = phase_voltages(p, i, di, _phase_basis(theta), 300.0)
        assert np.array_equal(got, want)
        for j in rows(theta_shape):
            assert np.array_equal(want[:, j], phase_voltages(
                p, row_of(i, j), row_of(di, j), theta[j], 300.0))


class TestIdealDq:
    def test_nonsalient_steady_point(self):
        op = OperatingPoint(theta=0.3, omega_e=100.0, i_d=0.0, i_q=2.0)
        v_d, v_q, t_e = ideal_dq_nonsalient(
            MachineParameters.from_nominal(0.1, 2e-4, 2e-5, 0.05,
                                           pole_pairs=3),
            op)
        assert v_d == pytest.approx(2.2e-4 * 100.0 * 2.0, abs=1e-15)
        assert v_q == pytest.approx(0.1 * 2.0 + 100.0 * 0.05, abs=1e-15)
        assert t_e == pytest.approx(1.5 * 3 * 0.05 * 2.0, abs=1e-15)

    def test_nonsalient_matches_phase_frame_oracle(self, nominal, rng):
        p = MachineParameters.from_nominal(**nominal, pole_pairs=3)
        for _ in range(100):
            theta = rng.uniform(-10, 10)
            omega = rng.uniform(-800, 800)
            i_d, i_q = rng.uniform(-10, 10, size=2)
            di_d, di_q = rng.uniform(-5e3, 5e3, size=2)
            op = OperatingPoint(theta=theta, omega_e=omega, i_d=i_d, i_q=i_q,
                                di_d=di_d, di_q=di_q)
            v_d, v_q, _ = ideal_dq_nonsalient(p, op)
            brute = oracles.dq_voltages_brute(
                [nominal["r"]] * 3, [nominal["l"]] * 3, [nominal["m"]] * 3,
                [nominal["lam"]] * 3, theta, omega,
                [i_d, i_q, 0.0], [di_d, di_q, 0.0])
            scale = 1.0 + max(abs(v_d), abs(v_q))
            assert abs(v_d - brute[0]) < 1e-12 * scale
            assert abs(v_q - brute[1]) < 1e-12 * scale
            assert abs(brute[2]) < 1e-12 * scale


class TestTorque:
    def test_single_phase_example(self, nominal):
        p = MachineParameters.from_nominal(**nominal, pole_pairs=3)
        t_e = torque_abc(p, np.array([2.0, 0.0, 0.0]), theta=np.pi / 2)
        assert t_e == pytest.approx(3 * nominal["lam"] * 2.0, abs=1e-15)

    def test_balanced_currents_give_constant_torque(self, nominal):
        p = MachineParameters.from_nominal(**nominal, pole_pairs=3)
        i_q = 4.0
        theta = np.linspace(0, 2 * np.pi, 361)
        t_e = []
        for th in theta:
            i_abc = oracles.t_inverse(th) @ np.array([0.0, i_q, 0.0])
            t_e.append(torque_abc(p, i_abc, th))
        t_e = np.array(t_e)
        want = 1.5 * 3 * nominal["lam"] * i_q
        assert np.max(np.abs(t_e - want)) < 1e-12

    def test_matches_coenergy_oracle(self, nominal, rng):
        p = make_machine(nominal, d_l=(1e-5, 0, 5e-6), d_m=(0, 2e-6, 0),
                         d_lam=(0.002, 0, 0.001))
        lam_abc = np.array(p.pm_flux())
        l_abc = [p.l_a, p.l_b, p.l_c]
        m_pairs = [p.m_ab, p.m_bc, p.m_ca]
        worst = 0.0
        for _ in range(20):
            i_abc = rng.uniform(-10, 10, size=3)
            theta = rng.uniform(-5, 5)
            got = torque_abc(p, i_abc, theta)
            want = oracles.coenergy_torque(l_abc, m_pairs, lam_abc, i_abc,
                                           theta, p.pole_pairs)
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
        assert worst < 1e-6

    def test_independent_of_resistance(self, nominal):
        p1 = make_machine(nominal, d_r=(0.05, 0, 0))
        p2 = make_machine(nominal)
        i_abc = np.array([3.0, -1.0, -2.0])
        assert torque_abc(p1, i_abc, 0.7) == torque_abc(p2, i_abc, 0.7)

    @pytest.mark.parametrize("theta_shape, current_shape", LAYOUTS)
    def test_basis_fed_matches_theta_fed_bitwise(self, nominal, rng,
                                                 theta_shape, current_shape):
        p = make_machine(nominal, d_lam=(0.002, 0, 0.001))
        theta = rng.uniform(-50.0, 50.0, size=theta_shape)
        i = rng.uniform(-10.0, 10.0, size=current_shape)
        want = torque_abc(p, i, theta)
        assert np.shape(want) == np.broadcast_shapes(theta_shape,
                                                     current_shape[1:])
        assert np.array_equal(torque_abc(p, i, _phase_basis(theta)), want)
        for j in rows(theta_shape):
            assert np.array_equal(want[j],
                                  torque_abc(p, row_of(i, j), theta[j]))


class TestTimeConstants:
    def test_transient_window_covers_periods_and_settling(self, nominal):
        p = MachineParameters.from_nominal(**nominal, pole_pairs=3)
        tau = (nominal["l"] + nominal["m"]) / nominal["r"]
        assert transient_window(p, 0.0) == pytest.approx(5 * tau, rel=1e-15)
        slow = transient_window(p, 10.0)
        assert slow == pytest.approx(2 * 2 * np.pi / 10.0)
        fast = transient_window(p, 1e6)
        assert fast == pytest.approx(5 * tau)
