import runpy
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from conftest import NOMINAL
from pmimb import (
    ConfigError,
    InputError,
    MachineParameters,
    OperatingPoint,
    SimConfig,
    TimeSeries,
    balanced_voltage_command,
    closed_form_dq,
    compare_waveforms,
    compose_total,
    demodulate,
    flux_delta,
    ideal_dq_nonsalient,
    inductance_delta,
    park_forward,
    park_inverse,
    predict_current_ripple,
    resistance_delta,
    run_current_fed,
    run_voltage_fed,
    steady_state_currents,
    transient_window,
)
from pmimb import cli, parse_scenario, refsim
from pmimb.cli import run_scenario
from pmimb.harmonics import _BLOCK
from pmimb.refsim import CURRENT_FED_CHANNELS, VOLTAGE_FED_CHANNELS


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

FAMILY_DEVIATIONS = {
    "resistance": dict(d_r=(0.005, 0.0, 0.002)),
    "flux": dict(d_lam=(0.0015, 0.0, 0.0005)),
    "inductance": dict(d_l=(8e-6, 2e-6, 0.0), d_m=(0.0, 6e-7, 0.0)),
    "combined": dict(d_r=(0.005, 0.0, 0.002), d_l=(8e-6, 2e-6, 0.0),
                     d_m=(0.0, 6e-7, 0.0), d_lam=(0.0015, 0.0, 0.0005)),
}


def make_machine(nominal, pole_pairs=3, **families):
    return MachineParameters.from_nominal(
        nominal["r"], nominal["l"], nominal["m"], nominal["lam"],
        pole_pairs, **families)


def phase_values(p):
    """Per-phase (r, l, m, lam) triples in the oracles' argument order."""
    return ([p.r_a, p.r_b, p.r_c], [p.l_a, p.l_b, p.l_c],
            [p.m_ab, p.m_bc, p.m_ca], [p.lam_a, p.lam_b, p.lam_c])


def as_complex(phasor):
    """k e^{j phi} of a 2theta phasor."""
    return phasor.k * np.exp(1j * phasor.phi)


def demodulated_ripple(params, omega_e, i_d, i_q):
    """Ripple from the demodulated 2theta content of the closed forms."""
    theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    op = OperatingPoint(theta=theta, omega_e=omega_e, i_d=i_d, i_q=i_q)
    v_tilde = [as_complex(demodulate(v, theta).second)
               for v in closed_form_dq(params, op)]
    r = min(params.resistances())
    l_sync = min(params.l_a, params.l_b, params.l_c) + min(
        params.m_ab, params.m_bc, params.m_ca)
    z = np.array([
        [r + 2j * omega_e * l_sync, omega_e * l_sync],
        [-omega_e * l_sync, r + 2j * omega_e * l_sync],
    ])
    return -np.linalg.solve(z, v_tilde)


class TestConfigValidation:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=0.0)

    def test_rejects_duration_below_one_step(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=1e-3, duration=1e-4)

    # Past 2**53 samples i * dt repeats sample times (2**53 + 1 converts
    # to 2**53), so each grid is refused, naming its count: exactly below
    # 2**64, else to three digits.
    GRID_COUNTS = {
        (5e-324, 0.05): "inf",   # duration / dt overflows to inf
        (1e-300, 0.05): "5e+298",
        (1e-6, 1e300): "1e+306",
        (1.0, 2.0 ** 61): 2**61 + 1,
        (1.0, 2.0 ** 64): "1.84e+19",
        (1.0, 2.0 ** 64 - 2048): 2**64 - 2047,
        (1.0, 2.0 ** 53): 2**53 + 1,
    }

    @pytest.mark.parametrize("dt, duration", GRID_COUNTS)
    def test_rejects_a_grid_numpy_cannot_build(self, dt, duration):
        with pytest.raises(ConfigError) as excinfo:
            SimConfig(dt=dt, duration=duration)
        assert str(excinfo.value) == (
            f"duration / dt gives {self.GRID_COUNTS[dt, duration]} grid "
            f"samples, more than 2**53")

    def test_largest_grid_is_2_53_samples(self):
        cfg = SimConfig(dt=1.0, duration=2.0**53 - 1)
        assert refsim._grid_size(cfg) == 2**53

    def test_resolution_guard(self, nominal):
        p = make_machine(nominal)
        cfg = SimConfig(dt=1e-4, duration=0.01)
        with pytest.raises(ConfigError, match="dt"):
            run_current_fed(p, (0.0, 1.0), omega_e=1000.0, cfg=cfg)

    @pytest.mark.parametrize("name, drive", [
        ("i_dq_cmd", dict(i_dq_cmd=(np.nan, 1.0))),
        ("i_dq_cmd", dict(i_dq_cmd=(0.0, np.inf))),
        ("i_0", dict(i_0=np.nan)),
        ("omega_e", dict(omega_e=np.nan)),
        ("omega_e", dict(omega_e=-np.inf)),
    ])
    def test_current_fed_rejects_non_finite_drive(self, nominal, monkeypatch,
                                                  name, drive):
        # The check comes before the step check and the sample grid.
        monkeypatch.setattr("pmimb.refsim._check_step", None)
        args = dict(i_dq_cmd=(0.0, 1.0), omega_e=100.0, i_0=0.0) | drive
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            run_current_fed(make_machine(nominal), cfg=SimConfig(), **args)

    @pytest.mark.parametrize("name, drive", [
        ("v_dq_cmd", dict(v_dq_cmd=(np.nan, 1.0))),
        ("v_dq_cmd", dict(v_dq_cmd=(0.0, -np.inf))),
        ("omega_e", dict(omega_e=np.nan)),
        ("omega_e", dict(omega_e=np.inf)),
    ])
    def test_voltage_fed_rejects_non_finite_drive(self, nominal, monkeypatch,
                                                  name, drive):
        monkeypatch.setattr("pmimb.refsim._check_step", None)
        args = dict(v_dq_cmd=(0.0, 1.0), omega_e=100.0) | drive
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            run_voltage_fed(make_machine(nominal),
                            cfg=SimConfig(), **args)


class TestTimeSeries:
    def test_rejects_non_uniform_time(self):
        t = np.array([0.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="uniform"):
            TimeSeries(t, np.zeros(3))

    def test_rejects_decreasing_time(self):
        with pytest.raises(ValueError, match="increasing"):
            TimeSeries(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    def test_rejects_two_dimensional_time(self):
        with pytest.raises(ValueError, match="t must be 1-D"):
            TimeSeries(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_theta_of_another_shape(self):
        with pytest.raises(ValueError, match="theta must match t"):
            TimeSeries(np.linspace(0, 1, 5), np.zeros(4))

    def test_rejects_mismatched_channel(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="channel"):
            TimeSeries(t, np.zeros(5), {"i_a": np.zeros(4)})

    # A fault in any step, at a block's first or last step or deep in a
    # later block, is found; every step is checked for order first.
    @pytest.mark.parametrize("faults, message", [
        ({refsim._BLOCK - 1: -2.0}, "strictly increasing"),
        ({refsim._BLOCK: -1.0}, "strictly increasing"),
        ({2 * refsim._BLOCK + 5: np.nan}, "strictly increasing"),
        ({refsim._BLOCK: 0.5}, "uniformly sampled"),
        ({3: 0.5, 2 * refsim._BLOCK + 5: -2.0}, "strictly increasing"),
    ])
    def test_time_base_checked_across_blocks(self, faults, message):
        t = np.arange(3.0 * refsim._BLOCK + 10)
        for step, shift in faults.items():
            t[step + 1:] += shift
        with pytest.raises(ValueError, match=f"^t must be {message}$"):
            TimeSeries(t, np.zeros(t.size))

    def test_infinite_end_of_time_refused(self):
        # Its steps, 1 and inf, pass both step checks.
        with pytest.raises(ValueError, match="^t must be finite$"):
            TimeSeries([0.0, 1.0, np.inf], np.zeros(3))

    # Finiteness of t, then of theta, is checked in the same blocks as the
    # steps: a nan in t makes a nan step, read as not increasing, and an
    # infinite end of t passes the order check and is refused before the
    # uniformity check, which an infinite step could not pass.
    @pytest.mark.parametrize("t_faults, theta_faults, message", [
        ({-1: np.inf}, {}, "t must be finite"),
        ({0: -np.inf}, {}, "t must be finite"),
        ({}, {refsim._BLOCK: np.nan}, "theta must be finite"),
        ({}, {-1: -np.inf}, "theta must be finite"),
        ({}, {2 * refsim._BLOCK + 5: np.inf}, "theta must be finite"),
        ({-1: np.inf}, {0: np.nan}, "t must be finite"),
        ({refsim._BLOCK: np.nan}, {}, "t must be strictly increasing"),
        ({refsim._BLOCK: -1.0}, {0: np.nan}, "t must be strictly increasing"),
        ({refsim._BLOCK: refsim._BLOCK + 0.5}, {5: np.inf},
         "t must be uniformly sampled"),
    ])
    def test_non_finite_refused_after_the_step_checks(self, t_faults,
                                                      theta_faults, message):
        t = np.arange(3.0 * refsim._BLOCK + 10)
        theta = np.zeros(t.size)
        for values, faults in ((t, t_faults), (theta, theta_faults)):
            for index, value in faults.items():
                values[index] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            TimeSeries(t, theta)

    # A step that overflows between finite times, alone or beside a finite
    # step, is not uniform; an infinite end is still not finite. Neither
    # raises a numpy warning or floating-point error on the way.
    @pytest.mark.parametrize("t, message", [
        ([-1e308, 1e308], "t must be uniformly sampled"),
        ([-1.7e308, 1.7e308, 1.79e308], "t must be uniformly sampled"),
        ([-1e308, 1e308, np.inf], "t must be finite"),
        ([0.0, np.inf], "t must be finite"),
        ([-np.inf, 0.0, 1.0], "t must be finite"),
        ([0.0, np.inf, np.inf], "t must be strictly increasing"),
    ])
    def test_overflowing_step_refused_without_a_warning(self, t, message):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                TimeSeries(t, np.zeros(len(t)))

    def test_one_sample_accepted(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            ts = TimeSeries([5.0], [1.5], {"i_a": [2.0]})
        assert (ts.t.tolist(), ts.theta.tolist()) == ([5.0], [1.5])

    @pytest.mark.parametrize("t, theta, message", [
        ([np.inf], [0.0], "t must be finite"),
        ([np.nan], [np.nan], "t must be finite"),
        ([0.0], [-np.inf], "theta must be finite"),
        ([], [], "t must be 1-D with at least 1 sample"),
    ])
    def test_one_sample_checked_finite_and_none_refused(self, t, theta,
                                                         message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TimeSeries(t, theta)

    def test_largest_finite_step_accepted(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            ts = TimeSeries([-1e308, 0.0, 1e308], np.zeros(3))
        assert ts.t.tolist() == [-1e308, 0.0, 1e308]


class TestCurrentFed:
    CFG = SimConfig(dt=1e-5, duration=0.01)

    def test_balanced_machine_matches_ideal_model(self, nominal):
        p = make_machine(nominal)
        omega = 400.0
        ts = run_current_fed(p, (-2.0, 5.0), omega, self.CFG)
        op = OperatingPoint(theta=0.0, omega_e=omega, i_d=-2.0, i_q=5.0)
        v_d, v_q, t_e = ideal_dq_nonsalient(p, op)
        assert (np.max(np.abs(ts.channels["v_d"] - v_d))
                < 1e-12 * (1 + abs(v_d)))
        assert (np.max(np.abs(ts.channels["v_q"] - v_q))
                < 1e-12 * (1 + abs(v_q)))
        assert np.max(np.abs(ts.channels["v_0"])) < 1e-14
        assert (np.max(np.abs(ts.channels["t_e"] - t_e))
                < 1e-12 * (1 + abs(t_e)))
        assert np.max(np.abs(ts.channels["i_d"] + 2.0)) < 1e-13
        assert np.max(np.abs(ts.channels["i_q"] - 5.0)) < 1e-13

    def test_imbalanced_machine_matches_composed_model_pointwise(self, nominal):
        d_r = (0.01, 0.0, 0.004)
        d_lam = (0.0, 0.002, 0.0)
        d_l = (1e-5, 0.0, 0.0)
        d_m = (0.0, 0.0, 1e-6)
        p = make_machine(nominal, d_r=d_r, d_l=d_l, d_m=d_m, d_lam=d_lam)
        omega = 300.0
        i_d, i_q = 3.0, -7.0
        ts = run_current_fed(p, (i_d, i_q), omega, self.CFG)
        op = OperatingPoint(theta=ts.theta, omega_e=omega, i_d=i_d, i_q=i_q)
        ideal = ideal_dq_nonsalient(p, op)
        v_d, v_q = compose_total(
            ideal,
            resistance_delta(d_r, op),
            flux_delta(d_lam, omega, ts.theta),
            inductance_delta(d_l, d_m, op))
        scale = 1.0 + np.max(np.abs(v_q))
        assert np.max(np.abs(ts.channels["v_d"] - v_d)) < 1e-12 * scale
        assert np.max(np.abs(ts.channels["v_q"] - v_q)) < 1e-12 * scale

    def test_matches_brute_oracle_at_samples(self, nominal, rng):
        p = make_machine(nominal, d_r=(0.02, 0.0, 0.01),
                         d_lam=(0.001, 0.0, 0.0))
        omega = 250.0
        ts = run_current_fed(p, (1.5, -4.0), omega, self.CFG, i_0=0.5)
        idx = rng.integers(0, ts.t.size, size=20)
        for j in idx:
            want = oracles.dq_voltages_brute(
                [p.r_a, p.r_b, p.r_c], [p.l_a, p.l_b, p.l_c],
                [p.m_ab, p.m_bc, p.m_ca], [p.lam_a, p.lam_b, p.lam_c],
                ts.theta[j], omega, [1.5, -4.0, 0.5], [0.0, 0.0, 0.0])
            got = [ts.channels["v_d"][j], ts.channels["v_q"][j],
                   ts.channels["v_0"][j]]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_zero_sequence_knob(self, nominal):
        p = make_machine(nominal)
        ts = run_current_fed(p, (0.0, 0.0), 200.0, self.CFG, i_0=2.0)
        assert np.max(np.abs(ts.channels["i_0"] - 2.0)) < 1e-13
        phase_sum = (ts.channels["i_a"] + ts.channels["i_b"]
                     + ts.channels["i_c"])
        assert np.max(np.abs(phase_sum - 6.0)) < 1e-12

    def test_bit_reproducible(self, nominal):
        p = make_machine(nominal, d_r=(0.01, 0.0, 0.0))
        a = run_current_fed(p, (1.0, 2.0), 300.0, self.CFG)
        b = run_current_fed(p, (1.0, 2.0), 300.0, self.CFG)
        for name in a.channels:
            assert np.array_equal(a.channels[name], b.channels[name])


class TestVoltageFed:
    def test_rest_stays_at_rest(self, nominal):
        p = make_machine(nominal, d_lam=(0.0, 0.001, 0.0))
        cfg = SimConfig(dt=1e-5, duration=0.005)
        ts = run_voltage_fed(p, (0.0, 0.0), 0.0, cfg)
        assert np.max(np.abs(ts.channels["i_a"])) == 0.0
        assert np.max(np.abs(ts.channels["i_q"])) == 0.0

    def test_dc_settles_to_resistive_current(self, nominal):
        p = make_machine(nominal)
        cfg = SimConfig(dt=1e-6, duration=0.04)
        v_d = 0.5
        ts = run_voltage_fed(p, (v_d, 0.0), 0.0, cfg)
        want = v_d / nominal["r"]
        assert ts.channels["i_d"][-1] == pytest.approx(want, rel=1e-6)
        assert abs(ts.channels["i_q"][-1]) < 1e-6 * want

    def test_balanced_convergence_to_commanded_currents(self, nominal):
        p = make_machine(nominal)
        omega = 400.0
        i_cmd = (-2.0, 10.0)
        v_cmd = balanced_voltage_command(p, omega, *i_cmd)
        cfg = SimConfig(dt=1e-5, duration=0.06)
        ts = run_voltage_fed(p, v_cmd, omega, cfg)
        mask = ts.t >= transient_window(p, omega)
        assert mask.sum() > 1000
        assert np.max(np.abs(ts.channels["i_d"][mask] - i_cmd[0])) < 1e-3
        assert np.max(np.abs(ts.channels["i_q"][mask] - i_cmd[1])) < 1e-3
        # peak-to-peak flatness well past the transient
        tail = ts.t >= 0.75 * ts.t[-1]
        assert np.ptp(ts.channels["i_d"][tail]) < 1e-6

    def test_zero_sequence_identically_zero(self, nominal):
        p = make_machine(nominal, d_r=(0.02, 0.0, 0.0),
                         d_l=(2e-5, 0.0, 0.0))
        cfg = SimConfig(dt=2e-5, duration=0.03)
        ts = run_voltage_fed(p, (1.0, 5.0), 300.0, cfg)
        assert np.max(np.abs(ts.channels["i_0"])) < 1e-12
        phase_sum = (ts.channels["i_a"] + ts.channels["i_b"]
                     + ts.channels["i_c"])
        assert np.max(np.abs(phase_sum)) < 1e-12

    def test_star_point_channel(self, nominal):
        p = make_machine(nominal, d_lam=(0.002, 0.0, 0.0))
        cfg = SimConfig(dt=2e-5, duration=0.02)
        ts = run_voltage_fed(p, (0.5, 2.0), 300.0, cfg)
        assert "v_n" in ts.channels
        assert np.max(np.abs(ts.channels["v_0"] + ts.channels["v_n"])) < 1e-12
        # imbalance drives the star point; the channel must carry signal
        assert np.max(np.abs(ts.channels["v_n"])) > 1e-4

    @pytest.mark.parametrize("omega", [0.0, 700.0])
    def test_winding_law_holds_in_each_phase(self, nominal, rng, omega):
        # The winding voltages come from the currents and their derivative,
        # v_n from the applied voltages: each phase's applied voltage must be
        # its winding voltage plus v_n. A dropped modal term or a sign slip
        # in di/dt breaks this; the phase mean (v_0 = -v_n) alone does not.
        for _ in range(10):
            spread = {key: tuple(rng.uniform(0.0, 0.1 * nominal[name], 3))
                      for key, name in (("d_r", "r"), ("d_l", "l"),
                                        ("d_m", "m"), ("d_lam", "lam"))}
            p = make_machine(nominal, **spread)
            v_cmd = tuple(rng.uniform(-20.0, 20.0, 2))
            ts = run_voltage_fed(p, v_cmd, omega,
                                 SimConfig(dt=1e-5, duration=0.01))
            applied = np.stack(park_inverse((*v_cmd, 0.0), ts.theta))
            for phase, v_x in zip(applied, ("v_a", "v_b", "v_c")):
                kvl = phase - ts.channels["v_n"] - ts.channels[v_x]
                assert np.max(np.abs(kvl)) <= 1e-13 * np.max(np.abs(applied))

    def test_balanced_machine_keeps_star_point_quiet(self, nominal):
        p = make_machine(nominal)
        cfg = SimConfig(dt=2e-5, duration=0.02)
        ts = run_voltage_fed(p, (0.5, 2.0), 300.0, cfg)
        assert np.max(np.abs(ts.channels["v_n"])) < 1e-12

    def test_bit_reproducible(self, nominal):
        p = make_machine(nominal, d_r=(0.005, 0.0, 0.0))
        cfg = SimConfig(dt=2e-5, duration=0.01)
        a = run_voltage_fed(p, (0.4, 1.0), 400.0, cfg)
        b = run_voltage_fed(p, (0.4, 1.0), 400.0, cfg)
        for name in a.channels:
            assert np.array_equal(a.channels[name], b.channels[name])

    def test_fourth_order_step_convergence(self, nominal):
        p = make_machine(nominal, d_r=(0.002, 0.0, 0.0))
        omega = 400.0
        v_cmd = balanced_voltage_command(p, omega, 0.0, 5.0)
        runs = {}
        for dt in (6e-5, 3e-5, 1.5e-5):
            runs[dt], _, _ = oracles.voltage_fed_rk4(
                *phase_values(p), v_cmd, omega, dt, int(round(0.018 / dt)))
        coarse = runs[6e-5]
        mid = runs[3e-5][::2]
        fine = runs[1.5e-5][::4]
        e_coarse = np.max(np.abs(coarse - mid))
        e_mid = np.max(np.abs(mid - fine))
        assert e_mid > 0.0
        ratio = e_coarse / e_mid
        assert 10.0 < ratio < 24.0

    @pytest.mark.parametrize("omega", [0.0, 700.0])
    @pytest.mark.parametrize("family", [*sorted(FAMILY_DEVIATIONS),
                                        "balanced", "near-balanced"])
    def test_matches_rk4_oracle(self, nominal, family, omega):
        if family == "near-balanced":
            tiny = 1e-13
            deviations = dict(
                d_r=(tiny * nominal["r"], 0.0, 0.5 * tiny * nominal["r"]),
                d_l=(tiny * nominal["l"], 0.3 * tiny * nominal["l"], 0.0),
                d_m=(0.0, tiny * nominal["m"], 0.0),
                d_lam=(0.0, 0.0, tiny * nominal["lam"]))
        else:
            deviations = FAMILY_DEVIATIONS.get(family, {})
        p = make_machine(nominal, **deviations)
        v_cmd = balanced_voltage_command(p, omega, -2.0, 10.0)
        dt, steps = 1e-5, 2000
        ts = run_voltage_fed(p, v_cmd, omega, SimConfig(
            dt=dt, duration=steps * dt))
        r_abc, l_abc, m_pairs, lam_abc = phase_values(p)
        i_a, i_b, v_n = oracles.voltage_fed_rk4(
            r_abc, l_abc, m_pairs, lam_abc, v_cmd, omega, dt, steps)
        # RK4 truncation per step is (h mu)^5 / 120 of the state, for the
        # fastest rate mu; rounding adds about one ulp per step. Both
        # accumulate at most linearly over the run.
        reduce_map = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        l_red = reduce_map.T @ oracles.inductance_matrix(l_abc, m_pairs) \
            @ reduce_map
        r_red = reduce_map.T @ np.diag(r_abc) @ reduce_map
        rates = np.linalg.eigvals(np.linalg.solve(l_red, r_red))
        mu = max(float(np.max(np.abs(rates))), omega)
        scale = max(np.max(np.abs(i_a)), np.max(np.abs(i_b)))
        tol = 10.0 * scale * steps * ((dt * mu) ** 5 / 120.0
                                      + np.finfo(float).eps)
        assert np.max(np.abs(ts.channels["i_a"] - i_a)) < tol
        assert np.max(np.abs(ts.channels["i_b"] - i_b)) < tol
        # The v_n error is the current error seen through the winding
        # impedance.
        tol_v = tol * (max(r_abc) + mu * max(l_abc))
        assert np.max(np.abs(ts.channels["v_n"] - v_n)) < tol_v


# One selection per channel group, single names, each mode's every name in
# reverse order, and the sets the CLI jobs ask for.
SELECTIONS = {
    "i_a": ("i_a",),
    "v_b": ("v_b",),
    "i_q": ("i_q",),
    "v_0": ("v_0",),
    "t_e": ("t_e",),
    "v_n": ("v_n",),
    "phase-v": ("v_a", "v_b", "v_c"),
    "phase-i": ("i_a", "i_b", "i_c"),
    "dq0-v": ("v_d", "v_q", "v_0"),
    "dq0-i": ("i_d", "i_q", "i_0"),
    "ripple-study": ("i_a", "i_b", "i_0", "i_d", "i_q", "t_e"),
    "compare": ("v_d", "v_q"),
    "all-reversed": tuple(reversed(VOLTAGE_FED_CHANNELS)),
    "current-reversed": tuple(reversed(CURRENT_FED_CHANNELS)),
}
SELECTION_CASES = [
    pytest.param(mode, channels, id=f"{mode}-{name}")
    for mode in ("current-fed", "voltage-fed")
    for name, channels in SELECTIONS.items()
    if mode == "voltage-fed" or "v_n" not in channels
]


def simulate(nominal, mode, channels, cfg=SimConfig(dt=1e-5, duration=3e-3)):
    p = make_machine(nominal, **FAMILY_DEVIATIONS["combined"])
    if mode == "current-fed":
        return run_current_fed(p, (-1.0, 8.0), 300.0, cfg, i_0=0.5,
                               channels=channels)
    return run_voltage_fed(p, (1.0, 20.0), 300.0, cfg, channels=channels)


def plan(nominal, mode, channels, cfg):
    """``simulate``'s run as its plan: the grid, the channel names and
    the evaluator."""
    p = make_machine(nominal, **FAMILY_DEVIATIONS["combined"])
    if mode == "current-fed":
        return refsim._current_fed_plan(p, (-1.0, 8.0), 300.0, cfg, i_0=0.5,
                                        channels=channels)
    return refsim._voltage_fed_plan(p, (1.0, 20.0), 300.0, cfg,
                                    channels=channels)


def select(nominal, mode, channels, samples,
           cfg=SimConfig(dt=1e-5, duration=3e-3)):
    """The grid indices ``samples`` selects of ``simulate``'s run,
    evaluated through its plan a block of ``_BLOCK`` at a time."""
    grid, names, evaluate = plan(nominal, mode, channels, cfg)
    return refsim._blocked(grid[samples], names, evaluate)


class TestChannelSelection:
    @pytest.mark.parametrize("mode, channels", SELECTION_CASES)
    def test_each_channel_equals_the_full_run(self, nominal, mode, channels):
        # The named channels, in the order named, bit for bit the full run's.
        assert_selection_is_the_full_run(
            simulate(nominal, mode, channels), simulate(nominal, mode, None),
            slice(None), channels)

    @pytest.mark.parametrize("mode, channels, available", [
        ("current-fed", ("i_d", "v_n"), CURRENT_FED_CHANNELS),
        ("voltage-fed", ("v_n", "t_m"), VOLTAGE_FED_CHANNELS),
    ])
    def test_unavailable_channel_refused_before_the_grid(
            self, nominal, monkeypatch, mode, channels, available):
        monkeypatch.setattr("pmimb.refsim._check_step", None)
        with pytest.raises(ConfigError) as excinfo:
            simulate(nominal, mode, channels)
        bad = channels[-1]
        assert str(excinfo.value) == (
            f"unknown channel {bad!r} (available: {', '.join(available)})")

    # The first faulty name in order is the one refused.
    @pytest.mark.parametrize("channels, message", [
        (("t_e", "i_d", "t_e"), "channel 't_e' is listed twice"),
        (("v_d", "v_d", "t_m"), "channel 'v_d' is listed twice"),
        (("t_m", "v_d", "v_d"), "unknown channel 't_m' (available: "),
    ])
    @pytest.mark.parametrize("mode", ["current-fed", "voltage-fed"])
    def test_repeated_channel_refused_before_the_grid(
            self, nominal, monkeypatch, mode, channels, message):
        monkeypatch.setattr("pmimb.refsim._check_step", None)
        with pytest.raises(ConfigError) as excinfo:
            simulate(nominal, mode, channels)
        assert str(excinfo.value).startswith(message)

    @pytest.mark.parametrize("mode", ["current-fed", "voltage-fed"])
    def test_bare_string_refused_before_the_grid(self, nominal, monkeypatch,
                                                 mode):
        # Read one character at a time, 't_e' would ask for channel 't'.
        monkeypatch.setattr("pmimb.refsim._check_step", None)
        with pytest.raises(ConfigError, match=r"^channels must be a "
                                              "collection of names, not the "
                                              "string 't_e'$"):
            simulate(nominal, mode, "t_e")


def assert_selection_is_the_full_run(got, full, samples, channels=None):
    """``got`` holds ``channels`` in that order, all of ``full``'s for
    None, and every array is ``full``'s at ``samples``, bit for bit."""
    assert list(got.channels) == list(full.channels if channels is None
                                     else channels)
    pairs = [(got.t, full.t), (got.theta, full.theta)] + [
        (got.channels[name], full.channels[name]) for name in got.channels]
    for have, want in pairs:
        assert np.array_equal(have.view(np.uint64),
                              want[samples].view(np.uint64))


@pytest.fixture(scope="module")
def full_runs():
    """Every channel of each mode's run on the 301-sample grid."""
    return {mode: simulate(NOMINAL, mode, None)
            for mode in ("current-fed", "voltage-fed")}


# The 301-sample grid's index bounds, open ends and negatives included.
BOUNDS = st.none() | st.integers(-310, 310)


class TestSampleSelection:
    # The jobs select samples by handing ranges of the plan's grid to its
    # evaluator. Every sample is closed form, so any strided range,
    # evaluated a block at a time, is the full run indexed by the same
    # slice, signed zeros included, whatever the channels, their order and
    # the block size. Blocks of 3 and 7 let a step exceed the block and a
    # selection end in a lone sample, which runs as a pair.
    @given(mode=st.sampled_from(["current-fed", "voltage-fed"]),
           picks=st.lists(st.sampled_from(VOLTAGE_FED_CHANNELS),
                          unique=True),
           block=st.sampled_from([3, 7, refsim._BLOCK]),
           start=BOUNDS, stop=BOUNDS, step=st.none() | st.integers(1, 320))
    @example(mode="voltage-fed", picks=list(VOLTAGE_FED_CHANNELS[::-1]),
             block=7, start=None, stop=None, step=9)
    @example(mode="current-fed", picks=["t_e", "v_d"], block=7,
             start=2, stop=17, step=None)
    @example(mode="voltage-fed", picks=["v_n", "i_d"], block=7,
             start=-281, stop=None, step=20)
    @example(mode="current-fed", picks=[], block=3, start=None,
             stop=None, step=300)
    def test_selection_is_the_full_run_at_those_samples(
            self, full_runs, mode, picks, block, start, stop, step):
        samples = slice(start, stop, step)
        if not range(301)[samples]:
            return
        available = full_runs[mode].channels
        channels = [name for name in picks if name in available]
        original = refsim._BLOCK
        refsim._BLOCK = block
        try:
            got = select(NOMINAL, mode, channels, samples)
        finally:
            refsim._BLOCK = original
        assert_selection_is_the_full_run(got, full_runs[mode], samples,
                                         channels)

    # With the package's block size on a 40 001-sample grid: a step above
    # the block, a last block of one sample, and a strided selection.
    @pytest.mark.parametrize("samples", [
        slice(3, None, refsim._BLOCK + 117),
        slice(1, refsim._BLOCK + 2),
        slice(-2 * refsim._BLOCK - 1, None),
        slice(None, None, 2),
    ], ids=["step-above-block", "lone-last", "late-lone-last", "stride-2"])
    @pytest.mark.parametrize("mode", ["current-fed", "voltage-fed"])
    def test_selection_across_package_blocks(self, nominal, mode, samples):
        cfg = SimConfig(dt=1e-6, duration=0.04)
        full = simulate(nominal, mode, None, cfg=cfg)
        assert full.t.size == 40_001
        assert_selection_is_the_full_run(
            select(nominal, mode, None, samples, cfg), full, samples)

    # The steps of t = index * dt spread by up to 2 ulp of the last time;
    # past about 8.4e6 steps that exceeded a bound of 1e-9 of the step, and
    # the runners refused their own time base as not uniformly sampled.
    @pytest.mark.parametrize("duration", [10.0, 100.0])
    @pytest.mark.parametrize("mode", ["current-fed", "voltage-fed"])
    def test_late_samples_of_a_long_grid(self, nominal, mode, duration):
        cfg = SimConfig(dt=1e-6, duration=duration)
        n = refsim._grid_size(cfg)
        ts = select(nominal, mode, ("i_d",), slice(-1000, None), cfg)
        assert np.array_equal(ts.t, np.arange(n - 1000, n) * 1e-6)

    # Once refused as fewer than 2 samples.
    @pytest.mark.parametrize("samples", [
        slice(5, 6), slice(-1, None), slice(None, None, 301)])
    @pytest.mark.parametrize("mode", ["current-fed", "voltage-fed"])
    def test_one_sample_selection_is_the_full_run(self, full_runs, mode,
                                                  samples):
        assert_selection_is_the_full_run(
            select(NOMINAL, mode, None, samples), full_runs[mode], samples)

    # A matrix product over one sample rounds apart from the same sample in
    # a block; with the package's block size on a 40 001-sample grid, a
    # lone sample at a block's either end, past it and at the grid's end
    # is the full run's, in every channel.
    @pytest.mark.parametrize("mode", ["current-fed", "voltage-fed"])
    def test_lone_sample_at_block_edges_is_the_full_run(self, nominal, mode):
        cfg = SimConfig(dt=1e-6, duration=0.04)
        full = simulate(nominal, mode, None, cfg=cfg)
        for index in (0, refsim._BLOCK - 1, refsim._BLOCK,
                      refsim._BLOCK + 1, full.t.size - 1):
            samples = slice(index, index + 1)
            assert_selection_is_the_full_run(
                select(nominal, mode, None, samples, cfg), full, samples)


class TestPlan:
    # An evaluator gives any range of grid indices the full run's bits,
    # signed zeros included: lone samples, pairs, one block and one block
    # plus one sample, from mid-grid and at the grid's ends, stepping by 1
    # or more.
    @pytest.mark.parametrize("start, length, step", [
        (0, 1, 1), (12_345, 1, 1), (40_000, 1, 1), (_BLOCK - 1, 2, 1),
        (40_000 - 2 * 3, 2, 3), (777, _BLOCK, 1), (3, _BLOCK + 1, 1),
        (40_001 - _BLOCK - 1, _BLOCK + 1, 1), (101, _BLOCK + 1, 2),
        (5, 1000, 37),
    ])
    @pytest.mark.parametrize("channels", [None, ("t_e", "i_0", "v_d")],
                             ids=["all", "three"])
    @pytest.mark.parametrize("mode", ["current-fed", "voltage-fed"])
    def test_any_range_is_the_full_run(self, nominal, full_long_runs, mode,
                                       channels, start, length, step):
        cfg = SimConfig(dt=1e-6, duration=0.04)
        full = full_long_runs[mode]
        grid, names, evaluate = plan(nominal, mode, channels, cfg)
        assert grid == range(40_001)
        assert names == list(full.channels if channels is None else channels)
        index = grid[start:start + length * step:step]
        assert len(index) == length
        t, theta, values = evaluate(index)
        got = TimeSeries(t, theta, values)
        assert_selection_is_the_full_run(
            got, full, slice(start, start + length * step, step), channels)

    @pytest.mark.parametrize("mode", ["current-fed", "voltage-fed"])
    def test_plan_refuses_as_its_run_does(self, nominal, monkeypatch, mode):
        # The checks run when the plan is made, before any evaluation.
        monkeypatch.setattr(refsim, "_evaluator", None)
        cfg = SimConfig(dt=1e-3, duration=0.01)
        with pytest.raises(ConfigError, match="^dt = 0.001 s exceeds"):
            plan(nominal, mode, None, cfg)


@pytest.fixture(scope="module")
def full_long_runs():
    """Every channel of each mode's run on a 40 001-sample grid."""
    cfg = SimConfig(dt=1e-6, duration=0.04)
    return {mode: simulate(NOMINAL, mode, None, cfg=cfg)
            for mode in ("current-fed", "voltage-fed")}


# Per block size, grids one short of a block, exactly one, two and a lone
# sample (which runs as a pair), and two and a partial block.
BLOCK_GRIDS = [pytest.param(block, size, id=f"block{block}-n{size}")
               for block in (7, 1000)
               for size in (block - 1, block, 2 * block + 1, 2 * block + 7)]

COMPARE_SCENARIO = """\
[machine]
pole_pairs = 3
r = 0.1
l = 2e-4
m = 2e-5
lam = 0.05

[imbalance]
family = combined
d_r = 5%, 0, 2%
d_l = 4%, 1%, 0
d_m = 0, 3%, 0
d_lam = 2%, 0, 1%

[operating_point]
omega_e = 400
i_d = -1
i_q = 8
i_0 = 0.5

[sim]
dt = 1e-5
duration = {duration!r}
"""


class TestBlockSizeInvariance:
    # The runs evaluate their samples a block of refsim._BLOCK at a time,
    # within the compare job's blocks too. Any block size must give the
    # bits of one block over the whole grid, signed zeros included.
    @pytest.mark.parametrize("selection", [None, "compare", "ripple-study"])
    @pytest.mark.parametrize("mode", ["current-fed", "voltage-fed"])
    @pytest.mark.parametrize("block, size", BLOCK_GRIDS)
    def test_channels_do_not_depend_on_the_block_size(
            self, nominal, monkeypatch, mode, selection, block, size):
        p = make_machine(nominal, **FAMILY_DEVIATIONS["combined"])
        cfg = SimConfig(dt=1e-5, duration=(size - 1) * 1e-5)
        channels = None if selection is None else SELECTIONS[selection]

        def run(block):
            monkeypatch.setattr(refsim, "_BLOCK", block)
            if mode == "current-fed":
                return run_current_fed(p, (-1.0, 8.0), 300.0, cfg,
                                       channels=channels)
            return run_voltage_fed(p, (1.0, 20.0), 300.0, cfg,
                                   channels=channels)
        whole, blocked = run(size), run(block)
        assert blocked.t.size == size
        assert list(blocked.channels) == list(whole.channels)
        for name in whole.channels:
            got, want = blocked.channels[name], whole.channels[name]
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("block", [7, 1000])
    def test_compare_model_columns_do_not_depend_on_the_block_size(
            self, tmp_path, monkeypatch, block):
        # The compare job evaluates and models its own blocks; only its
        # summary's sums are grouped by them.
        size = 2 * block + 7
        path = tmp_path / "compare.ini"
        path.write_text(COMPARE_SCENARIO.format(duration=(size - 1) * 1e-5))
        csv = {}
        for run_block in (size, block):
            monkeypatch.setattr(cli, "_BLOCK", run_block)
            written = run_scenario(parse_scenario(path), "compare",
                                   tmp_path / str(run_block))
            csv[run_block] = written[0].read_bytes()
        csv_text = csv[block].decode()
        assert csv_text.startswith("t,theta,v_d_sim,v_q_sim,v_d_model,")
        assert csv_text.count("\n") == size + 1
        assert csv[block] == csv[size]


# flux_compare.ini on a grid of any length. On one block plus one sample
# its v_d rms differs from a single pairwise sum over the grid.
FLUX_COMPARE_SCENARIO = (
    SCRIPTS.parent / "scenarios" / "flux_compare.ini").read_text().replace(
        "duration = 0.03", "duration = {duration!r}")


@pytest.mark.parametrize("text", [COMPARE_SCENARIO, FLUX_COMPARE_SCENARIO],
                         ids=["combined", "flux"])
@pytest.mark.parametrize("size", [2, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7],
                         ids=["two", "block", "lone-last", "three-blocks"])
def test_compare_job_summary_is_compare_waveforms_of_the_grid(tmp_path,
                                                              text, size):
    # The job folds each block as it is simulated; compare_waveforms folds
    # the whole grid's arrays the same way, so the two give the same bits.
    path = tmp_path / "compare.ini"
    path.write_text(text.format(duration=(size - 1) * 1e-5))
    scenario = parse_scenario(path)
    summary = run_scenario(scenario, "compare", tmp_path / "out")[-1]
    entries = dict(line.split(": ", 1)
                   for line in summary.read_text().splitlines())
    ts = refsim._blocked(*cli._plan(scenario, ("v_d", "v_q")))
    assert ts.t.size == size
    model = closed_form_dq(scenario.machine, OperatingPoint(
        ts.theta, scenario.omega_e, scenario.i_d, scenario.i_q, scenario.i_0))
    for axis, b in zip(("v_d", "v_q"), model):
        metrics = compare_waveforms(ts.channels[axis], b)
        for key, value in vars(metrics).items():
            assert entries[f"compare.{axis}.{key}"] == repr(value)


RIPPLE_SCENARIO = """\
[machine]
pole_pairs = 3
r = 0.1
l = 2e-4
m = 2e-5
lam = 0.05

[imbalance]
family = combined
d_r = 5%, 0, 2%
d_l = 4%, 1%, 0
d_m = 0, 3%, 0
d_lam = 2%, 0, 1%

[operating_point]
omega_e = 300
v_d = 1.0
v_q = 20.0

[sim]
mode = voltage-fed
dt = 1e-6
duration = {duration!r}

[outputs]
channels = i_a, i_b, i_0, i_d, i_q
stride = 20
"""


class TestPeakMemory:
    # Peak bytes traced during one run on a 200 001-sample grid, in grid
    # columns of 8 bytes per sample. The columns the result holds count
    # too: t, theta and every channel, 15 for current-fed and 16 for
    # voltage-fed. The rest is one block's working set, fixed in bytes;
    # TimeSeries checks the time base a block at a time within it.
    # tracemalloc sees numpy's buffers, so the figure is deterministic.
    N = 200_001

    @pytest.mark.parametrize("mode, drive, channels, columns", [
        ("voltage-fed", (1.0, 20.0), None, 20),
        ("current-fed", (-1.0, 8.0), None, 18),
        # The compare job's channels.
        ("current-fed", (-1.0, 8.0), ("v_d", "v_q"), 6),
    ], ids=["voltage-fed", "current-fed", "compare"])
    def test_peak_in_grid_columns(self, nominal, mode, drive, channels,
                                  columns):
        peak, _ = self.peak_bytes(nominal, mode, drive, self.N, channels)
        assert peak / (8 * self.N) <= columns

    def test_current_only_selection_skips_the_voltages(self, nominal):
        # The ripple-study channels need no winding voltages: 8 kept
        # columns against 16 for the full voltage-fed run.
        channels = ("i_a", "i_b", "i_0", "i_d", "i_q", "t_e")
        peak, _ = self.peak_bytes(nominal, "voltage-fed", (1.0, 20.0),
                                  self.N, channels)
        assert peak / (8 * self.N) <= 10

    @pytest.mark.parametrize("mode, drive", [
        ("voltage-fed", (1.0, 20.0)),
        ("current-fed", (-1.0, 8.0)),
    ], ids=["voltage-fed", "current-fed"])
    def test_excess_over_kept_columns_is_fixed(self, nominal, mode, drive):
        excess = [peak - kept for peak, kept in (
            self.peak_bytes(nominal, mode, drive, size)
            for size in (self.N // 2 + 1, self.N, 2 * self.N - 1))]
        assert excess[1:] == pytest.approx([excess[0]] * 2, rel=0.01)

    def test_simulate_job_evaluates_only_the_samples_it_reads(self,
                                                             tmp_path):
        # The ripple-study job: voltage-fed, five channels written at
        # stride 20, and the summary's three means over the late half. Each
        # selection is its own run, so neither holds a full grid column.
        text = RIPPLE_SCENARIO.format(duration=(self.N - 1) * 1e-6)
        warm_up, path = tmp_path / "warm-up.ini", tmp_path / "ripple.ini"
        warm_up.write_text(RIPPLE_SCENARIO.format(duration=1e-3))
        path.write_text(text)
        run_scenario(parse_scenario(warm_up), "simulate", tmp_path / "warm")
        scenario = parse_scenario(path)
        tracemalloc.start()
        try:
            written = run_scenario(scenario, "simulate", tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        summary = written[-1].read_text()
        assert f"simulate.samples: {self.N}\n" in summary
        assert written[0].read_text().count("\n") == 1 + 10_001
        assert peak / (8 * self.N) <= 5

    @pytest.mark.parametrize("outputs, stride", [
        ("channels = i_a, i_b, i_0, i_d, i_q\nstride = 20\n", 20),
        ("", 1),
    ], ids=["ripple-study", "every-channel"])
    def test_simulate_job_holds_one_block(self, tmp_path, outputs, stride):
        # The ripple-study job, and every channel at every sample: each
        # block's CSV rows are written and its late-half sums folded as it
        # is evaluated, so the peak is one block's working set, whatever
        # the grid. Held to the end, as they once were, the rows raised the
        # peak at 800 001 samples from 3.4 to 5.3 MiB at stride 20, and
        # from 6.3 to 102 MiB at stride 1.
        text = RIPPLE_SCENARIO.replace(
            "channels = i_a, i_b, i_0, i_d, i_q\nstride = 20\n", outputs)
        warm_up = tmp_path / "warm-up.ini"
        warm_up.write_text(text.format(duration=1e-3))
        run_scenario(parse_scenario(warm_up), "simulate", tmp_path / "warm")
        peaks = []
        for size in (self.N, 4 * self.N - 3):
            path = tmp_path / f"{size}.ini"
            path.write_text(text.format(duration=(size - 1) * 1e-6))
            scenario = parse_scenario(path)
            tracemalloc.start()
            try:
                written = run_scenario(scenario, "simulate",
                                       tmp_path / str(size))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            with open(written[0], "rb") as csv:
                assert sum(1 for _ in csv) == 1 + len(range(0, size, stride))
            written[0].unlink()  # 300 MB at stride 1
            peaks.append(peak)
        assert peaks[1] == pytest.approx(peaks[0], rel=0.03)

    def test_compare_job_holds_one_block(self, tmp_path):
        # The compare-sweep job: v_d, v_q simulated, modelled, folded and
        # every 50th row written a block at a time, so the peak is one
        # block's working set, whatever the grid.
        text = COMPARE_SCENARIO + "\n[outputs]\nstride = 50\n"
        peaks = []
        for size in (2001, self.N, 4 * self.N - 3):
            path = tmp_path / f"{size}.ini"
            path.write_text(text.format(duration=(size - 1) * 1e-5))
            scenario = parse_scenario(path)
            tracemalloc.start()
            try:
                written = run_scenario(scenario, "compare",
                                       tmp_path / str(size))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            rows = len(range(0, size, 50))
            assert written[0].read_text().count("\n") == 1 + rows
            peaks.append(peak)
        # The first run warms up first-call imports and caches.
        assert peaks[2] == pytest.approx(peaks[1], rel=0.03)
        assert peaks[1] / (8 * self.N) <= 3

    def peak_bytes(self, nominal, mode, drive, size, channels=None):
        """Peak traced bytes of one run and the bytes its result keeps."""
        p = make_machine(nominal, **FAMILY_DEVIATIONS["combined"])
        run = run_current_fed if mode == "current-fed" else run_voltage_fed
        # Warm-up: first-call imports and caches are not the grid's.
        run(p, drive, 300.0, SimConfig(dt=1e-5, duration=1e-3),
            channels=channels)
        cfg = SimConfig(dt=1e-6, duration=(size - 1) * 1e-6)
        tracemalloc.start()
        try:
            ts = run(p, drive, 300.0, cfg, channels=channels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ts.t.size == size
        return peak, 8 * size * (2 + len(ts.channels))


def test_compare_waveforms_peak_is_one_block_of_scratch():
    # The metrics are folded a block at a time through one block-sized
    # scratch array, not a temporary per metric, so a 200 001-sample grid
    # costs one block's scratch plus the per-block sums.
    n = TestPeakMemory.N
    a = np.cos(np.linspace(0.0, 40.0, n))
    b = a + 1e-3 * np.sin(np.linspace(0.0, 7.0, n))
    compare_waveforms(a[:10], b[:10])
    tracemalloc.start()
    try:
        compare_waveforms(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * _BLOCK


class TestRipplePrediction:
    def test_requires_rotation(self, nominal):
        p = make_machine(nominal)
        with pytest.raises(ConfigError):
            predict_current_ripple(p, 0.0, 0.0, 5.0)

    def test_balanced_machine_has_no_ripple(self, nominal):
        p = make_machine(nominal)
        rip_d, rip_q = predict_current_ripple(p, 400.0, -1.0, 5.0)
        assert abs(rip_d) < 1e-15
        assert abs(rip_q) < 1e-15

    def test_prediction_matches_simulated_ripple(self, nominal):
        d_r = (0.05 * nominal["r"], 0.0, 0.0)
        p = make_machine(nominal, d_r=d_r)
        omega = 400.0
        i_cmd = (0.0, 8.0)
        v_cmd = balanced_voltage_command(p, omega, *i_cmd)
        _, exact = steady_state_currents(p, v_cmd, omega)
        predicted = predict_current_ripple(p, omega, *i_cmd)
        for got, want in zip(exact, predicted):
            assert abs(got - want) < 0.05 * abs(want)

    @pytest.mark.parametrize("family", sorted(FAMILY_DEVIATIONS))
    def test_matches_demodulated_closed_form(self, nominal, family):
        p = make_machine(nominal, **FAMILY_DEVIATIONS[family])
        want = demodulated_ripple(p, 400.0, -2.0, 8.0)
        got = np.array(predict_current_ripple(p, 400.0, -2.0, 8.0))
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


class TestVoltageFedRippleScript:
    def test_error_grows_with_deviation(self, tmp_path, capsys):
        out = tmp_path / "ripple.csv"
        script = runpy.run_path(str(SCRIPTS / "voltage_fed_ripple.py"))
        assert script["main"](["--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header.split(",")[-1] == "relative_error"
        assert len(rows) == 8
        cells = [row.split(",") for row in rows]
        for axis in ("i_d", "i_q"):
            sweep = sorted((float(c[0]), float(c[-1])) for c in cells
                           if c[1] == axis)
            errors = [err for _, err in sweep]
            assert len(errors) == 4
            assert all(a < b for a, b in zip(errors, errors[1:]))
            # The README's figures, in percent: half the deviation fraction.
            assert round(100.0 * errors[0], 4) == 0.5005
            assert round(100.0 * errors[-1], 4) == 5.0048
        assert "wrote" in capsys.readouterr().out


class TestSteadyStateCurrents:
    @pytest.mark.parametrize("omega", [400.0, 1000.0])
    @pytest.mark.parametrize("family", ["resistance", "flux", "inductance"])
    def test_matches_rk4_oracle(self, nominal, family, omega):
        p = make_machine(nominal, **FAMILY_DEVIATIONS[family])
        v_cmd = balanced_voltage_command(p, omega, -2.0, 8.0)
        dc, ripple = steady_state_currents(p, v_cmd, omega)
        dt, steps = 1e-5, 8000
        i_a, i_b, _ = oracles.voltage_fed_rk4(*phase_values(p), v_cmd,
                                              omega, dt, steps)
        t = np.arange(steps + 1) * dt
        theta = omega * t
        settled = t >= 0.05
        currents = park_forward((i_a, i_b, -i_a - i_b), theta)[:2]
        for got_dc, got_ripple, current in zip(dc, ripple, currents):
            want = demodulate(current[settled], theta[settled])
            assert abs(got_dc - want.dc) < 1e-9
            want_ripple = as_complex(want.second)
            assert abs(got_ripple - want_ripple) < 1e-7 * abs(want_ripple)

    def test_balanced_machine_settles_to_target(self, nominal):
        p = make_machine(nominal)
        omega, i_cmd = 400.0, (-2.0, 10.0)
        dc, ripple = steady_state_currents(
            p, balanced_voltage_command(p, omega, *i_cmd), omega)
        # The phasor solve rounds at about 2 ulp of the phase current
        # amplitude, so the residual ripple is bounded per ampere.
        assert all(abs(rip) < 1e-15 * np.hypot(*i_cmd) for rip in ripple)
        for got, want in zip(dc, i_cmd):
            assert got == pytest.approx(want, rel=1e-12)

    def test_requires_rotation(self, nominal):
        with pytest.raises(ConfigError, match="nonzero speed"):
            steady_state_currents(make_machine(nominal), (0.5, 1.0), 0.0)

    @pytest.mark.parametrize("name, drive", [
        ("v_dq_cmd", dict(v_dq_cmd=(np.nan, 1.0))),
        ("v_dq_cmd", dict(v_dq_cmd=(0.0, np.inf))),
        ("omega_e", dict(omega_e=np.nan)),
        ("omega_e", dict(omega_e=-np.inf)),
    ])
    def test_rejects_non_finite_drive(self, nominal, name, drive):
        args = dict(v_dq_cmd=(0.0, 1.0), omega_e=100.0) | drive
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            steady_state_currents(make_machine(nominal), **args)

    def test_numerically_singular_windings_are_input_error(self, nominal):
        # r_c = 1e300 beside r_a = 0.105 makes R_red + j omega_e L_red
        # singular in floating point, though it is not in exact arithmetic.
        p = make_machine(nominal, d_r=(0.005, 0.0, 1e300))
        message = ("^the voltage-fed winding equations cannot be solved: "
                   "Singular matrix$")
        with pytest.raises(InputError, match=message):
            steady_state_currents(p, (0.46, 16.132), 300.0)
        with pytest.raises(InputError, match=message):
            run_voltage_fed(p, (0.46, 16.132), 300.0,
                            SimConfig(dt=2e-6, duration=1e-4))


class TestBalancedVoltageCommand:
    def test_reference_values(self, nominal):
        p = make_machine(nominal)
        v_d, v_q = balanced_voltage_command(p, 200.0, -2.0, 10.0)
        l_sync = nominal["l"] + nominal["m"]
        assert v_d == pytest.approx(
            nominal["r"] * -2.0 + l_sync * 200.0 * 10.0, rel=1e-14)
        assert v_q == pytest.approx(
            nominal["r"] * 10.0 - l_sync * 200.0 * -2.0
            + 200.0 * nominal["lam"], rel=1e-14)
