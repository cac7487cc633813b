"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; without
``-s`` they still appear for any failing criterion.
"""

import math
import time

import numpy as np
import pytest

import conftest
import oracles
from pmimb import (
    MachineParameters,
    OperatingPoint,
    balanced_voltage_command,
    compose_total,
    demodulate,
    fit_flux,
    fit_resistance,
    flux_coeffs,
    flux_delta,
    ideal_dq_nonsalient,
    inductance_coeffs,
    inductance_delta,
    park_forward,
    park_inverse,
    phase_voltages,
    predict_current_ripple,
    resistance_coeffs,
    resistance_delta,
    run_voltage_fed,
    torque_abc,
    transient_window,
    SimConfig,
)
from pmimb.cli import main as cli_main

NOMINAL = dict(r=0.1, l=2e-4, m=2e-5, lam=0.05)
RATED_CURRENT = 10.0
POLE_PAIRS = 3


def machine(**families):
    return MachineParameters.from_nominal(
        NOMINAL["r"], NOMINAL["l"], NOMINAL["m"], NOMINAL["lam"],
        POLE_PAIRS, **families)


def report(number, name, checks, elapsed, detail=""):
    ok = all(passed for passed, _ in checks)
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[ACCEPTANCE {number}] {status} {name} "
          f"({elapsed:.2f} s){suffix}")
    for passed, text in checks:
        assert passed, f"criterion {number} ({name}): {text}"


def test_criterion_1_transform_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    theta = np.linspace(-np.pi, np.pi, 360)

    worst_identity = 0.0
    for basis in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]:
        abc = park_inverse(basis, theta)
        got = np.array(park_forward(abc, theta))
        want = np.array(basis)[:, None] * np.ones_like(theta)
        worst_identity = max(worst_identity, float(np.max(np.abs(got - want))))

    worst_power = 0.0
    for _ in range(500):
        v = rng.uniform(-50.0, 50.0, size=3)
        i = rng.uniform(-RATED_CURRENT, RATED_CURRENT, size=3)
        th = rng.uniform(-10.0, 10.0)
        v_d, v_q, v_0 = park_forward(v, th)
        i_d, i_q, i_0 = park_forward(i, th)
        lhs = float(np.dot(v, i))
        rhs = 1.5 * (v_d * i_d + v_q * i_q) + 3.0 * v_0 * i_0
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst_power = max(worst_power, abs(lhs - rhs) / scale)

    elapsed = time.perf_counter() - start
    report(1, "transform soundness", [
        (worst_identity < 1e-12,
         f"forward-inverse identity error {worst_identity:.3e} >= 1e-12"),
        (worst_power < 1e-10,
         f"power balance relative error {worst_power:.3e} >= 1e-10"),
        (elapsed < 1.0, f"runtime {elapsed:.2f} s >= 1 s"),
    ], elapsed, f"identity {worst_identity:.2e}, power {worst_power:.2e}")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    families = ("resistance", "flux", "inductance", "combined")
    worst = {name: 0.0 for name in families}

    for name in families:
        for _ in range(200):
            draw = dict(d_r=(0.0,) * 3, d_l=(0.0,) * 3,
                        d_m=(0.0,) * 3, d_lam=(0.0,) * 3)
            if name in ("resistance", "combined"):
                draw["d_r"] = tuple(rng.uniform(0, 0.2 * NOMINAL["r"], 3))
            if name in ("flux", "combined"):
                draw["d_lam"] = tuple(rng.uniform(0, 0.2 * NOMINAL["lam"], 3))
            if name in ("inductance", "combined"):
                draw["d_l"] = tuple(rng.uniform(0, 0.2 * NOMINAL["l"], 3))
                draw["d_m"] = tuple(rng.uniform(0, 0.2 * NOMINAL["m"], 3))
            params = machine(**draw)
            omega = rng.uniform(0.0, 1000.0)
            i_d = rng.uniform(-RATED_CURRENT, RATED_CURRENT)
            i_q = rng.uniform(-RATED_CURRENT, RATED_CURRENT)

            op = OperatingPoint(theta=theta, omega_e=omega, i_d=i_d, i_q=i_q)
            ideal = ideal_dq_nonsalient(machine(), op)
            v_d, v_q = compose_total(
                ideal,
                resistance_delta(draw["d_r"], op),
                flux_delta(draw["d_lam"], omega, theta),
                inductance_delta(draw["d_l"], draw["d_m"], op))
            v_d = np.broadcast_to(v_d, theta.shape)
            v_q = np.broadcast_to(v_q, theta.shape)

            i_abc = park_inverse((i_d, i_q, 0.0), theta)
            di_abc = park_inverse((omega * i_q, -omega * i_d, 0.0), theta)
            v_abc = phase_voltages(params, np.stack(i_abc), np.stack(di_abc),
                                   theta, omega)
            ref_d, ref_q, _ = park_forward(v_abc, theta)

            err = np.concatenate([v_d - ref_d, v_q - ref_q])
            ref_rms = math.sqrt(float(np.mean(
                np.concatenate([ref_d, ref_q]) ** 2)))
            err_rms = math.sqrt(float(np.mean(err ** 2)))
            worst[name] = max(worst[name], err_rms / ref_rms)

    elapsed = time.perf_counter() - start
    overall = max(worst.values())
    report(2, "closed forms vs phase-frame reference", [
        *((worst[name] < 1e-9,
           f"{name}: relative RMS {worst[name]:.3e} >= 1e-9")
          for name in families),
        (elapsed < 10.0, f"runtime {elapsed:.2f} s >= 10 s"),
    ], elapsed, f"worst relative RMS {overall:.2e} over 200 cases x 4 families")


def test_criterion_3_coefficient_closed_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    base = ([NOMINAL["r"]] * 3, [NOMINAL["l"]] * 3, [NOMINAL["m"]] * 3,
            [NOMINAL["lam"]] * 3)

    def brute_delta(i_dq0, omega, **dev):
        r = [NOMINAL["r"] + d for d in dev.get("d_r", (0, 0, 0))]
        l = [NOMINAL["l"] + d for d in dev.get("d_l", (0, 0, 0))]
        m = [NOMINAL["m"] + d for d in dev.get("d_m", (0, 0, 0))]
        lam = [NOMINAL["lam"] + d for d in dev.get("d_lam", (0, 0, 0))]
        zeros = [0.0, 0.0, 0.0]
        with_dev = oracles.dq_voltage_sweep(r, l, m, lam, theta, omega,
                                            i_dq0, zeros)
        clean = oracles.dq_voltage_sweep(*base, theta, omega, i_dq0, zeros)
        return with_dev - clean

    def phasor_error(signal, expected_k, expected_phi):
        out = demodulate(signal, theta)
        got = out.second.k * np.exp(1j * out.second.phi)
        want = expected_k * np.exp(1j * expected_phi)
        scale = max(expected_k, 1e-18)
        return abs(got - want) / scale

    worst = dict(resistance=0.0, flux=0.0, self=0.0, mutual=0.0)
    for _ in range(100):
        d_r = tuple(rng.uniform(1e-4, 0.2 * NOMINAL["r"], 3))
        ph = resistance_coeffs(d_r)
        # d-axis delta at unit i_d: s/3 + k cos(2 theta + phi)
        sig = brute_delta([1.0, 0.0, 0.0], 0.0, d_r=d_r)[0]
        worst["resistance"] = max(worst["resistance"],
                                  phasor_error(sig, ph.k, ph.phi))

        d_lam = tuple(rng.uniform(1e-5, 0.2 * NOMINAL["lam"], 3))
        ph = flux_coeffs(d_lam)
        # d-axis delta at unit speed: k sin(2 theta + phi), a quarter lag
        sig = brute_delta([0.0, 0.0, 0.0], 1.0, d_lam=d_lam)[0]
        worst["flux"] = max(worst["flux"],
                            phasor_error(sig, ph.k, ph.phi - math.pi / 2))

        d_l = tuple(rng.uniform(1e-6, 0.2 * NOMINAL["l"], 3))
        ph_l, _ = inductance_coeffs(d_l, (0.0, 0.0, 0.0))
        # unit flux derivative g_d via omega = 1, i_q = 1
        sig = brute_delta([0.0, 1.0, 0.0], 1.0, d_l=d_l)[0]
        worst["self"] = max(worst["self"],
                            phasor_error(sig, ph_l.k, ph_l.phi))

        d_m = tuple(rng.uniform(1e-7, 0.2 * NOMINAL["m"], 3))
        _, ph_m = inductance_coeffs((0.0, 0.0, 0.0), d_m)
        # mutual enters n_dd negated: phase shifts by pi
        sig = brute_delta([0.0, 1.0, 0.0], 1.0, d_m=d_m)[0]
        worst["mutual"] = max(
            worst["mutual"],
            phasor_error(sig, ph_m.k,
                         math.remainder(ph_m.phi + math.pi, 2 * math.pi)))

    elapsed = time.perf_counter() - start
    overall = max(worst.values())
    report(3, "coefficient closed forms vs demodulated reference", [
        *((worst[key] < 1e-9,
           f"{key} phasor relative error {worst[key]:.3e} >= 1e-9")
          for key in worst),
        (elapsed < 5.0, f"runtime {elapsed:.2f} s >= 5 s"),
    ], elapsed, f"worst phasor error {overall:.2e} on 100 triples per family")


def test_criterion_4_voltage_fed_simulation():
    start = time.perf_counter()
    omega = 200.0
    i_cmd = (-2.0, 10.0)
    cfg = SimConfig(dt=1e-6, duration=0.2)

    balanced = machine()
    v_cmd = balanced_voltage_command(balanced, omega, *i_cmd)
    ts = run_voltage_fed(balanced, v_cmd, omega, cfg)
    mask = ts.t >= transient_window(balanced, omega)
    cmd_scale = math.hypot(*i_cmd)
    dev_d = float(np.max(np.abs(ts.channels["i_d"][mask] - i_cmd[0])))
    dev_q = float(np.max(np.abs(ts.channels["i_q"][mask] - i_cmd[1])))
    steady_dev = max(dev_d, dev_q) / cmd_scale

    imbalanced = machine(d_r=(0.05 * NOMINAL["r"], 0.0, 0.0))
    v_cmd2 = balanced_voltage_command(imbalanced, omega, *i_cmd)
    ts2 = run_voltage_fed(imbalanced, v_cmd2, omega, cfg)
    mask2 = ts2.t >= transient_window(imbalanced, omega)
    rip_d, rip_q = predict_current_ripple(imbalanced, omega, *i_cmd)
    ripple_err = 0.0
    for name, predicted in (("i_d", rip_d), ("i_q", rip_q)):
        measured = demodulate(ts2.channels[name][mask2], ts2.theta[mask2])
        got = measured.second.k * np.exp(1j * measured.second.phi)
        ripple_err = max(ripple_err, abs(got - predicted) / abs(predicted))
    zero_seq = float(np.max(np.abs(ts2.channels["i_0"])))

    elapsed = time.perf_counter() - start
    report(4, "voltage-fed reference simulation", [
        (steady_dev < 1e-3,
         f"steady-state deviation {steady_dev:.3e} >= 0.1%"),
        (ripple_err < 0.05,
         f"ripple magnitude error {ripple_err:.3%} >= 5%"),
        (zero_seq < 1e-12,
         f"zero-sequence current {zero_seq:.3e} >= 1e-12"),
        (elapsed < 30.0, f"runtime {elapsed:.2f} s >= 30 s"),
    ], elapsed,
        f"steady {steady_dev:.2e}, ripple {ripple_err:.2%}, "
        f"dt 1e-6 over 0.2 s")


def test_criterion_5_torque():
    start = time.perf_counter()
    rng = np.random.default_rng(505)

    balanced = machine()
    i_q = 4.0
    want = 1.5 * POLE_PAIRS * NOMINAL["lam"] * i_q
    worst_balanced = 0.0
    for th in np.linspace(0.0, 2.0 * np.pi, 181):
        i_abc = oracles.t_inverse(th) @ np.array([0.0, i_q, 0.0])
        got = torque_abc(balanced, i_abc, th)
        worst_balanced = max(worst_balanced, abs(got - want))

    imbalanced = machine(d_l=(1e-5, 0.0, 5e-6), d_m=(0.0, 2e-6, 0.0),
                         d_lam=(0.002, 0.0, 0.001))
    lam_abc = np.array(imbalanced.pm_flux())
    l_abc = [imbalanced.l_a, imbalanced.l_b, imbalanced.l_c]
    m_pairs = [imbalanced.m_ab, imbalanced.m_bc, imbalanced.m_ca]
    worst_coenergy = 0.0
    for _ in range(20):
        i_abc = rng.uniform(-RATED_CURRENT, RATED_CURRENT, size=3)
        th = rng.uniform(-5.0, 5.0)
        got = torque_abc(imbalanced, i_abc, th)
        ref = oracles.coenergy_torque(l_abc, m_pairs, lam_abc, i_abc, th,
                                      POLE_PAIRS)
        worst_coenergy = max(worst_coenergy,
                             abs(got - ref) / max(abs(ref), 1e-12))

    elapsed = time.perf_counter() - start
    report(5, "torque closed form", [
        (worst_balanced < 1e-12 * max(1.0, abs(want)),
         f"balanced torque error {worst_balanced:.3e} >= 1e-12"),
        (worst_coenergy < 1e-6,
         f"co-energy relative error {worst_coenergy:.3e} >= 1e-6"),
        (elapsed < 1.0, f"runtime {elapsed:.2f} s >= 1 s"),
    ], elapsed,
        f"balanced {worst_balanced:.2e}, co-energy {worst_coenergy:.2e}")


def test_criterion_6_identification_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)

    worst_clean = 0.0
    for _ in range(25):
        d_r = tuple(rng.uniform(0.0, 0.2 * NOMINAL["r"], 3))
        i_d, i_q = rng.uniform(1.0, RATED_CURRENT, size=2)
        op = OperatingPoint(theta=theta, omega_e=0.0, i_d=i_d, i_q=i_q)
        delta = resistance_delta(d_r, op)
        ones = np.ones_like(theta)
        out = fit_resistance(delta[0] * ones, delta[1] * ones,
                             i_d, i_q, theta)
        worst_clean = max(worst_clean, float(np.max(
            np.abs(np.array(out.per_phase) - np.array(d_r)))))

        d_lam = tuple(rng.uniform(0.0, 0.2 * NOMINAL["lam"], 3))
        omega = rng.uniform(50.0, 1000.0)
        delta = flux_delta(d_lam, omega, theta)
        out = fit_flux(delta[0] * ones, delta[1] * ones, omega, theta)
        worst_clean = max(worst_clean, float(np.max(
            np.abs(np.array(out.per_phase) - np.array(d_lam)))))

    # 1% noise Monte Carlo against the propagated least-squares spread
    d_r = (0.02, 0.005, 0.0)
    i_d, i_q = 2.0, 6.0
    op = OperatingPoint(theta=theta, omega_e=0.0, i_d=i_d, i_q=i_q)
    delta = resistance_delta(d_r, op)
    ones = np.ones_like(theta)
    dv_d, dv_q = delta[0] * ones, delta[1] * ones
    sigma = 0.01 * math.sqrt(float(np.mean(
        np.concatenate([dv_d, dv_q]) ** 2)))
    cos2, sin2 = np.cos(2 * theta), np.sin(2 * theta)
    design = np.vstack([
        np.column_stack([np.full_like(theta, i_d / 3.0),
                         i_d * cos2 + i_q * sin2,
                         -i_d * sin2 + i_q * cos2]),
        np.column_stack([np.full_like(theta, i_q / 3.0),
                         i_d * sin2 - i_q * cos2,
                         i_d * cos2 + i_q * sin2]),
    ])
    coeff_to_phase = np.array([
        [1.0 / 3.0, 2.0, 0.0],
        [1.0 / 3.0, -1.0, math.sqrt(3.0)],
        [1.0 / 3.0, -1.0, -math.sqrt(3.0)],
    ])
    cov = sigma ** 2 * np.linalg.inv(design.T @ design)
    bound = 5.0 * np.sqrt(np.diag(coeff_to_phase @ cov @ coeff_to_phase.T))
    noisy_ok = True
    worst_noisy = 0.0
    for _ in range(100):
        out = fit_resistance(dv_d + rng.normal(0, sigma, theta.size),
                             dv_q + rng.normal(0, sigma, theta.size),
                             i_d, i_q, theta)
        err = np.abs(np.array(out.per_phase) - np.array(d_r))
        worst_noisy = max(worst_noisy, float(np.max(err / bound)))
        noisy_ok = noisy_ok and bool(np.all(err < bound))

    elapsed = time.perf_counter() - start
    report(6, "identification roundtrip", [
        (worst_clean < 1e-6,
         f"noise-free recovery error {worst_clean:.3e} >= 1e-6"),
        (noisy_ok,
         f"noisy recovery exceeded 5-sigma bound "
         f"(worst {worst_noisy:.2f} of bound)"),
        (elapsed < 5.0, f"runtime {elapsed:.2f} s >= 5 s"),
    ], elapsed,
        f"clean {worst_clean:.2e}, noisy worst {worst_noisy:.2f} of "
        f"5-sigma bound over 100 trials")


def test_criterion_7_cli_determinism(tmp_path, capsys):
    start = time.perf_counter()
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("""\
[machine]
pole_pairs = 3
r = 0.1
l = 2e-4
m = 2e-5
lam = 0.05

[imbalance]
family = resistance
d_r = 5%, 0, 2%

[operating_point]
omega_e = 300
i_d = -2
i_q = 10

[sim]
dt = 1e-5
duration = 0.03
""")
    identical = True
    for job, artifacts in (("compare", ("timeseries.csv", "summary.txt")),
                           ("identify", ("summary.txt",))):
        outputs = []
        for run in ("one", "two"):
            out = tmp_path / f"{job}-{run}"
            rc = cli_main([job, "--scenario", str(scenario),
                           "--out", str(out)])
            assert rc == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in artifacts})
        identical = identical and outputs[0] == outputs[1]
    capsys.readouterr()

    elapsed = time.perf_counter() - start
    suite_elapsed = time.perf_counter() - conftest.SUITE_START
    with capsys.disabled():
        report(7, "CLI determinism", [
            (identical, "compare/identify artifacts differ between runs"),
            (suite_elapsed < 60.0,
             f"suite runtime {suite_elapsed:.1f} s >= 60 s"),
        ], elapsed, f"suite total {suite_elapsed:.1f} s")
