"""Cyclic phase relabelling a -> b -> c -> a as a metamorphic test.

Moving every per-phase value one phase on (and every mutual pair ab -> bc
-> ca) is the same machine seen from an angle 2*pi/3 further on. In the
rotor frame that leaves every sum and DC term as it is and advances every
2theta phasor by 2*pi/3, whichever path computes it: the closed form, the
demodulated phase-frame simulation, the exact voltage-fed steady state or
the fits.
"""

import math

import numpy as np
import pytest

from pmimb import (
    MachineParameters,
    OperatingPoint,
    SimConfig,
    closed_form_dq,
    decompose,
    demodulate,
    fit_flux,
    fit_resistance,
    flux_coeffs,
    ideal_dq_nonsalient,
    inductance_coeffs,
    resistance_coeffs,
    run_current_fed,
    steady_state_currents,
)

TURN = 2.0 * math.pi / 3.0
ROTATION = complex(math.cos(TURN), math.sin(TURN))
GRID = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
# Current-fed runs spanning one period at 300 rad/s.
OMEGA, DRIVE, CFG = 300.0, (-1.0, 8.0), SimConfig(dt=1e-5, duration=0.025)


def shift(triple):
    """(x_a, x_b, x_c) -> (x_c, x_a, x_b): phase a's value moves to b."""
    return triple[2], triple[0], triple[1]


def machine(d_r=(0.005, 0.0, 0.002), d_l=(8e-6, 2e-6, 0.0),
            d_m=(0.0, 6e-7, 1e-7), d_lam=(0.0015, 0.0, 0.0005)):
    return MachineParameters.from_nominal(0.1, 2e-4, 2e-5, 0.05, 3, d_r=d_r,
                                          d_l=d_l, d_m=d_m, d_lam=d_lam)


def relabel(p):
    # The pair triple (ab, bc, ca) moves the same way: ab's value to bc.
    return MachineParameters(
        *shift((p.r_a, p.r_b, p.r_c)), *shift((p.l_a, p.l_b, p.l_c)),
        *shift((p.m_ab, p.m_bc, p.m_ca)),
        *shift((p.lam_a, p.lam_b, p.lam_c)), p.pole_pairs)


def as_complex(phasor):
    return phasor.k * complex(math.cos(phasor.phi), math.sin(phasor.phi))


def assert_rotated(before, after, rel=1e-12):
    """``after`` is ``before`` advanced by 2*pi/3, both complex."""
    assert abs(before) > 0.0
    assert abs(after - before * ROTATION) <= rel * abs(before)


def test_coefficients_rotate_and_sums_stay():
    p = machine()
    before, after = decompose(p), decompose(relabel(p))
    for name in ("nominal_r", "nominal_l", "nominal_m", "nominal_lam"):
        assert getattr(after, name) == getattr(before, name)
    for name in ("d_r", "d_l", "d_m", "d_lam"):
        assert sum(getattr(after, name)) == sum(getattr(before, name))
    pairs = [(resistance_coeffs(before.d_r), resistance_coeffs(after.d_r)),
             (flux_coeffs(before.d_lam), flux_coeffs(after.d_lam)),
             *zip(inductance_coeffs(before.d_l, before.d_m),
                  inductance_coeffs(after.d_l, after.d_m))]
    for old, new in pairs:
        assert_rotated(as_complex(old), as_complex(new))


def demodulated(waveforms, theta):
    return [demodulate(np.broadcast_to(w, theta.shape), theta)
            for w in waveforms]


def assert_dc_and_rotation(before, after, rel=1e-12):
    for old, new in zip(before, after, strict=True):
        scale = abs(old.dc) + old.second.k
        assert new.dc == pytest.approx(old.dc, rel=rel, abs=rel * scale)
        assert_rotated(as_complex(old.second), as_complex(new.second), rel)


def test_closed_form_dq():
    p = machine()
    op = OperatingPoint(theta=GRID, omega_e=OMEGA, i_d=-1.0, i_q=8.0,
                        di_d=3.0, di_q=-2.0)
    assert_dc_and_rotation(demodulated(closed_form_dq(p, op), GRID),
                           demodulated(closed_form_dq(relabel(p), op), GRID))


def test_demodulated_current_fed_simulation():
    p = machine()
    names = ("v_d", "v_q", "t_e")
    runs = [run_current_fed(q, DRIVE, OMEGA, CFG, channels=names)
            for q in (p, relabel(p))]
    before, after = ([ts.channels[name] for name in names] for ts in runs)
    assert_dc_and_rotation(demodulated(before, runs[0].theta),
                           demodulated(after, runs[1].theta), rel=1e-9)


def test_steady_state_currents():
    p = machine()
    (dc, ripple), (dc_new, ripple_new) = (
        steady_state_currents(q, (0.46, 16.132), OMEGA)
        for q in (p, relabel(p)))
    assert dc_new == pytest.approx(dc, rel=1e-14)
    for old, new in zip(ripple, ripple_new, strict=True):
        assert_rotated(old, new)


def fitted_triple(family, p):
    """Deviations a fit recovers from ``p``'s simulated dq voltages."""
    ts = run_current_fed(p, DRIVE, OMEGA, CFG, channels=("v_d", "v_q"))
    op = OperatingPoint(theta=ts.theta, omega_e=OMEGA, i_d=DRIVE[0],
                        i_q=DRIVE[1])
    ideal = ideal_dq_nonsalient(p, op)
    dv = (ts.channels["v_d"] - ideal[0], ts.channels["v_q"] - ideal[1])
    if family == "resistance":
        return fit_resistance(*dv, *DRIVE, ts.theta).per_phase
    return fit_flux(*dv, OMEGA, ts.theta).per_phase


@pytest.mark.parametrize("family, deviations", [
    ("resistance", dict(d_r=(0.005, 0.0, 0.002))),
    ("flux", dict(d_lam=(0.0015, 0.0, 0.0005))),
])
def test_fits_return_the_relabelled_triple(family, deviations):
    zero = (0.0, 0.0, 0.0)
    p = machine(**{**dict.fromkeys(("d_r", "d_l", "d_m", "d_lam"), zero),
                   **deviations})
    before, after = fitted_triple(family, p), fitted_triple(family, relabel(p))
    # The zero entry comes back as fit noise near 1e-15 of the triple.
    scale = max(abs(v) for v in before)
    assert after == pytest.approx(shift(before), abs=1e-11 * scale)
