"""Closed-form rotor-frame voltage signatures of per-phase imbalance.

A deviation triple (one value per phase, or per phase pair for mutual
inductances) maps to a DC shift plus a second-harmonic (2theta) component
in the dq frame. Each family contributes additively on top of the balanced
model:

    v_d = v_d_ideal + dv_d(resistance) + dv_d(flux) + dv_d(inductance)

and likewise for the q axis. Every family's deviation matrix Delta, seen
in the rotor frame as T(theta) Delta T(theta)^-1, is a DC term plus a
2theta phasor (k, phi) obtained from the deviation triple alone, plus a
1theta coupling to zero-sequence quantities. ``_couple`` states that fact
once; each family applies it to its own drive vector, and
``closed_form_dq`` composes the balanced model with the three families,
taking cos and sin of 2theta once for all three (``_double_angle``).

Conventions. For a triple (d_a, d_b, d_c),

    k   = |C| / 3,   C = d_a - (d_b + d_c)/2 + j*(sqrt(3)/2)*(d_b - d_c)
    phi = arg(C)

so the d-axis resistance contribution reads k*cos(2*theta + phi)*i_d + ...
A common offset on the triple leaves (k, phi) unchanged; a cyclic phase
relabeling a->b->c->a advances phi by 2*pi/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .machine import (MachineParameters, OperatingPoint, decompose,
                      ideal_dq_nonsalient)

# Deviations smaller than this fraction of the triple's scale count as
# balanced and get the deterministic phase phi = 0.
_DEGENERATE_REL = 1e-15


@dataclass(frozen=True)
class SecondHarmonicPhasor:
    """Magnitude and phase of a 2theta component."""

    k: float
    phi: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k >= 0.0):
            raise ValueError("k must be finite and nonnegative")
        if self.phi == -math.pi:
            # atan2 may return either branch-cut endpoint; pin one.
            object.__setattr__(self, "phi", math.pi)
        if not (-math.pi < self.phi <= math.pi):
            raise ValueError("phi must lie in (-pi, pi]")


def _spread(triple):
    """Complex spread C of a deviation triple, so k = |C|/3 and phi = arg C."""
    d_a, d_b, d_c = (float(v) for v in triple)
    return complex(d_a - 0.5 * (d_b + d_c), 0.5 * math.sqrt(3.0) * (d_b - d_c))


def _spread_phasor(triple):
    """(k, phi) of a deviation triple; phi = 0 when the spread vanishes."""
    c = _spread(triple)
    k = math.hypot(c.real, c.imag) / 3.0
    scale = max(abs(float(v)) for v in triple)
    if k <= _DEGENERATE_REL * scale:
        return k, 0.0
    return k, math.atan2(c.imag, c.real)


def _double_angle(theta):
    """The angle with cos and sin of twice it, as ``_couple`` takes them."""
    return theta, np.cos(2.0 * theta), np.sin(2.0 * theta)


def _couple(angle, s, c_2theta, c_0, drive):
    """Apply T(theta) Delta T(theta)^-1 to a drive vector (x_d, x_q, x_0).

    ``angle`` is ``_double_angle(theta)``, built once per sample grid.
    Delta is a family's deviation matrix, given by its deviation sum ``s``
    and the complex spreads ``c_2theta`` and ``c_0`` (see ``_spread``).
    With E = (c_2theta/3) e^{j2theta} and F = (2/3) conj(c_0) e^{jtheta}
    the returned pair (dv_d, dv_q) takes the rows (s/3 + Re E, Im E, Re F)
    and (Im E, s/3 - Re E, Im F). The 1theta column only acts on a
    zero-sequence drive, so it is skipped when x_0 is zero.
    """
    theta, cos2, sin2 = angle
    x_d, x_q, x_0 = drive
    re_e = (c_2theta.real * cos2 - c_2theta.imag * sin2) / 3.0
    im_e = (c_2theta.real * sin2 + c_2theta.imag * cos2) / 3.0
    dv_d = (s / 3.0 + re_e) * x_d + im_e * x_q
    dv_q = im_e * x_d + (s / 3.0 - re_e) * x_q
    if np.any(x_0):
        cos1 = np.cos(theta)
        sin1 = np.sin(theta)
        dv_d = dv_d + (2.0 / 3.0) * (c_0.real * cos1 + c_0.imag * sin1) * x_0
        dv_q = dv_q + (2.0 / 3.0) * (c_0.real * sin1 - c_0.imag * cos1) * x_0
    return dv_d, dv_q


def resistance_coeffs(d_r) -> SecondHarmonicPhasor:
    """Second-harmonic phasor of a resistance deviation triple (Ohm)."""
    return SecondHarmonicPhasor(*_spread_phasor(d_r))


def flux_coeffs(d_lam) -> SecondHarmonicPhasor:
    """Second-harmonic phasor of a PM flux deviation triple (Wb)."""
    return SecondHarmonicPhasor(*_spread_phasor(d_lam))


def inductance_coeffs(d_l, d_m):
    """Second-harmonic phasors of self and mutual inductance deviations.

    ``d_l`` is per phase (a, b, c); ``d_m`` is per pair (ab, bc, ca). The
    mutual phasor uses the pair opposite each phase, so the triple is
    rotated to (bc, ca, ab) before the common algebra, and its magnitude
    carries a factor 2 because each mutual couples two phases.
    """
    k_l, phi_l = _spread_phasor(d_l)
    k_m, phi_m = _spread_phasor((d_m[1], d_m[2], d_m[0]))
    return (SecondHarmonicPhasor(k_l, phi_l),
            SecondHarmonicPhasor(2.0 * k_m, phi_m))


def _resistance_terms(d_r, op: OperatingPoint):
    c = _spread(d_r)
    return float(sum(d_r)), c, c, (op.i_d, op.i_q, op.i_0)


def _flux_terms(d_lam, omega_e):
    c = _spread(d_lam)
    return float(sum(d_lam)), c, c, (0.0, omega_e, 0.0)


def _inductance_terms(d_l, d_m, op: OperatingPoint):
    c_l = _spread(d_l)
    c_m = _spread((d_m[1], d_m[2], d_m[0]))
    drive = (op.di_d + op.omega_e * op.i_q, op.di_q - op.omega_e * op.i_d,
             op.di_0)
    return (float(sum(d_l)) + float(sum(d_m)), c_l - 2.0 * c_m, c_l + c_m,
            drive)


def resistance_delta(d_r, op: OperatingPoint):
    """Rotor-frame voltage contribution of resistance imbalance.

    Bilinear in the deviations and the currents (i_d, i_q, i_0): a DC term
    (sum/3) on each axis, 2theta terms through the phasor, and a 1theta
    coupling to the zero-sequence current.
    """
    return _couple(_double_angle(op.theta), *_resistance_terms(d_r, op))


def flux_delta(d_lam, omega_e, theta):
    """Rotor-frame voltage contribution of PM flux imbalance.

    Every term scales with the electrical speed: the imbalance rides on
    the back emf, whose drive is (0, omega_e, 0). A non-finite
    ``omega_e`` or ``theta`` raises ``ValueError``.
    """
    for name, value in (("omega_e", omega_e), ("theta", theta)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    return _couple(_double_angle(theta), *_flux_terms(d_lam, omega_e))


def inductance_delta(d_l, d_m, op: OperatingPoint):
    """Rotor-frame voltage contribution of inductance imbalance.

    Non-salient machine: the deviation inductances are position
    independent, so the contribution is bilinear in the deviations and
    the flux-derivative drive (di_d + omega_e i_q, di_q - omega_e i_d,
    di_0). Self and mutual deviations share the sum; their spreads enter
    as C_l - 2 C_m' at 2theta and C_l + C_m' at 1theta, with C_m' the
    spread of the pair triple rotated to (bc, ca, ab).
    """
    return _couple(_double_angle(op.theta),
                   *_inductance_terms(d_l, d_m, op))


def compose_total(ideal, d_res, d_flux, d_ind):
    """Total (v_d, v_q): balanced model plus three (dv_d, dv_q) deltas."""
    v_d = ideal[0] + d_res[0] + d_flux[0] + d_ind[0]
    v_q = ideal[1] + d_res[1] + d_flux[1] + d_ind[1]
    return v_d, v_q


def closed_form_dq(params: MachineParameters, op: OperatingPoint):
    """Closed-form rotor-frame (v_d, v_q) of an unbalanced machine.

    Splits the parameters into nominal values plus deviations, evaluates
    the balanced model at the nominal values and adds the resistance,
    flux and inductance deltas, bit for bit those of the public delta
    functions.
    """
    dec = decompose(params)
    ideal = ideal_dq_nonsalient(dec.nominal_r, dec.nominal_l + dec.nominal_m,
                                dec.nominal_lam, params.pole_pairs, op)
    angle = _double_angle(op.theta)
    return compose_total(ideal, *(
        _couple(angle, *terms) for terms in (
            _resistance_terms(dec.d_r, op),
            _flux_terms(dec.d_lam, op.omega_e),
            _inductance_terms(dec.d_l, dec.d_m, op))))
