"""Closed-form rotor-frame voltage signatures of per-phase imbalance.

The paper's one fact: every family's deviation matrix Delta, seen in the
rotor frame as T(theta) Delta T(theta)^-1, is a DC term plus a 2theta
phasor (k, phi) of its deviation triple, plus a 1theta coupling to
zero-sequence quantities. ``_couple`` states it once. ``_FAMILIES`` lists
each family's deviation triples and the drive vector Delta multiplies;
``_terms`` and ``_phasors`` read it for the deltas, the closed form, the
ripple prediction, the fits and the reported coefficients.
``closed_form_dq`` adds every family to the balanced model, taking cos
and sin of 2theta once for all of them (``_double_angle``).

Conventions. For a triple (d_a, d_b, d_c),

    k   = |C| / 3,   C = d_a - (d_b + d_c)/2 + j*(sqrt(3)/2)*(d_b - d_c)
    phi = arg(C)

so the d-axis resistance contribution reads k*cos(2*theta + phi)*i_d + ...
A common offset on the triple leaves (k, phi) unchanged; a cyclic phase
relabeling a->b->c->a advances phi by 2*pi/3. The fits map (sum, C/3)
back to the triple by ``_UNSPREAD``, the exact inverse beside ``_spread``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _require_finite
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


# The inverse of the triple's (sum, Re C/3, Im C/3): one row per phase.
_UNSPREAD = np.array([[1.0 / 3.0, 2.0, 0.0],
                      [1.0 / 3.0, -1.0, math.sqrt(3.0)],
                      [1.0 / 3.0, -1.0, -math.sqrt(3.0)]])


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


# Each family: the ImbalanceDecomposition fields of its deviation triples,
# the second one mutual, per pair (ab, bc, ca), and the drive (x_d, x_q,
# x_0) its deviation matrix multiplies, from operating-point values by name.
_FAMILIES = {
    "resistance": (("d_r",), lambda i_d, i_q, i_0, **_: (i_d, i_q, i_0)),
    "flux": (("d_lam",), lambda omega_e, **_: (0.0, omega_e, 0.0)),
    "inductance": (("d_l", "d_m"), lambda omega_e, i_d, i_q, di_d, di_q,
                   di_0, **_: (di_d + omega_e * i_q, di_q - omega_e * i_d,
                               di_0)),
}


def _terms(family, deviations, op=None):
    """``_couple``'s (s, c_2theta, c_0, drive) for one family; no drive
    without ``op``. ``deviations`` and ``op`` map names to values, as
    ``vars`` of an ``ImbalanceDecomposition`` and ``OperatingPoint`` do.
    The spread C_m of a mutual triple's opposite pairs (bc, ca, ab) enters
    as -2 C_m at 2theta and C_m at 1theta."""
    (own, *mutual), drive = _FAMILIES[family]
    s = float(sum(deviations[own]))
    c_2theta = c_0 = _spread(deviations[own])
    for d_m in (deviations[field] for field in mutual):
        s += float(sum(d_m))
        c_m = _spread((d_m[1], d_m[2], d_m[0]))
        c_2theta, c_0 = c_2theta - 2.0 * c_m, c_0 + c_m
    return s, c_2theta, c_0, None if op is None else drive(**op)


def _phasors(family, deviations):
    """Reported 2theta phasors by key suffix: "" for a one-triple family,
    "_l" and "_m" for inductance, the mutual one over the opposite pairs
    with k doubled, since each mutual couples two phases. phi = 0 where
    the spread vanishes against the triple."""
    own, *mutual = _FAMILIES[family][0]
    phasors = {}
    for field in (own, *mutual):
        d = deviations[field]
        triple = (d[1], d[2], d[0]) if field in mutual else d
        c = _spread(triple)
        k = math.hypot(c.real, c.imag) / 3.0
        phi = (0.0 if k <= _DEGENERATE_REL * max(abs(float(v)) for v in d)
               else math.atan2(c.imag, c.real))
        phasors[field[1:] if mutual else ""] = SecondHarmonicPhasor(
            2.0 * k if field in mutual else k, phi)
    return phasors


def resistance_coeffs(d_r) -> SecondHarmonicPhasor:
    """Second-harmonic phasor of a resistance deviation triple (Ohm)."""
    return _phasors("resistance", {"d_r": d_r})[""]


def flux_coeffs(d_lam) -> SecondHarmonicPhasor:
    """Second-harmonic phasor of a PM flux deviation triple (Wb)."""
    return _phasors("flux", {"d_lam": d_lam})[""]


def inductance_coeffs(d_l, d_m):
    """Second-harmonic phasors of self and mutual inductance deviations.

    ``d_l`` is per phase (a, b, c); ``d_m`` is per pair (ab, bc, ca). The
    mutual phasor is that of the pair opposite each phase, (bc, ca, ab),
    with its magnitude doubled because each mutual couples two phases.
    """
    return tuple(_phasors("inductance", {"d_l": d_l, "d_m": d_m}).values())


def resistance_delta(d_r, op: OperatingPoint):
    """Rotor-frame voltage contribution of resistance imbalance.

    Bilinear in the deviations and the currents (i_d, i_q, i_0): a DC term
    (sum/3) on each axis, 2theta terms through the phasor, and a 1theta
    coupling to the zero-sequence current.
    """
    return _couple(_double_angle(op.theta),
                   *_terms("resistance", {"d_r": d_r}, vars(op)))


def flux_delta(d_lam, omega_e, theta):
    """Rotor-frame voltage contribution of PM flux imbalance.

    Every term scales with the electrical speed: the imbalance rides on
    the back emf, whose drive is (0, omega_e, 0). A non-finite
    ``omega_e`` or ``theta`` raises ``ValueError``.
    """
    _require_finite(ValueError, omega_e=omega_e, theta=theta)
    return _couple(_double_angle(theta),
                   *_terms("flux", {"d_lam": d_lam}, {"omega_e": omega_e}))


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
                   *_terms("inductance", {"d_l": d_l, "d_m": d_m}, vars(op)))


def compose_total(ideal, *deltas):
    """Balanced (v_d, v_q) plus any (dv_d, dv_q) deltas, left to right."""
    return tuple(sum((delta[axis] for delta in deltas), ideal[axis])
                 for axis in (0, 1))


def closed_form_dq(params: MachineParameters, op: OperatingPoint):
    """Closed-form rotor-frame (v_d, v_q) of an unbalanced machine.

    Splits the parameters into nominal values plus deviations, evaluates
    the balanced model at the nominal values and adds the resistance,
    flux and inductance deltas, bit for bit those of the public delta
    functions.
    """
    ideal = ideal_dq_nonsalient(params, op)
    dec = vars(decompose(params))
    angle = _double_angle(op.theta)
    return compose_total(ideal, *(
        _couple(angle, *_terms(family, dec, vars(op)))
        for family in _FAMILIES))
