"""Three-phase permanent-magnet synchronous machine in phase coordinates.

The machine is star-connected with one resistance, one self-inductance,
one permanent-magnet flux linkage per phase and one mutual inductance per
phase pair, so unbalanced windings are representable directly.
``decompose`` splits them into nominal values plus deviations, and
``ideal_dq_nonsalient`` is the balanced rotor-frame model of the nominal
values, the base each closed form adds its deviation terms to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import _require_finite
from .transforms import _as_basis


# Per-phase MachineParameters fields of each parameter family, in order.
_PHASE_KEYS = {
    "r": ("r_a", "r_b", "r_c"),
    "l": ("l_a", "l_b", "l_c"),
    "m": ("m_ab", "m_bc", "m_ca"),
    "lam": ("lam_a", "lam_b", "lam_c"),
}


@dataclass(frozen=True)
class MachineParameters:
    """Per-phase machine parameters.

    Parameters
    ----------
    r_a, r_b, r_c : float
        Phase resistances (Ohm), positive.
    l_a, l_b, l_c : float
        Phase self-inductances (H), positive.
    m_ab, m_bc, m_ca : float
        Pairwise mutual inductances (H). They enter the inductance matrix
        with a negative sign, the usual convention for windings displaced
        by 2*pi/3.
    lam_a, lam_b, lam_c : float
        Permanent-magnet flux linkage amplitudes (Wb), nonnegative.
    pole_pairs : int
        Number of pole pairs, at least 1 and at most the largest float.

    Every value must be finite. The phases are displaced by ``BETA``,
    2*pi/3: the model is three-phase by construction.
    """

    r_a: float
    r_b: float
    r_c: float
    l_a: float
    l_b: float
    l_c: float
    m_ab: float
    m_bc: float
    m_ca: float
    lam_a: float
    lam_b: float
    lam_c: float
    pole_pairs: int

    def __post_init__(self):
        _require_finite(ValueError, **{
            key: getattr(self, key) for key in chain(*_PHASE_KEYS.values())})
        for name in ("r_a", "r_b", "r_c", "l_a", "l_b", "l_c"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("lam_a", "lam_b", "lam_c"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if not (isinstance(self.pole_pairs, int) and self.pole_pairs >= 1):
            raise ValueError("pole_pairs must be an integer >= 1")
        if self.pole_pairs > int(np.finfo(float).max):
            raise ValueError("pole_pairs must be at most the largest float")
        try:
            np.linalg.cholesky(self.inductance_matrix())
        except np.linalg.LinAlgError:
            raise ValueError(
                "inductance matrix is not positive definite "
                "(check l_a, l_b, l_c, m_ab, m_bc, m_ca)"
            ) from None

    @classmethod
    def from_nominal(cls, r, l, m, lam, pole_pairs,
                     d_r=(0.0, 0.0, 0.0), d_l=(0.0, 0.0, 0.0),
                     d_m=(0.0, 0.0, 0.0), d_lam=(0.0, 0.0, 0.0)):
        """Build parameters as nominal values plus per-phase deviations.

        Deviation triples follow phase order (a, b, c); the mutual triple
        follows pair order (ab, bc, ca).
        """
        return cls(*(nominal + d for nominal, triple in zip(
            (r, l, m, lam), (d_r, d_l, d_m, d_lam)) for d in triple),
            pole_pairs)

    def resistances(self):
        return np.array([self.r_a, self.r_b, self.r_c])

    def pm_flux(self):
        return np.array([self.lam_a, self.lam_b, self.lam_c])

    def inductance_matrix(self):
        """Phase-frame inductance matrix with negative mutual coupling."""
        return np.array([
            [self.l_a, -self.m_ab, -self.m_ca],
            [-self.m_ab, self.l_b, -self.m_bc],
            [-self.m_ca, -self.m_bc, self.l_c],
        ])


@dataclass(frozen=True)
class ImbalanceDecomposition:
    """Split of per-phase parameters into nominal values plus deviations.

    The nominal value of each family is the smallest phase value, so every
    deviation is nonnegative and at least one deviation per family is zero.
    """

    nominal_r: float
    nominal_l: float
    nominal_m: float
    nominal_lam: float
    d_r: tuple[float, float, float]
    d_l: tuple[float, float, float]
    d_m: tuple[float, float, float]
    d_lam: tuple[float, float, float]

    def __post_init__(self):
        for name in ("d_r", "d_l", "d_m", "d_lam"):
            dev = getattr(self, name)
            if min(dev) != 0.0 or any(v < 0.0 for v in dev):
                raise ValueError(f"{name} must be nonnegative with a zero minimum")


@dataclass(frozen=True)
class OperatingPoint:
    """Rotor-frame operating point.

    Holds the electrical angle and speed together with the dq0 currents and
    their time derivatives. Fields may be scalars or equally shaped arrays.
    """

    theta: float
    omega_e: float
    i_d: float
    i_q: float
    i_0: float = 0.0
    di_d: float = 0.0
    di_q: float = 0.0
    di_0: float = 0.0

    def __post_init__(self):
        _require_finite(ValueError, "OperatingPoint.", **vars(self))


def decompose(params: MachineParameters) -> ImbalanceDecomposition:
    """Split parameters into nominal values plus nonnegative deviations."""
    triples = [[getattr(params, key) for key in keys]
               for keys in _PHASE_KEYS.values()]
    nominal = [min(values) for values in triples]
    return ImbalanceDecomposition(*nominal, *(
        tuple(v - nom for v in values)
        for nom, values in zip(nominal, triples)))


def _phase_frame(theta, *vectors):
    """The phase-angle sines, then each per-phase array, on one layout.

    ``theta`` is the angle or its ``_phase_basis``, whose sines are reused.
    Phase is axis 0 and sample axes are right-aligned, so a (3,) vector
    broadcasts against any theta and a (3, n) one against (m, n) theta.
    """
    arrays = [_as_basis(theta).sin] + [np.asarray(v, dtype=float)
                                       for v in vectors]
    ndim = max(a.ndim for a in arrays)
    return [a.reshape((3,) + (1,) * (ndim - a.ndim) + a.shape[1:])
            for a in arrays]


def phase_voltages(params: MachineParameters, i_abc, di_abc, theta, omega_e):
    """Phase terminal voltages for given currents and current derivatives.

    Implements ``v = R i + L di/dt + e`` with the rotational back emf
    ``e_x = omega_e lam_x sin(theta_x)``. ``theta`` is the angle or its
    ``_phase_basis``.
    """
    sin_x, lam, r, i_abc, di_abc = _phase_frame(
        theta, params.pm_flux(), params.resistances(), i_abc, di_abc)
    # (R i + L di/dt) + e. tensordot returns a view, which numpy cannot sum
    # into in place, so it comes first and R i takes the sum instead.
    return (np.tensordot(params.inductance_matrix(), di_abc, 1)
            + r * i_abc + omega_e * lam * sin_x)


def torque_abc(params: MachineParameters, i_abc, theta):
    """Electromagnetic torque from phase currents.

    Each phase contributes ``lam_x i_x sin(theta_x)``; the pole-pair count
    converts the electrical-angle derivative to a mechanical torque.
    ``theta`` is the angle or its ``_phase_basis``.
    """
    sin_x, lam, i_abc = _phase_frame(theta, params.pm_flux(), i_abc)
    return params.pole_pairs * np.sum(lam * i_abc * sin_x, axis=0)


def ideal_dq_nonsalient(params: MachineParameters, op: OperatingPoint):
    """Balanced nonsalient rotor-frame model of the machine's nominal part.

    Parameters
    ----------
    params : MachineParameters
        Machine whose ``decompose`` nominal values give the model: phase
        resistance r, synchronous inductance l + m and magnet flux lam.
    op : OperatingPoint
        Currents, derivatives and speed.

    Returns
    -------
    (v_d, v_q, t_e)
        Rotor-frame voltages and torque.

    """
    dec = decompose(params)
    r, lam = dec.nominal_r, dec.nominal_lam
    l_sum = dec.nominal_l + dec.nominal_m
    v_d = r * op.i_d + l_sum * (op.di_d + op.omega_e * op.i_q)
    v_q = r * op.i_q + l_sum * (op.di_q - op.omega_e * op.i_d) \
        + op.omega_e * lam
    t_e = 1.5 * params.pole_pairs * lam * op.i_q
    return v_d, v_q, t_e


def transient_window(params: MachineParameters, omega_e) -> float:
    """Settling window for voltage-fed runs.

    Covers five nominal stator time constants (l + m) / r and, when
    rotating, at least two electrical periods so that periodic averages
    are meaningful.
    """
    dec = decompose(params)
    window = 5.0 * ((dec.nominal_l + dec.nominal_m) / dec.nominal_r)
    if omega_e != 0.0:
        window = max(window, 2.0 * (2.0 * math.pi / abs(omega_e)))
    return window
