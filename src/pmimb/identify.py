"""Inverse problem: per-phase deviations from rotor-frame voltage residuals.

Given the difference between measured dq voltages and the balanced model
prediction, ``_fit`` checks the waveforms (``harmonics._waveforms``) and
the drive, then fits the deviation sum and spread (s, Re C/3, Im C/3) of
one family by linear least squares; one constant linear inverse,
``imbalance._UNSPREAD``, maps them to per-phase deviations, and the
coeffs path (``_terms``, ``_phasors``) reports their sum and phasor.
``fit_resistance`` and ``fit_flux`` call ``_fit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdentifiabilityError, InputError, _require_finite
from .harmonics import _waveforms
from .imbalance import (_FAMILIES, _UNSPREAD, SecondHarmonicPhasor,
                        _couple, _double_angle, _phasors, _terms)

# Families a fit can invert: a single triple, fixed by its sum and phasor.
_INVERTIBLE = tuple(name for name, (fields, _) in _FAMILIES.items()
                    if len(fields) == 1)


@dataclass(frozen=True)
class IdentificationResult:
    """Fitted imbalance description for one parameter family.

    ``per_phase`` holds the deviations against the nominal model the
    residuals were computed from; ``s`` and ``phasor`` are the forward
    coefficient map (``_terms``, ``_phasors``) of ``per_phase``, so they
    equal the coeffs job's figures for it bit for bit. The sum and the
    phasor fix the triple uniquely, so a noise-free fit returns the true
    deviations unchanged, with no shift to a zero minimum.
    """

    family: str
    s: float
    phasor: SecondHarmonicPhasor
    per_phase: tuple[float, float, float]
    fit_residual_rms: float

    def __post_init__(self):
        if self.family not in _INVERTIBLE:
            raise ValueError(f"family must be one of {_INVERTIBLE}")
        _require_finite(ValueError, per_phase=self.per_phase)
        if not (np.isfinite(self.fit_residual_rms)
                and self.fit_residual_rms >= 0.0):
            raise ValueError("fit_residual_rms must be finite and nonnegative")


def _fit(family, excitation, dv_d, dv_q, theta, op):
    dv_d, dv_q, theta = _waveforms(theta, dv_d=dv_d, dv_q=dv_q)
    drive = _FAMILIES[family][1](**{k: float(v) for k, v in op.items()})
    if not any(drive):
        raise IdentifiabilityError(
            f"{family} imbalance is invisible at zero {excitation}")
    if not np.all(np.isfinite(drive)):
        raise InputError(f"{family} fit needs a finite operating point")
    # The residuals are linear in (s, Re C/3, Im C/3): the design columns
    # are _couple at (s, C) = (1, 0), (0, 3) and (0, 3j), evaluated along a
    # leading axis, and both axes are fitted jointly. _UNSPREAD maps the
    # coefficients to the deviations, whose s and |C| = 3k must be finite.
    spread = np.array([[0.0], [3.0], [3.0j]])
    unit = _couple(_double_angle(theta), np.array([[1.0], [0.0], [0.0]]),
                   spread, spread, drive)
    design = np.concatenate(unit, axis=1).T
    target = np.concatenate([dv_d, dv_q])
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 3:
        raise IdentifiabilityError(
            f"{family} fit is rank deficient (rank {rank} of 3); "
            "the operating point does not excite all coefficients"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        residual = target - design @ coeffs
        rms = float(np.sqrt(np.mean(residual ** 2)))
        per_phase = tuple(float(v) for v in _UNSPREAD @ coeffs)
    deviations = {_FAMILIES[family][0][0]: per_phase}
    s, c_2theta = _terms(family, deviations)[:2]
    if not np.isfinite([*per_phase, s, math.hypot(c_2theta.real,
                                                  c_2theta.imag), rms]).all():
        raise InputError(f"{family} fit overflows: the voltages or the "
                         "operating point are too large")
    return IdentificationResult(family, s, _phasors(family, deviations)[""],
                                per_phase, rms)


def fit_resistance(dv_d, dv_q, i_d, i_q, theta) -> IdentificationResult:
    """Fit resistance deviations to dq voltage residuals.

    Parameters
    ----------
    dv_d, dv_q : array
        Measured voltage minus balanced-model voltage, per axis (V).
    i_d, i_q : float
        The constant rotor-frame currents during the measurement (A);
        zero-sequence current is assumed absent.
    theta : array
        Electrical angle per sample (rad), covering at least one period.

    The model is linear in (sum, k cos phi, k sin phi); both axes are
    fitted jointly.

    """
    return _fit("resistance", "current", dv_d, dv_q, theta,
                {"i_d": i_d, "i_q": i_q, "i_0": 0.0})


def fit_flux(dv_d, dv_q, omega_e, theta) -> IdentificationResult:
    """Fit PM flux deviations to dq voltage residuals.

    Requires nonzero electrical speed: the flux signature rides on the
    back emf and vanishes at standstill.
    """
    return _fit("flux", "speed", dv_d, dv_q, theta, {"omega_e": omega_e})
