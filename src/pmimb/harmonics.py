"""Synchronous extraction of DC and second-harmonic content.

Signals are projected onto {1, cos 2theta, sin 2theta} by least squares
against the sampled electrical angle, so the extraction works for any
speed and does not require an integer number of periods per window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .imbalance import SecondHarmonicPhasor

MIN_SAMPLES_PER_PERIOD = 64

# Phase is meaningless below this fraction of the signal scale.
_PHASE_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class HarmonicDecomposition:
    """DC value, 2theta phasor, and RMS of what neither explains."""

    dc: float
    second: SecondHarmonicPhasor
    residual_rms: float

    def __post_init__(self):
        if not (np.isfinite(self.residual_rms) and self.residual_rms >= 0.0):
            raise ValueError("residual_rms must be finite and nonnegative")


@dataclass(frozen=True)
class WaveformComparison:
    """Error metrics of a waveform b against a reference a."""

    max_abs_error: float
    rms_error: float
    relative_rms: float | None


def check_angle_coverage(theta):
    """Require at least one full electrical period, adequately sampled.

    Only distinct angles count, in any order: repeated samples add none.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 3:
        raise InputError("theta must be a 1-D array of at least 3 samples")
    if not np.all(np.isfinite(theta)):
        raise InputError("theta must be finite")
    span = float(theta.max() - theta.min())
    if span <= 0.0:
        raise InputError("theta samples span zero angle")
    distinct = 1 + np.count_nonzero(np.diff(np.sort(theta)))
    # One sample spacing of slack: n uniform samples span (n-1) intervals.
    effective = span * distinct / (distinct - 1)
    two_pi = 2.0 * np.pi
    if effective < two_pi * (1.0 - 1e-9):
        raise InputError(
            f"angle span {effective:.6g} rad covers less than one "
            "electrical period"
        )
    periods = effective / two_pi
    if distinct / periods < MIN_SAMPLES_PER_PERIOD:
        raise InputError(
            f"{distinct / periods:.1f} samples per period; "
            f"at least {MIN_SAMPLES_PER_PERIOD} required"
        )
    return theta


def demodulate(signal, theta) -> HarmonicDecomposition:
    """Split a waveform into DC plus a 2theta component.

    Least-squares projection onto {1, cos 2theta, sin 2theta}. The fit is
    exact (zero residual) for any signal inside that span. Requires at
    least one full period and 64 samples per period.
    """
    signal = np.asarray(signal, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if signal.shape != theta.shape:
        raise InputError("signal and theta must have identical shapes")
    theta = check_angle_coverage(theta)
    basis = np.column_stack([
        np.ones_like(theta),
        np.cos(2.0 * theta),
        np.sin(2.0 * theta),
    ])
    # 3x3 normal equations; well conditioned over a full period.
    gram = basis.T @ basis
    dc, a, b = np.linalg.solve(gram, basis.T @ signal)
    k = float(np.hypot(a, b))
    scale = float(np.max(np.abs(signal)))
    # dc + a cos2th + b sin2th = dc + k cos(2th + phi) with phi = atan2(-b, a).
    if k < _PHASE_FLOOR_REL * scale or k == 0.0:
        phasor = SecondHarmonicPhasor(k, 0.0)
    else:
        phasor = SecondHarmonicPhasor(k, float(np.arctan2(-b, a)))
    residual = signal - basis @ np.array([dc, a, b])
    return HarmonicDecomposition(float(dc), phasor,
                                 float(np.sqrt(np.mean(residual ** 2))))


def compare_waveforms(a, b) -> WaveformComparison:
    """Error metrics of b against reference a.

    The relative metric normalizes by the RMS of the reference and is
    None when that RMS is zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InputError("waveforms must have identical shapes")
    err = b - a
    max_abs = float(np.max(np.abs(err))) if err.size else 0.0
    rms = float(np.sqrt(np.mean(err ** 2))) if err.size else 0.0
    ref_rms = float(np.sqrt(np.mean(a ** 2))) if a.size else 0.0
    relative = rms / ref_rms if ref_rms > 0.0 else None
    return WaveformComparison(max_abs, rms, relative)
