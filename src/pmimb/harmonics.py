"""Synchronous extraction of DC and second-harmonic content.

Signals are projected onto {1, cos 2theta, sin 2theta} by least squares
against the sampled angle, at any speed and over any span of at least one
period. ``_waveforms`` checks every waveform input, here and in the fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, _require_finite
from .imbalance import SecondHarmonicPhasor

MIN_SAMPLES_PER_PERIOD = 64

# Samples per block of refsim's runs and of the waveform comparison's
# fold: the per-block Python calls vanish against the array work, and a
# block's few dozen temporary rows stay within a CPU cache.
_BLOCK = 16384

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
    _require_finite(InputError, theta=theta)
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


def _waveforms(theta, **signals):
    """The named signals, then theta, as float arrays: one shape, then finite
    signals, then angle coverage; the messages name the signals."""
    signals = {k: np.asarray(v, dtype=float) for k, v in signals.items()}
    theta = np.asarray(theta, dtype=float)
    if any(v.shape != theta.shape for v in signals.values()):
        raise InputError(f"{', '.join(signals)} and theta must have "
                         "identical shapes")
    if not all(np.isfinite(v).all() for v in signals.values()):
        raise InputError(f"{' and '.join(signals)} must be finite")
    return (*signals.values(), check_angle_coverage(theta))


def demodulate(signal, theta) -> HarmonicDecomposition:
    """Split a waveform into DC plus a 2theta component.

    Least-squares projection onto {1, cos 2theta, sin 2theta}. The fit is
    exact (zero residual) for any signal inside that span. Requires at
    least one full period and 64 samples per period.
    """
    signal, theta = _waveforms(theta, signal=signal)
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


def _error_sums(a, b):
    """max |b - a|, the sum of (b - a)**2 and the sum of a**2 over one
    block of samples, and its size. One scratch array holds the error,
    |error|, its square, then a's square; each sum is pairwise, as
    np.mean's."""
    err = np.subtract(b, a, out=np.empty(a.shape))
    max_abs = np.max(np.abs(err, out=err))
    return (max_abs, np.sum(np.square(err, out=err)),
            np.sum(np.square(a, out=err)), a.size)


def _comparison(sums) -> WaveformComparison:
    """The metrics of the blocks whose ``_error_sums`` are ``sums``, in
    grid order: the largest max, and each sum of squares summed again
    over the blocks. For one block that is np.mean's sum bit for bit."""
    max_abs, err_sq, ref_sq, sizes = np.array(sums).T
    size = int(sizes.sum())
    rms = float(np.sqrt(np.sum(err_sq) / size))
    ref_rms = float(np.sqrt(np.sum(ref_sq) / size))
    return WaveformComparison(float(np.max(max_abs)), rms,
                              rms / ref_rms if ref_rms > 0.0 else None)


def compare_waveforms(a, b) -> WaveformComparison:
    """Error metrics of b against reference a.

    The relative metric normalizes by the RMS of the reference and is
    None when that RMS is zero. A nan or an infinity in either raises
    ``InputError``, as in ``demodulate``. The samples are folded
    ``_BLOCK`` at a time, as the compare job folds its grid: squares are
    summed pairwise within a block, then block by block, so a grid of one
    block gives np.mean's sum bit for bit. Memory is one block's scratch
    array.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InputError("waveforms must have identical shapes")
    if not a.size:
        return WaveformComparison(0.0, 0.0, None)
    a, b = a.reshape(-1), b.reshape(-1)
    # Reductions, so no grid-sized temporary: a nan or -inf shows in the
    # min, +inf in the max.
    _require_finite(InputError, a=(a.min(), a.max()), b=(b.min(), b.max()))
    return _comparison([_error_sums(a[start:start + _BLOCK],
                                    b[start:start + _BLOCK])
                        for start in range(0, a.size, _BLOCK)])
