"""Amplitude-invariant transforms between phase (abc) and rotor (dq0) frames.

The rotor frame is locked to the electrical angle theta. Projections use
cos for the d axis and sin for the q axis, so a balanced three-phase set
``x_a = X cos(theta)`` maps to ``(X, 0, 0)``. Values in either frame are
plain triples: a tuple of three components or an array of shape (3, ...).
Components may be scalars or equally shaped arrays; everything
broadcasts. Both transforms return a tuple of three components and leave
stacking to the caller. Finiteness is checked where data enters the
package, not here.

Every function that needs the phase angles' cos and sin takes, in place
of theta, either the angle itself or the basis ``_phase_basis(theta)``
of those values. A caller that evaluates several transforms on one
sample grid builds the basis once and passes it to each; the results
are bit for bit those of passing theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Electrical angle between consecutive phases.
BETA = 2.0 * np.pi / 3.0


def phase_angles(theta):
    """Electrical angles of the three phases: theta - (0, beta, 2*beta).

    Returns an array of shape (3,) for scalar theta and (3, ...) otherwise.
    """
    th = np.asarray(theta, dtype=float)
    shift = np.array([0.0, BETA, 2.0 * BETA]).reshape((3,) + (1,) * th.ndim)
    return th - shift


# A class, not a tuple: np.size and np.asarray would copy a tuple of
# arrays into one array, and benchmark tooling sizes traced arguments.
@dataclass(frozen=True, slots=True)
class _PhaseBasis:
    """cos and sin of ``phase_angles(theta)``, each of shape (3,) + theta's."""

    cos: np.ndarray
    sin: np.ndarray


def _phase_basis(theta) -> _PhaseBasis:
    """Phase-angle basis of one sample grid, to pass in place of theta."""
    ang = phase_angles(theta)
    return _PhaseBasis(np.cos(ang), np.sin(ang))


def _as_basis(theta):
    """The basis of ``theta``, which may already be one."""
    return theta if isinstance(theta, _PhaseBasis) else _phase_basis(theta)


def park_forward(x_abc, theta):
    """Project per-phase quantities onto the rotor frame at angle theta.

    ``x_abc`` is any three components (a, b, c): a tuple or an array of
    shape (3, ...). ``theta`` is the angle or its ``_phase_basis``.
    Returns the tuple (d, q, zero).
    """
    a, b, c = x_abc
    basis = _as_basis(theta)
    cos_x, sin_x = basis.cos, basis.sin
    d = (2.0 / 3.0) * (a * cos_x[0] + b * cos_x[1] + c * cos_x[2])
    q = (2.0 / 3.0) * (a * sin_x[0] + b * sin_x[1] + c * sin_x[2])
    zero = (a + b + c) / 3.0
    if np.shape(zero) != np.shape(d):  # scalar components, array theta
        zero = np.full(np.shape(d), zero)
    return d, q, zero


def park_inverse(x_dq0, theta):
    """Map rotor-frame quantities back to the three phases at angle theta.

    ``x_dq0`` is any three components (d, q, zero): a tuple or an array
    of shape (3, ...). ``theta`` is the angle or its ``_phase_basis``.
    Returns the tuple (a, b, c).
    """
    d, q, zero = x_dq0
    basis = _as_basis(theta)
    cos_x, sin_x = basis.cos, basis.sin
    a = d * cos_x[0] + q * sin_x[0] + zero
    b = d * cos_x[1] + q * sin_x[1] + zero
    c = d * cos_x[2] + q * sin_x[2] + zero
    return a, b, c
