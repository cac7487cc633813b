"""Exception types shared across the package, and its one finiteness rule."""

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, malformed scenario files,
    a non-finite drive or settings that violate a resolution guard."""


class InputError(ValueError):
    """Waveform inputs that cannot be processed: mismatched shapes, non-finite
    samples, too little angle coverage or too few samples per period."""


class IdentifiabilityError(InputError):
    """A fit whose data cannot determine the requested parameters
    (rank-deficient regressor, zero excitation, zero speed)."""


def _require_finite(error, prefix="", **values):
    """Raise ``error(f"{prefix}{name} must be finite")`` for the first of
    ``values``, scalar or array, that holds a nan or an infinity."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise error(f"{prefix}{name} must be finite")
