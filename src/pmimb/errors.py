"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, malformed scenario files,
    or simulation settings that violate a resolution guard."""


class InputError(ValueError):
    """Waveform inputs that cannot be processed: mismatched lengths,
    insufficient angle coverage, or too few samples per period."""


class IdentifiabilityError(InputError):
    """A fit whose data cannot determine the requested parameters
    (rank-deficient regressor, zero excitation, zero speed)."""
