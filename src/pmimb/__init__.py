"""Per-phase parameter imbalance models for PM synchronous machines.

The package models a three-phase permanent-magnet synchronous machine
whose per-phase resistances, inductances and magnet flux linkages may
differ, derives the rotor-frame voltage signature of each imbalance
family in closed form, verifies the closed forms against a brute-force
phase-frame simulation, and inverts measured signatures back to
per-phase deviations.
"""

from .errors import ConfigError, IdentifiabilityError, InputError
from .harmonics import (HarmonicDecomposition, WaveformComparison,
                        check_angle_coverage, compare_waveforms, demodulate)
from .identify import IdentificationResult, fit_flux, fit_resistance
from .imbalance import (SecondHarmonicPhasor, closed_form_dq, compose_total,
                        flux_coeffs, flux_delta, inductance_coeffs,
                        inductance_delta, resistance_coeffs,
                        resistance_delta)
from .machine import (ImbalanceDecomposition, MachineParameters,
                      OperatingPoint, decompose, ideal_dq_nonsalient,
                      phase_voltages, torque_abc, transient_window)
from .refsim import (SimConfig, TimeSeries, balanced_voltage_command,
                     predict_current_ripple, run_current_fed,
                     run_voltage_fed, steady_state_currents)
from .scenario import Scenario, parse_scenario
from .transforms import BETA, park_forward, park_inverse, phase_angles

__version__ = "0.1.0"

__all__ = [
    "BETA",
    "ConfigError",
    "HarmonicDecomposition",
    "IdentifiabilityError",
    "IdentificationResult",
    "ImbalanceDecomposition",
    "InputError",
    "MachineParameters",
    "OperatingPoint",
    "Scenario",
    "SecondHarmonicPhasor",
    "SimConfig",
    "TimeSeries",
    "WaveformComparison",
    "balanced_voltage_command",
    "check_angle_coverage",
    "closed_form_dq",
    "compare_waveforms",
    "compose_total",
    "decompose",
    "demodulate",
    "fit_flux",
    "fit_resistance",
    "flux_coeffs",
    "flux_delta",
    "ideal_dq_nonsalient",
    "inductance_coeffs",
    "inductance_delta",
    "park_forward",
    "park_inverse",
    "parse_scenario",
    "phase_angles",
    "phase_voltages",
    "predict_current_ripple",
    "resistance_coeffs",
    "resistance_delta",
    "run_current_fed",
    "run_voltage_fed",
    "steady_state_currents",
    "torque_abc",
    "transient_window",
]
