"""Measured vs predicted 2-theta current ripple under voltage drive.

Sweeps the phase-a resistance deviation, solves the voltage-fed machine
to steady state at each level, demodulates the second-harmonic
current ripple on both rotor-frame axes and compares it against the
first-order impedance-divider prediction. The relative error should stay
small and grow with the deviation, the first-order truncation.

Usage: python3 scripts/voltage_fed_ripple.py [--out ripple.csv]
"""

import argparse
from pathlib import Path

import numpy as np

from pmimb import (
    MachineParameters,
    SimConfig,
    balanced_voltage_command,
    demodulate,
    predict_current_ripple,
    run_voltage_fed,
    steady_state_window,
)

NOMINAL = dict(r=0.1, l=2e-4, m=2e-5, lam=0.05)
POLE_PAIRS = 3
OMEGA_E = 400.0
I_CMD = (0.0, 8.0)
CFG = SimConfig(dt=2e-6, duration=0.06, mode="voltage-fed")
FRACTIONS = (0.01, 0.02, 0.05, 0.10)


def measure_ripple(ts, mask, name):
    out = demodulate(ts.channel(name)[mask], ts.theta[mask])
    return out.second.k * np.exp(1j * out.second.phi)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("ripple.csv"),
                        help="CSV file for the sweep results")
    args = parser.parse_args(argv)

    print(f"omega_e = {OMEGA_E:g} rad/s, i_dq command = {I_CMD}, "
          f"dt = {CFG.dt:g} s, duration = {CFG.duration:g} s")
    header = (f"{'d_r_a/r':>8} {'axis':>4} {'measured (A)':>13} "
              f"{'predicted (A)':>14} {'rel err':>8}")
    print(header)
    rows = []
    for fraction in FRACTIONS:
        params = MachineParameters.from_nominal(
            NOMINAL["r"], NOMINAL["l"], NOMINAL["m"], NOMINAL["lam"],
            POLE_PAIRS, d_r=(fraction * NOMINAL["r"], 0.0, 0.0))
        v_cmd = balanced_voltage_command(params, OMEGA_E, *I_CMD)
        ts = run_voltage_fed(params, v_cmd, OMEGA_E, CFG)
        mask = steady_state_window(ts, params, OMEGA_E)
        predicted = predict_current_ripple(params, OMEGA_E, *I_CMD)
        for axis, pred in zip(("i_d", "i_q"), predicted):
            meas = measure_ripple(ts, mask, axis)
            rel = abs(meas - pred) / abs(pred)
            print(f"{fraction:>8.2%} {axis:>4} {abs(meas):>13.6e} "
                  f"{abs(pred):>14.6e} {rel:>8.2%}")
            rows.append((fraction, axis, abs(meas), abs(pred), rel))

    with open(args.out, "w") as fh:
        fh.write("fraction,axis,measured_k,predicted_k,relative_error\n")
        for fraction, axis, meas, pred, rel in rows:
            fh.write(f"{fraction:.17g},{axis},{meas:.17g},"
                     f"{pred:.17g},{rel:.17g}\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
