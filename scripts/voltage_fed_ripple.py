"""Exact vs predicted 2-theta current ripple under voltage drive.

Sweeps the phase-a resistance deviation, takes the exact steady-state
second-harmonic current ripple on both rotor-frame axes from the
voltage-fed phasor solution and measures the first-order
impedance-divider prediction against it. The prediction's error,
relative to the exact ripple, should stay small and grow with the
deviation, the first-order truncation. Nothing is simulated: the exact
ripple is a closed-form phasor.

Usage: python3 scripts/voltage_fed_ripple.py [--out ripple.csv]
"""

import argparse
from pathlib import Path

from pmimb import (
    MachineParameters,
    balanced_voltage_command,
    predict_current_ripple,
    steady_state_currents,
)

NOMINAL = dict(r=0.1, l=2e-4, m=2e-5, lam=0.05)
POLE_PAIRS = 3
OMEGA_E = 400.0
I_CMD = (0.0, 8.0)
FRACTIONS = (0.01, 0.02, 0.05, 0.10)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("ripple.csv"),
                        help="CSV file for the sweep results")
    args = parser.parse_args(argv)

    print(f"omega_e = {OMEGA_E:g} rad/s, i_dq command = {I_CMD}")
    header = (f"{'d_r_a/r':>8} {'axis':>4} {'exact (A)':>13} "
              f"{'predicted (A)':>14} {'rel err':>8}")
    print(header)
    rows = []
    for fraction in FRACTIONS:
        params = MachineParameters.from_nominal(
            NOMINAL["r"], NOMINAL["l"], NOMINAL["m"], NOMINAL["lam"],
            POLE_PAIRS, d_r=(fraction * NOMINAL["r"], 0.0, 0.0))
        v_cmd = balanced_voltage_command(params, OMEGA_E, *I_CMD)
        _, exact = steady_state_currents(params, v_cmd, OMEGA_E)
        predicted = predict_current_ripple(params, OMEGA_E, *I_CMD)
        for axis, ex, pred in zip(("i_d", "i_q"), exact, predicted):
            rel = abs(pred - ex) / abs(ex)
            print(f"{fraction:>8.2%} {axis:>4} {abs(ex):>13.6e} "
                  f"{abs(pred):>14.6e} {rel:>8.2%}")
            rows.append((fraction, axis, abs(ex), abs(pred), rel))

    with open(args.out, "w") as fh:
        fh.write("fraction,axis,exact_k,predicted_k,relative_error\n")
        for fraction, axis, ex, pred, rel in rows:
            fh.write(f"{fraction:.17g},{axis},{ex:.17g},"
                     f"{pred:.17g},{rel:.17g}\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
