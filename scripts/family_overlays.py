"""Overlay closed-form imbalance voltages on the simulated reference.

For each deviation family the script runs the current-fed reference
simulation of an unbalanced machine, evaluates the composed closed-form
rotor-frame voltages on the same angle grid, writes both waveforms to a
CSV per family and prints the error metrics. The relative RMS should sit
at numerical precision for every family.

Usage: python3 scripts/family_overlays.py [--out overlays]
"""

import argparse
from pathlib import Path

import numpy as np

from pmimb import (
    MachineParameters,
    OperatingPoint,
    SimConfig,
    TimeSeries,
    closed_form_dq,
    compare_waveforms,
    run_current_fed,
)
from pmimb.cli import write_csv

NOMINAL = dict(r=0.1, l=2e-4, m=2e-5, lam=0.05)
POLE_PAIRS = 3
OMEGA_E = 300.0
I_CMD = (-2.0, 10.0)
CFG = SimConfig(dt=1e-5, duration=0.03)

FAMILY_DEVIATIONS = {
    "resistance": dict(d_r=(0.005, 0.0, 0.002)),
    "flux": dict(d_lam=(0.0015, 0.0, 0.0005)),
    "inductance": dict(d_l=(8e-6, 2e-6, 0.0), d_m=(0.0, 6e-7, 0.0)),
    "combined": dict(d_r=(0.005, 0.0, 0.002), d_l=(8e-6, 2e-6, 0.0),
                     d_m=(0.0, 6e-7, 0.0), d_lam=(0.0015, 0.0, 0.0005)),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("overlays"),
                        help="output directory for the per-family CSV files")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    print(f"operating point: omega_e = {OMEGA_E:g} rad/s, "
          f"i_dq = {I_CMD}, dt = {CFG.dt:g} s")
    for family, deviations in FAMILY_DEVIATIONS.items():
        params = MachineParameters.from_nominal(
            NOMINAL["r"], NOMINAL["l"], NOMINAL["m"], NOMINAL["lam"],
            POLE_PAIRS, **deviations)
        ts = run_current_fed(params, I_CMD, OMEGA_E, CFG,
                             channels=("v_d", "v_q"))
        op = OperatingPoint(theta=ts.theta, omega_e=OMEGA_E, i_d=I_CMD[0],
                            i_q=I_CMD[1])
        v_d_model, v_q_model = closed_form_dq(params, op)

        path = args.out / f"{family}.csv"
        write_csv(TimeSeries(ts.t, ts.theta, {
            "v_d_sim": ts.channel("v_d"),
            "v_q_sim": ts.channel("v_q"),
            "v_d_model": np.broadcast_to(v_d_model, ts.t.shape).copy(),
            "v_q_model": np.broadcast_to(v_q_model, ts.t.shape).copy(),
        }), path)

        for axis, sim, model in (("v_d", ts.channel("v_d"), v_d_model),
                                 ("v_q", ts.channel("v_q"), v_q_model)):
            metrics = compare_waveforms(sim, model)
            rel = ("n/a" if metrics.relative_rms is None
                   else f"{metrics.relative_rms:.3e}")
            print(f"{family:>11} {axis}: max |err| = "
                  f"{metrics.max_abs_error:.3e} V, relative rms = {rel}")
        print(f"{'':>11} wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
