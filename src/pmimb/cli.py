"""Command-line front end.

    pmimb <subcommand> --scenario <path> [--out <dir>]

Subcommands, one ``_JOBS`` entry each: ``coeffs`` (closed-form imbalance
coefficients), ``simulate`` (reference simulation to CSV), ``compare``
(closed-form model against the reference simulation), ``identify``
(recover deviations from waveforms). Each writes summary.txt through
``run_scenario``. Exit codes: 0 success, 2 configuration error, 3 runtime
error, a numeric overflow, invalid operation or failed allocation
included. Every failure prints a single ``error: ...`` line to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
from .harmonics import compare_waveforms
from .identify import _INVERTIBLE, fit_flux, fit_resistance
# Bound for perfbench/tracing.py alone: closed_form_dq calls compose_total
# through imbalance, and nothing calls the delta functions.
from .imbalance import (_FAMILIES, _phasors, _terms, closed_form_dq,
                        compose_total, flux_delta, inductance_delta,
                        resistance_delta)
from .machine import (_PHASE_KEYS, OperatingPoint, decompose,
                      ideal_dq_nonsalient)
from .refsim import (TimeSeries, _blocked, _grid_size, run_current_fed,
                     run_voltage_fed)
from .scenario import Scenario, parse_scenario

# Rows formatted per write: large enough that the per-block Python calls
# vanish against the per-value formatting, small enough that the block's
# float list and text stay well under a megabyte.
_BLOCK_ROWS = 1024


def write_csv(ts: TimeSeries, path, stride=1):
    """Write ``ts`` as CSV: ``t``, ``theta`` and every channel in the
    series' order, on every ``stride``-th row.

    Values carry 17 significant digits (``%.17g``) so a read-back
    reproduces every sample exactly. Rows are formatted a block at a time
    with one ``%`` operation per block; the bytes are those of formatting
    each value on its own. A ``stride`` that is not an integer of at
    least 1 raises ``ConfigError``, as does a channel name ``read_csv``
    would not read back: ``t``, ``theta``, one holding a comma or a
    character that is not printable, or one empty or padded with spaces.
    """
    if not (isinstance(stride, (int, np.integer)) and stride >= 1):
        raise ConfigError(f"stride must be an integer >= 1, not {stride!r}")
    for name in ts.channels:
        if (name in ("t", "theta") or "," in name or not name.isprintable()
                or not name or name != name.strip()):
            raise ConfigError(f"channel name {name!r} is not a CSV column")
    columns = [col[::stride] for col in
               [ts.t, ts.theta, *ts.channels.values()]]
    header = ",".join(["t", "theta", *ts.channels])
    row_fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = columns[0].size
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            block = np.column_stack(
                [col[start:start + _BLOCK_ROWS] for col in columns])
            handle.write((row_fmt * block.shape[0])
                         % tuple(block.ravel().tolist()))


def read_csv(path):
    """Read a write_csv file back as {column name: array}.

    Rejects text that is not UTF-8, blank or repeated header names, files
    without data rows, ragged rows and non-finite cells.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            header = handle.readline().strip()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from None
        if not header:
            raise InputError(f"{path}: empty file")
        names = header.split(",")
        for idx, name in enumerate(names):
            if not name.strip():
                raise InputError(f"{path}: header column {idx + 1} is blank")
            if name in names[:idx]:
                raise InputError(f"{path}: column {name!r} appears more "
                                 "than once in the header")
        try:
            with warnings.catch_warnings():
                # An empty body is reported below, not as a numpy warning.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
    if data.shape[0] == 0:
        raise InputError(f"{path}: no data rows")
    if data.shape[1] != len(names):
        raise InputError(f"{path}: rows do not match header")
    finite = np.isfinite(data).all(axis=0)
    if not finite.all():
        bad = names[int(np.argmin(finite))]
        raise InputError(f"{path}: column {bad!r} holds a non-finite value")
    return {name: data[:, idx] for idx, name in enumerate(names)}


def _fmt(value):
    return repr(float(value))


def _coefficient_entries(scenario: Scenario):
    dec = vars(decompose(scenario.machine))
    entries = [(f"nominal.{key}", _fmt(dec[f"nominal_{key}"]))
               for key in _PHASE_KEYS]
    entries += [(f"deviation.d_{key}",
                 ", ".join(_fmt(v) for v in dec[f"d_{key}"]))
                for key in _PHASE_KEYS]
    for family in _FAMILIES:
        entries.append((f"{family}.s", _fmt(_terms(family, dec)[0])))
        for suffix, phasor in _phasors(family, dec).items():
            entries += [(f"{family}.k{suffix}", _fmt(phasor.k)),
                        (f"{family}.phi{suffix}", _fmt(phasor.phi))]
    return entries


# Channels whose late-half means the simulate summary reports.
_SUMMARY_CHANNELS = ("i_d", "i_q", "t_e")
# The only simulated channels compare and identify read.
_VOLTAGES_DQ = ("v_d", "v_q")


def _simulate(scenario: Scenario, channels, samples=slice(None)):
    """Run the scenario's simulation, computing only ``channels`` at the
    grid indices ``samples`` selects."""
    if scenario.mode == "voltage-fed":
        return run_voltage_fed(scenario.machine, (scenario.v_d, scenario.v_q),
                               scenario.omega_e, scenario.sim,
                               channels=channels, samples=samples)
    return run_current_fed(scenario.machine, (scenario.i_d, scenario.i_q),
                           scenario.omega_e, scenario.sim, i_0=scenario.i_0,
                           channels=channels, samples=samples)


def _job_coeffs(scenario: Scenario, out_dir: Path):
    return _coefficient_entries(scenario), []


def _job_simulate(scenario: Scenario, out_dir: Path):
    """Simulate only the samples the job reads, each bit for bit the full
    run's. First the summary's channels on the late half, reduced to their
    means and dropped: a grid too large to allocate fails there, before
    any file is written. Then the CSV's channels (checked against the mode
    at parse time) on every stride-th sample. A selection holds at least 2
    samples: a late half of one (n = 2) takes the sample before it, and a
    lone CSV row (stride >= n) the grid's last, which its write skips."""
    n = _grid_size(scenario.sim)
    late = _simulate(scenario, _SUMMARY_CHANNELS,
                     slice(min(n // 2, n - 2), None))
    t_end = late.t[-1]
    means = [np.mean(late.channels[name][-(n - n // 2):])
             for name in _SUMMARY_CHANNELS]
    del late
    lone_row = scenario.stride >= n
    ts = _simulate(scenario, scenario.channels,
                   slice(0, None, n - 1 if lone_row else scenario.stride))
    csv_path = out_dir / scenario.csv_name
    write_csv(ts, csv_path, 2 if lone_row else 1)
    entries = [
        ("simulate.mode", scenario.mode),
        ("simulate.samples", str(n)),
        ("simulate.t_end", _fmt(t_end)),
        ("simulate.csv", csv_path.name),
    ]
    entries += [(f"simulate.mean_{name}", _fmt(mean))
                for name, mean in zip(_SUMMARY_CHANNELS, means)]
    return entries, [csv_path]


def _job_compare(scenario: Scenario, out_dir: Path):
    ts = _simulate(scenario, _VOLTAGES_DQ)
    drive = (scenario.omega_e, scenario.i_d, scenario.i_q, scenario.i_0)
    model = _blocked(ts.t.size, ("v_d_model", "v_q_model"), lambda part: (
        closed_form_dq(scenario.machine,
                       OperatingPoint(ts.theta[part], *drive))))
    metrics_d = compare_waveforms(ts.channels["v_d"], model["v_d_model"])
    metrics_q = compare_waveforms(ts.channels["v_q"], model["v_q_model"])

    csv_path = out_dir / scenario.csv_name
    out = TimeSeries(ts.t, ts.theta, {"v_d_sim": ts.channels["v_d"],
                                      "v_q_sim": ts.channels["v_q"], **model})
    write_csv(out, csv_path, stride=scenario.stride)

    entries = [(f"compare.{axis}.{key}",
                "n/a" if value is None else _fmt(value))
               for axis, metrics in (("v_d", metrics_d), ("v_q", metrics_q))
               for key, value in vars(metrics).items()]
    return entries + _coefficient_entries(scenario), [csv_path]


def _job_identify(scenario: Scenario, out_dir: Path):
    if scenario.family not in _INVERTIBLE:
        raise ConfigError(f"identify supports families "
                          f"{' and '.join(_INVERTIBLE)}, "
                          f"not {scenario.family!r}")
    if scenario.i_0 != 0.0:
        raise ConfigError("identify assumes operating_point.i_0 = 0")
    if scenario.identify_source is not None:
        # An absolute source_csv replaces out_dir in the join.
        source = out_dir / scenario.identify_source
        # realpath, not Path.resolve: a symlink loop then fails in read_csv.
        if os.path.realpath(source) == os.path.realpath(
                out_dir / scenario.summary_name):
            raise ConfigError(f"{source}: source_csv names the summary file "
                              "this job writes")
        data = read_csv(source)
        for needed in ("theta", "v_d", "v_q"):
            if needed not in data:
                raise InputError(
                    f"{source}: column {needed!r} is required for identify"
                )
        # As written, so the summary does not depend on --out.
        source_label = scenario.identify_source
    else:
        ts = _simulate(scenario, _VOLTAGES_DQ)
        data = {"theta": ts.theta, **ts.channels}
        source_label = "simulated"
    theta, v_d_meas, v_q_meas = data["theta"], data["v_d"], data["v_q"]

    op = OperatingPoint(theta=theta, omega_e=scenario.omega_e,
                        i_d=scenario.i_d, i_q=scenario.i_q)
    ideal_d, ideal_q, _ = ideal_dq_nonsalient(scenario.machine, op)
    dv_d, dv_q = v_d_meas - ideal_d, v_q_meas - ideal_q

    result = (fit_resistance(dv_d, dv_q, scenario.i_d, scenario.i_q, theta)
              if scenario.family == "resistance"
              else fit_flux(dv_d, dv_q, scenario.omega_e, theta))
    injected = vars(decompose(scenario.machine))[
        _FAMILIES[scenario.family][0][0]]

    recovered = np.array(result.per_phase)
    error = float(np.max(np.abs(recovered - np.array(injected))))
    entries = [
        ("identify.family", result.family),
        ("identify.source", source_label),
        ("identify.s", _fmt(result.s)),
        ("identify.k", _fmt(result.phasor.k)),
        ("identify.phi", _fmt(result.phasor.phi)),
        ("identify.fit_residual_rms", _fmt(result.fit_residual_rms)),
    ]
    for phase, value in zip("abc", result.per_phase):
        entries.append((f"identify.recovered_{phase}", _fmt(value)))
    for phase, value in zip("abc", injected):
        entries.append((f"identify.injected_{phase}", _fmt(value)))
    entries.append(("identify.max_abs_error", _fmt(error)))
    return entries, []


# Each job's runner, help text, the sections it reads (others draw a
# warning) and why it needs sim.mode = current-fed, or None. A runner
# returns its summary entries and files; run_scenario writes summary.txt.
_SECTIONS = ("machine", "imbalance", "outputs")
_SIM_SECTIONS = _SECTIONS + ("operating_point", "sim")
_JOBS = {
    "coeffs": (_job_coeffs, "closed-form imbalance coefficients", _SECTIONS,
               None),
    "simulate": (_job_simulate, "reference simulation to CSV", _SIM_SECTIONS,
                 None),
    "compare": (_job_compare, "closed-form model vs reference simulation",
                _SIM_SECTIONS, "the closed forms take prescribed currents"),
    "identify": (_job_identify, "recover deviations from waveforms",
                 _SIM_SECTIONS + ("identify",),
                 "the fits take constant currents"),
}


def run_scenario(scenario: Scenario, job, out_dir):
    """Execute one job and write its artifacts under out_dir.

    Returns the job's files, then summary.txt: ``job: <name>``, the job's
    entries and the ``config.*`` echo of the resolved scenario.
    """
    if job not in _JOBS:
        raise ConfigError(f"unknown job {job!r}")
    runner, _, sections, current_fed = _JOBS[job]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for section in scenario.sections:
        if section not in sections:
            print(f"warning: section [{section}] is ignored by the "
                  f"{job} job", file=sys.stderr)
    if current_fed and scenario.mode != "current-fed":
        raise ConfigError(f"{job} requires sim.mode = current-fed: "
                          f"{current_fed}")
    entries, written = runner(scenario, out_dir)
    entries = [("job", job), *entries, *((f"config.{key}", value)
                                         for key, value in scenario.resolved)]
    summary = out_dir / scenario.summary_name
    with open(summary, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(f"{key}: {value}\n" for key, value in entries)
    return [*written, summary]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pmimb",
        description="Per-phase imbalance models for PM synchronous machines",
    )
    sub = parser.add_subparsers(dest="job", required=True)
    for job, (_, text, *_) in _JOBS.items():
        p = sub.add_parser(job, help=text)
        p.add_argument("--scenario", required=True, help="scenario file")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        # A numpy overflow ends the job here, not in non-finite results.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            scenario = parse_scenario(args.scenario)
            artifacts = run_scenario(scenario, args.job, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: numeric fault: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    for path in artifacts:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
