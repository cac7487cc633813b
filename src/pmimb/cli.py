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
import contextlib
import functools
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

# Rows formatted per write: large enough that the per-block numpy calls
# vanish against the per-value work, small enough that the block's
# temporaries (about 230 bytes a value) stay under two megabytes.
_BLOCK_ROWS = 512
# Bound on the relative error of |x| * 10**k in long double: the table
# entry and the product each round once, by at most eps / 2. A long
# double no wider than double certifies no digit.
_SCALE_ERROR = 2 * float(np.finfo(np.longdouble).eps)
# Decimal exponents the tables cover: every double's, with one to spare.
_EXP_MIN, _EXP_MAX = -330, 330


def _field_template(negative, e, digits):
    """One field's 32 bytes: the separator before it (byte 0), sign and
    "0.000" (1-6), 17 digits (7-23), "e" and the exponent's sign (25-26)
    and its digits (29-31). 'a' keeps the digit row's byte, 'b' the byte
    before it (a digit after the point) and NUL drops the byte; any other
    byte stands for itself."""
    t = ["a", "-" if negative else "\0"] + ["\0"] * 30
    point = e + 1 if 0 <= e < 17 else digits if -4 <= e < 0 else 1
    t[7:7 + point] = "a" * point
    if digits > point:
        t[7 + point:8 + digits] = "." + "b" * (digits - point)
    if -4 <= e < 0:
        t[2:3 - e] = "0." + "a" * (-e - 1)
    elif not 0 <= e < 17:
        t[25:27] = "e-" if e < 0 else "e+"
        t[29 + (abs(e) < 100):] = "a" * (2 + (abs(e) >= 100))
    return "".join(t)


@functools.cache
def _format_tables():
    """``_format_block``'s tables, built on first use. Each exponent of
    fixed notation has its own templates; the others share them by sign
    and digit count."""
    exps = np.arange(_EXP_MIN, _EXP_MAX)
    pow10 = np.array([np.longdouble(f"1e{16 - e}") for e in exps])
    ascii4 = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48
    ascii4 = ascii4.astype(np.uint8).view(np.uint32).ravel()
    layout = np.where((exps > -100) & (exps < -4), -5, np.where(
        (exps > 16) & (exps < 100), 17, exps.clip(-100, 100)))
    layouts, first = np.unique(layout, return_inverse=True)
    text = "".join(_field_template(sign, e, digits) for sign in (0, 1)
                   for e in layouts.tolist() for digits in range(1, 18))
    tmpl = np.frombuffer(text.encode(), np.uint8).reshape(-1, 32)
    head, tail = ((tmpl == ord(c)) * np.uint8(255) for c in "ab")
    const = np.where(head | tail, 0, tmpl).astype(np.uint8)
    tables = pow10, ascii4, first * 17, head, tail, const
    for table in tables:  # every caller shares them
        table.flags.writeable = False
    return tables


def _format_block(block):
    """``block``'s rows as CSV text, each value as ``%.17g`` prints it
    (see ``write_csv``): a newline, then the rows less the last newline."""
    pow10, ascii4, first, head, tail, const = _format_tables()
    cols = block.shape[1]
    x = block.ravel()
    n = x.size
    finite, zero = np.isfinite(x), x == 0.0
    # 1.0 stands in for zeros, inf and nan, and for every value where long
    # double is too narrow to certify any.
    wide = _SCALE_ERROR < np.finfo(float).eps
    ax = np.where(finite & ~zero & wide, np.abs(x), 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    ld = ax.astype(np.longdouble)
    y = ld * pow10.take(e - _EXP_MIN)
    off = (y >= 1e17).astype(np.int64) - (y < 1e16)
    if off.any():  # log10 missed by one near a power of ten
        e += off
        y = ld * pow10.take(e - _EXP_MIN)
    whole = y.astype(np.int64)
    frac = (y - whole).astype(np.float64)  # exact: a few bits below 1
    slow = ~finite | (np.abs(frac - 0.5) <= (whole + 1) * _SCALE_ERROR)
    d = whole + (frac > 0.5)
    carry = d == 10**17
    e += carry
    d[carry] = 10**16
    d[zero] = 0
    # The digit row, at buf[32:]: the separator, then five 4-digit words
    # ("000" and the 17 digits at bytes 4-23) and the exponent's "0ddd"
    # at 28-31. buf[31:-1] is the same row a byte later.
    buf = np.empty((n + 1) * 32, np.uint8)
    row = buf[32:].reshape(n, 32)
    row.reshape(-1, cols, 32)[:, :, 0] = ord(",")
    row.reshape(-1, cols, 32)[:, 0, 0] = ord("\n")
    words = row.view(np.uint32)
    for col in range(5, 0, -1):
        quotient = d // 10000
        words[:, col] = ascii4.take(d - quotient * 10000)
        d = quotient
    words[:, 7] = ascii4.take(np.abs(e))
    digits = 17 - (row[:, 23:6:-1] != ord("0")).argmax(axis=1)
    digits[zero] = 1
    shape = first.take(e - _EXP_MIN) + digits - 1
    shape += np.signbit(x) * (len(head) // 2)
    field = head.take(shape, axis=0) & row
    field |= tail.take(shape, axis=0) & buf[31:-1].reshape(n, 32)
    field |= const.take(shape, axis=0)
    idx = np.flatnonzero(slow)
    if idx.size:
        texts = _printf_fields(np.where(idx % cols, 44, 10), x[idx])
        field[idx] = np.array(texts, "S32").view(np.uint8).reshape(-1, 32)
    return field.tobytes().translate(None, b"\0")


def _printf_fields(seps, values):
    """Each value as ``%.17g`` prints it, after its separator's byte."""
    return [b"%c%.17g" % pair for pair in zip(seps.tolist(), values.tolist())]


def write_csv(ts: TimeSeries, path):
    """Write ``ts`` as CSV: ``t``, ``theta`` and every channel in the
    series' order, one row per sample.

    Values carry 17 significant digits (``%.17g``) so a read-back
    reproduces every sample exactly; the bytes are those of formatting
    each value on its own. A block of rows at a time, a value's digits d
    and exponent e come from |x| * 10**(16 - e) in long double, and its
    layout from a template per sign, exponent class and digit count.
    ``%.17g`` itself formats inf, nan and each value whose product lies
    within its error bound of a .5 boundary: under 2 % of values, and all
    of them where long double is no wider than double.

    A channel name ``read_csv`` would not read back raises
    ``ConfigError``: ``t``, ``theta``, one holding a comma or a character
    that is not printable, or one empty or padded with spaces.
    """
    for name in ts.channels:
        if (name in ("t", "theta") or "," in name or not name.isprintable()
                or not name or name != name.strip()):
            raise ConfigError(f"channel name {name!r} is not a CSV column")
    columns = [ts.t, ts.theta, *ts.channels.values()]
    header = ",".join(["t", "theta", *ts.channels]).encode("utf-8")
    rows = columns[0].size
    with open(path, "wb") as handle:
        handle.write(header)
        for start in range(0, rows, _BLOCK_ROWS):
            handle.write(_format_block(np.column_stack(
                [col[start:start + _BLOCK_ROWS] for col in columns])))
        handle.write(b"\n")


def read_csv(path):
    """Read a write_csv file back as {column name: array}.

    Rejects text that is not UTF-8, blank or repeated header names, files
    without data rows, ragged rows and non-finite cells. ``#`` is not a
    comment: a cell or row holding one is rejected, not cut short.
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
                data = np.loadtxt(handle, delimiter=",", ndmin=2,
                                  comments=None)
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
        # _terms adds Python floats, whose overflow np.errstate misses.
        s, c_2theta, c_0, _ = _terms(family, dec)
        if not np.isfinite([s, c_2theta, c_0]).all():
            raise InputError(f"{family} coefficients overflow: the "
                             "deviations are too large")
        entries.append((f"{family}.s", _fmt(s)))
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
    at parse time) on every stride-th sample."""
    n = _grid_size(scenario.sim)
    late = _simulate(scenario, _SUMMARY_CHANNELS, slice(n // 2, None))
    t_end = late.t[-1]
    means = [np.mean(late.channels[name]) for name in _SUMMARY_CHANNELS]
    del late
    ts = _simulate(scenario, scenario.channels,
                   slice(0, None, scenario.stride))
    csv_path = out_dir / scenario.csv_name
    write_csv(ts, csv_path)
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
    out = {"v_d_sim": ts.channels["v_d"], "v_q_sim": ts.channels["v_q"],
           **model}
    rows = slice(None, None, scenario.stride)
    write_csv(TimeSeries(ts.t[rows], ts.theta[rows], {
        name: column[rows] for name, column in out.items()}), csv_path)

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
    entries and the ``config.*`` echo of the resolved scenario. An output
    name that is a directory, or is not in one, is refused before the job
    runs, and a job that fails removes the directories this call made.
    """
    if job not in _JOBS:
        raise ConfigError(f"unknown job {job!r}")
    runner, _, sections, current_fed = _JOBS[job]
    out_dir = Path(out_dir)
    for section in scenario.sections:
        if section not in sections:
            print(f"warning: section [{section}] is ignored by the "
                  f"{job} job", file=sys.stderr)
    if current_fed and scenario.mode != "current-fed":
        raise ConfigError(f"{job} requires sim.mode = current-fed: "
                          f"{current_fed}")
    # The job runs inside out_dir, which identify's source_csv joins.
    made = [path for path in (out_dir, *out_dir.parents)
            if not os.path.lexists(path)]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # "..", an absolute path or a symlink can spell one file two ways.
        if os.path.realpath(out_dir / scenario.csv_name) == os.path.realpath(
                out_dir / scenario.summary_name):
            raise ConfigError("outputs: csv and summary name the same file")
        for key, name in (("csv", scenario.csv_name),
                          ("summary", scenario.summary_name)):
            path = os.path.realpath(out_dir / name)
            # "sub/" and "sub/." name a directory that does not exist yet.
            if os.path.basename(name) in ("", ".") or os.path.isdir(path):
                raise ConfigError(f"outputs: {key} {name!r} names a directory")
            if not os.path.isdir(os.path.dirname(path)):
                raise ConfigError(f"outputs: {key} {name!r} has no directory")
        entries, written = runner(scenario, out_dir)
        entries = [("job", job), *entries, *(
            (f"config.{key}", value) for key, value in scenario.resolved)]
        summary = out_dir / scenario.summary_name
        with open(summary, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(f"{key}: {value}\n" for key, value in entries)
    except Exception:
        for path in made:  # deepest first; one holding a file stays
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
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
