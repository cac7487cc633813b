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
import io
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
# Bound only for perfbench/tracing.py to look up: compare_waveforms (the
# compare job folds its own blocks), compose_total (closed_form_dq calls it
# through imbalance), the delta functions (nothing calls them), and
# run_current_fed and run_voltage_fed (the jobs evaluate through plans).
from .harmonics import _BLOCK, _comparison, _error_sums, compare_waveforms
from .identify import _INVERTIBLE, fit_flux, fit_resistance
from .imbalance import (_FAMILIES, _phasors, _terms, closed_form_dq,
                        compose_total, flux_delta, inductance_delta,
                        resistance_delta)
from .machine import (_PHASE_KEYS, OperatingPoint, decompose,
                      ideal_dq_nonsalient)
from .refsim import (TimeSeries, _blocked, _current_fed_plan, _grid_size,
                     _voltage_fed_plan, run_current_fed, run_voltage_fed)
from .scenario import Scenario, parse_scenario

# Rows formatted per write: large enough that the per-block numpy calls
# vanish against the per-value work, small enough that the block's
# temporaries (about 230 bytes a value) stay under two megabytes.
_BLOCK_ROWS = 512
# Rows the CSV writer holds from writes of fewer than _BLOCK_ROWS, so a job
# writing a few hundred a block does not hand its heap back after each.
_HELD_ROWS = 8 * _BLOCK_ROWS
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
    series' order, one row per sample, each value as ``%.17g`` prints it,
    so a read-back gives every sample exactly. ``_format_block`` takes a
    value's digits from |x| * 10**(16 - e) in long double and its layout
    from a template table; ``%.17g`` itself formats inf, nan and each value
    within the product's error bound of a .5 boundary (under 2 %, or all
    where long double is no wider than double). A channel name
    ``read_csv`` would not read back raises ``ConfigError``: ``t``,
    ``theta``, one holding a comma or a character that is not printable,
    or one empty or padded with spaces."""
    with _csv_writer(path, ts.channels) as write:
        write(ts.t, ts.theta, *ts.channels.values())


@contextlib.contextmanager
def _csv_writer(path, channels):
    """``write_csv``'s file of ``t``, ``theta`` and ``channels``, names
    checked first: the context takes its columns' rows, any number a call,
    and where the calls cut them moves no byte. The text goes to a new
    file beside the one ``path`` resolves to, which it replaces only if
    the context exits without an exception; else it is removed."""
    for name in channels:
        if (name in ("t", "theta") or "," in name or not name.isprintable()
                or not name or name != name.strip()):
            raise ConfigError(f"channel name {name!r} is not a CSV column")
    held = []

    def flush():
        handle.writelines(map(_format_block, held))
        held.clear()

    def write(*columns):
        for start in range(0, columns[0].size, _BLOCK_ROWS):
            held.append(np.column_stack(
                [col[start:start + _BLOCK_ROWS] for col in columns]))
            if (columns[0].size >= _BLOCK_ROWS
                    or sum(map(len, held)) >= _HELD_ROWS):
                flush()
    target = os.path.realpath(path)
    # A device or a pipe is written in place. A file's temporary name is
    # as long whatever the target's, so a name near NAME_MAX fits too.
    temp = (target if os.path.exists(target) and not os.path.isfile(target)
            else os.path.join(os.path.dirname(target),
                              f"pmimb-{os.urandom(6).hex()}.tmp"))
    try:
        handle = open(temp, "wb" if temp == target else "xb")
    except OSError as exc:  # named by path, not by the random temporary
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with handle:
            handle.write(",".join(["t", "theta", *channels]).encode())
            yield write
            flush()
            handle.write(b"\n")
        if temp != target:
            os.replace(temp, target)
    except BaseException:
        if temp != target:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise


# The bytes of a data row write_csv writes. A block of nothing else,
# each line a row of the header's number of cells, is parsed as it is.
_CSV_ALPHABET = b"0123456789.e+-naif,\n"
# Body bytes per read, cut back to whole lines.
_READ_BYTES = 1 << 18
# strtold parses into x87 extended precision's 64-bit significand and
# 15-bit exponent where long double is that, else numpy parses doubles.
_X87_LONG_DOUBLE = (np.finfo(np.longdouble).nmant == 63
                    and sys.byteorder == "little")
# Blanks and tabs between a cell's text and its edges. A cell of blanks
# keeps them, so a line of blanks stays a ragged row.
_BLANKS = re.compile(rb"(?<![^,\n])[ \t]+(?=[^ \t,\n])"
                     rb"|(?<=[^ \t,\n])[ \t]+(?=[,\n])")


def _blocks(source, pos):
    """(file offset, bytes) of ``source``'s whole lines from offset
    ``pos`` on, about _READ_BYTES at a time. The last block may end
    without a line end; no block ends between a CR and its LF."""
    buf = bytearray(_READ_BYTES)
    source.seek(pos)
    while size := source.readinto(buf):
        if size == len(buf):  # cut back to whole lines
            size = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, -1)) + 1
        if size:
            yield pos, bytes(memoryview(buf)[:size])
            pos += size
        else:  # a line longer than the buffer
            buf = bytearray(2 * len(buf))
        source.seek(pos)


def _line_ends(data):
    """The line ends in ``data``: its LFs and the CRs no LF follows."""
    crs = len(re.findall(rb"\r(?!\n)", data)) if b"\r" in data else 0
    return crs + np.count_nonzero(np.frombuffer(data, np.uint8) == ord("\n"))


def _decoded(path, data, offset):
    """``data``, the bytes from file offset ``offset`` on, as UTF-8 text.
    A decode error names its bytes by their position in the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start, end = exc.start + offset, exc.end + offset
        where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}"
                 if end == start + 1
                 else f"bytes in position {start}-{end - 1}")
        raise InputError(f"{path}: '{exc.encoding}' codec can't decode "
                         f"{where}: {exc.reason}") from None


def _parse(block, cols):
    """``block``'s cells as doubles where it holds only _CSV_ALPHABET,
    each line a row of ``cols`` cells ending in a newline, and every
    cell parses; else None. strtold parses into long double, whose cast
    to double is exact but where ``float()`` reads the cell again."""
    if block.translate(None, _CSV_ALPHABET):
        return None
    text = np.frombuffer(block, np.uint8)
    newlines = np.flatnonzero(text == ord("\n"))
    commas = np.flatnonzero(text == ord(","))
    # Each row's cols - 1 commas lie between its newlines.
    if (commas.size != newlines.size * (cols - 1)
            or (np.searchsorted(commas, newlines) != (cols - 1) * np.arange(
                1, newlines.size + 1)).any()):
        return None
    try:  # numpy >= 2.4 raises where a cell does not parse
        wide = np.fromstring(block.replace(b"\n", b","), np.longdouble
                             if _X87_LONG_DOUBLE else np.float64, sep=",")
    except ValueError:
        return None
    if wide.size != newlines.size * cols:
        return None
    if not _X87_LONG_DOUBLE:
        return wide
    with np.errstate(all="ignore"):  # 1e400 overflows a double
        values = wide.astype(np.float64)
    # A significand on a double's midpoint rounds twice; a value outside
    # the normal doubles (biased exponents 15361 to 17406) rounds at
    # another bit, or not at all.
    bits = wide.view(np.uint64)
    significand, exponent = bits[::2], bits[1::2] & 0x7FFF
    again = np.flatnonzero(((significand & 0x7FF) == 0x400)
                           | ((exponent - 15361 >= 2046)
                              & (significand != 0)))
    for cell in again.tolist():  # as float() reads it
        row, col = divmod(cell, cols)
        first = newlines[row - 1] + 1 if row else 0
        values[cell] = float(block[first:newlines[row]].split(b",")[col])
    return values


def _mapped(block):
    """``block`` with CR and CRLF line ends, upper case, blanks and tabs
    around a cell, empty lines and a missing final newline mapped onto
    _CSV_ALPHABET. (``infinity`` is not a finite number, so a block that
    holds it is read cell by cell.)"""
    text = block.replace(b"\r", b"\n").lower() + b"\n"
    if b" " in text or b"\t" in text:
        text = _BLANKS.sub(b"", text)
    # A CRLF is now a line end and an empty line.
    return re.sub(rb"\n\n+", b"\n", text).lstrip(b"\n")


def _cell_rows(path, names, block, offset, line):
    """``block``'s cells, one at a time, from file offset ``offset`` and
    file line ``line`` on. Raises InputError at its first fault: bytes
    that are not UTF-8, else a ragged line or a cell no finite number."""
    values, text = [], _decoded(path, block, offset)
    for number, row in enumerate(re.split(r"\r\n?|\n", text), line):
        if not row:  # an empty line holds no row
            continue
        row = row.split(",")
        if len(row) != len(names):
            raise InputError(f"{path}: line {number} has " + (
                f"no cell for column {names[len(row)]!r}"
                if len(row) < len(names)
                else f"a cell past the last column {names[-1]!r}"))
        for name, cell in zip(names, row):
            value, bare = None, cell.strip()
            if bare.isascii() and "_" not in bare:
                with contextlib.suppress(ValueError):
                    value = float(bare)
            if value is None or not math.isfinite(value):
                raise InputError(f"{path}: column {name!r} holds " + (
                    f"{cell!r}, not a number," if value is None
                    else "a non-finite value") + f" at line {number}")
            values.append(value)
    return np.array(values)


def _read_rows(path, source, pos, names):
    """The rows of ``source``'s lines from offset ``pos`` on, file line 2
    on, as a (rows, len(names)) array; raises at the first fault."""
    # Each block's line ends; a row a line at most, and one more line.
    cols, ends = len(names), [_line_ends(block)
                              for _, block in _blocks(source, pos)]
    out = np.empty((1 + sum(ends), cols))
    flat, done = out.reshape(-1), 0
    for index, (offset, block) in enumerate(_blocks(source, pos)):
        values = _parse(block, cols)
        if values is None:  # other line ends, case or blanks, or a fault
            values = _parse(_mapped(block), cols)
        if values is None or not np.isfinite(values).all():
            values = _cell_rows(path, names, block, offset,
                                2 + sum(ends[:index]))
        if done + values.size > flat.size:
            raise InputError(f"{path}: the file grew while it was read")
        flat[done:done + values.size] = values
        done += values.size
    return out[:done // cols]


def read_csv(path):
    """Read a write_csv file back as {column name: array}.

    Reads UTF-8 text with LF, CRLF or CR line ends, a pipe once read
    into memory as a file is. A cell is what ``float()`` reads of it, to
    the bit, whitespace around it dropped, in ASCII without ``_``; an
    empty line holds no row; ``#`` is no comment. A UTF-8 byte-order
    mark before the header is dropped. Blocks of whole lines are parsed
    whole (``_parse``), once mapped onto write_csv's bytes if need be
    (``_mapped``), else a cell at a time (``_cell_rows``). The first
    fault raises InputError: text that is not UTF-8, by its file offset;
    a blank or repeated header name; no data rows; a ragged row or a
    cell that is not a finite number, by its column and file line, the
    header being line 1.
    """
    with open(path, "rb", buffering=0) as handle:
        source = handle if handle.seekable() else io.BytesIO(handle.read())
        head = next(_blocks(source, 0), (0, b""))[1]
        end = re.search(rb"\r\n?|\n|\Z", head).end()
        header = _decoded(path, head[:end], 0).removeprefix("\ufeff").strip()
        if not header:
            raise InputError(f"{path}: empty file")
        names = header.split(",")
        for idx, name in enumerate(names):
            if not name.strip():
                raise InputError(f"{path}: header column {idx + 1} is blank")
            if name in names[:idx]:
                raise InputError(f"{path}: column {name!r} appears more "
                                 "than once in the header")
        data = _read_rows(path, source, end, names)
    if data.shape[0] == 0:
        raise InputError(f"{path}: no data rows")
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
# Grid samples a job may simulate: at 4-6 M samples/s (a 2-CPU x86-64
# host), a compare of 2**32 samples takes 12-18 minutes.
_MAX_SAMPLES = 2**32


def _plan(scenario: Scenario, channels):
    """The scenario's grid indices, ``channels`` and an evaluator of any
    range of the indices: a grid past _MAX_SAMPLES is refused, then the
    drive checks and the setup run here, once."""
    n = _grid_size(scenario.sim)
    if n > _MAX_SAMPLES:
        raise ConfigError(f"sim: duration / dt gives {n} grid samples, "
                          "more than 2**32")
    if scenario.mode == "voltage-fed":
        return _voltage_fed_plan(scenario.machine,
                                 (scenario.v_d, scenario.v_q),
                                 scenario.omega_e, scenario.sim, channels)
    return _current_fed_plan(scenario.machine, (scenario.i_d, scenario.i_q),
                             scenario.omega_e, scenario.sim, scenario.i_0,
                             channels)


def _job_coeffs(scenario: Scenario, out_dir: Path):
    return _coefficient_entries(scenario), []


def _job_simulate(scenario: Scenario, out_dir: Path):
    """Walk one plan once, writing the CSV as it goes: its channels at its
    rows, every stride-th sample, a ``_BLOCK`` of rows at a time, and the
    summary's over the late half in ``_BLOCK`` ranges from n // 2, summed
    as ``_comparison`` sums. At stride 1 the late ranges give the CSV's
    late rows too, so each sample is evaluated once."""
    grid, names, evaluate = _plan(scenario, scenario.channels)
    n, half, stride = len(grid), len(grid) // 2, scenario.stride
    csv_path, sums = out_dir / scenario.csv_name, []
    with _csv_writer(csv_path, names) as write:
        rows = grid[:half] if stride == 1 else grid[::stride]
        for start in range(0, len(rows), _BLOCK):
            t, theta, values = evaluate(rows[start:start + _BLOCK])
            write(t, theta, *values.values())
        for start in range(half, n, _BLOCK):
            t, theta, values = evaluate(grid[start:start + _BLOCK], {
                *_SUMMARY_CHANNELS, *(names if stride == 1 else ())})
            sums.append([np.sum(values[name]) for name in _SUMMARY_CHANNELS])
            if stride == 1:
                write(t, theta, *(values[name] for name in names))
    # t_end is the grid's last time, as every run computes it.
    entries = [("simulate.mode", scenario.mode), ("simulate.samples", str(n)),
               ("simulate.t_end", _fmt((n - 1) * scenario.sim.dt)),
               ("simulate.csv", csv_path.name)]
    entries += [(f"simulate.mean_{name}", _fmt(np.sum(column) / (n - half)))
                for name, column in zip(_SUMMARY_CHANNELS, zip(*sums))]
    return entries, [csv_path]


def _job_compare(scenario: Scenario, out_dir: Path):
    """Compare the closed form with the simulated v_d, v_q a block of
    ``_BLOCK`` samples at a time, all through one plan: each block's
    errors are folded as ``compare_waveforms`` folds them, and its CSV
    rows, every stride-th sample, are written."""
    # A step too coarse for the speed is refused here, before any block.
    grid, _, evaluate = _plan(scenario, _VOLTAGES_DQ)
    drive = (scenario.omega_e, scenario.i_d, scenario.i_q, scenario.i_0)
    csv_path, sums = out_dir / scenario.csv_name, {"v_d": [], "v_q": []}
    with _csv_writer(csv_path, ("v_d_sim", "v_q_sim", "v_d_model",
                                "v_q_model")) as write:
        for start in range(0, len(grid), _BLOCK):
            t, theta, sim = evaluate(grid[start:start + _BLOCK])
            model = closed_form_dq(scenario.machine,
                                   OperatingPoint(theta, *drive))
            for axis_sums, a, b in zip(sums.values(), sim.values(), model):
                axis_sums.append(_error_sums(a, b))
            # From the block's first kept sample.
            write(*(values[-start % scenario.stride::scenario.stride]
                    for values in (t, theta, *sim.values(), *model)))
            # The block's times and angles, made first, are freed for the
            # next block to reuse; its values stay until then, so the heap's
            # top is not handed back and faulted in again every block.
            del t, theta
        entries = [(f"compare.{axis}.{key}",
                    "n/a" if value is None else _fmt(value))
                   for axis, axis_sums in sums.items()
                   for key, value in vars(_comparison(axis_sums)).items()]
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
        ts = _blocked(*_plan(scenario, _VOLTAGES_DQ))
        data = {"theta": ts.theta, **ts.channels}
        source_label = "simulated"
    # Contiguous copies of the fitted columns, so the fit does not keep
    # read_csv's whole block alive.
    theta, v_d_meas, v_q_meas = (np.ascontiguousarray(data[name])
                                 for name in ("theta", "v_d", "v_q"))
    del data

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
    except (ConfigError, InputError, OSError, FloatingPointError,
            MemoryError) as exc:
        kind = ("numeric fault: " if isinstance(exc, FloatingPointError)
                else "out of memory: " if isinstance(exc, MemoryError) else "")
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    for path in artifacts:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
