import contextlib
import decimal
import io
import math
import os
import runpy
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from pmimb import (ConfigError, InputError, TimeSeries, cli, parse_scenario,
                   refsim)
from pmimb.cli import (_BLOCK_ROWS, main, read_csv, run_scenario,
                       write_csv)
from pmimb.harmonics import _BLOCK
from pmimb.imbalance import _FAMILIES
from pmimb.refsim import VOLTAGE_FED_CHANNELS

MACHINE = """\
[machine]
pole_pairs = 3
r = 0.1
l = 2e-4
m = 2e-5
lam = 0.05
"""

OP_SIM = """\
[operating_point]
omega_e = 300
i_d = -2
i_q = 10

[sim]
dt = 1e-5
duration = 0.03
"""


def write_scenario(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_summary(path):
    entries = {}
    for line in open(path, encoding="utf-8"):
        key, _, value = line.partition(": ")
        entries[key] = value.strip()
    return entries


def small_series(n=3):
    t = np.arange(n) * 1e-3
    return TimeSeries(t, 100.0 * t, {"i_a": np.linspace(0, 1, n),
                                     "v_a": np.linspace(-1, 1, n)})


# Values whose %.17g text is easy to get wrong: signed zero, the smallest
# subnormal, huge and tiny magnitudes, an integral value, non-finite.
AWKWARD = (-0.0, 5e-324, 1e300, -1.2345e-17, 3.0, math.inf, -math.inf,
           math.nan)


def awkward_series(n):
    rng = np.random.default_rng(n)
    t = np.arange(n) * 1e-6
    return TimeSeries(t, 300.0 * t, {
        "i_a": rng.standard_normal(n),
        "edge": np.resize(np.array(AWKWARD), n),
        "v_q": 1e-7 * rng.standard_normal(n),
    })


def strided(ts, stride):
    """``ts`` at every ``stride``-th sample, as views of its arrays."""
    rows = slice(None, None, stride)
    return TimeSeries(ts.t[rows], ts.theta[rows], {
        name: data[rows] for name, data in ts.channels.items()})


def oracle_bytes(ts, channels, stride):
    names = list(ts.channels if channels is None else channels)
    columns = [ts.t, ts.theta] + [ts.channels[name] for name in names]
    return oracles.csv_text(["t", "theta"] + names, columns,
                            stride).encode("utf-8")


class TestCsvInputOutput:
    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(small_series(3), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,theta,i_a,v_a"
        assert len(lines) == 4

    def test_series_without_channels(self, tmp_path):
        path = tmp_path / "out.csv"
        ts = small_series(3)
        write_csv(TimeSeries(ts.t, ts.theta), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,theta"
        assert all(len(line.split(",")) == 2 for line in lines[1:])

    def test_roundtrip_is_bit_exact(self, tmp_path, rng):
        n = 50
        t = np.arange(n) * 1e-6
        ts = TimeSeries(t, 200.0 * t, {"i_a": rng.standard_normal(n),
                                       "v_q": 1e-7 * rng.standard_normal(n)})
        path = tmp_path / "out.csv"
        write_csv(ts, path)
        back = read_csv(path)
        assert np.array_equal(back["t"], ts.t)
        assert np.array_equal(back["i_a"], ts.channels["i_a"])
        assert np.array_equal(back["v_q"], ts.channels["v_q"])

    def test_stride_subsamples(self, tmp_path):
        # A strided view of a series writes one row per sample it holds.
        path = tmp_path / "out.csv"
        ts = small_series(10)
        write_csv(strided(ts, 3), path)
        assert np.array_equal(read_csv(path)["t"], ts.t[[0, 3, 6, 9]])

    @pytest.mark.parametrize("name", ["t", "theta", "", "a,b", "x\ny", "x\r",
                                      " v_d", "v_d ", "\t", "\udcff"])
    def test_name_read_csv_cannot_read_is_refused(self, tmp_path, name):
        # Once each wrote a header that read_csv refused, or read back
        # under another name, or failed to encode after the file opened.
        ts = small_series()
        path = tmp_path / "out.csv"
        with pytest.raises(ConfigError, match="is not a CSV column$"):
            write_csv(TimeSeries(ts.t, ts.theta, {name: ts.t}), path)
        assert not path.exists()

    def test_name_that_is_not_a_string_is_a_type_error(self, tmp_path):
        ts = small_series()
        path = tmp_path / "out.csv"
        with pytest.raises(TypeError):
            write_csv(TimeSeries(ts.t, ts.theta, {1: ts.t}), path)
        assert not path.exists()

    def test_every_job_channel_name_reads_back(self, tmp_path):
        names = (*VOLTAGE_FED_CHANNELS, "v_d_sim", "v_q_sim", "v_d_model",
                 "v_q_model")
        ts = small_series()
        path = tmp_path / "out.csv"
        write_csv(TimeSeries(ts.t, ts.theta, dict.fromkeys(names, ts.t)),
                  path)
        assert list(read_csv(path)) == ["t", "theta", *names]

    @pytest.mark.parametrize("rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS,
                                      2 * _BLOCK_ROWS + 7])
    @pytest.mark.parametrize("stride", [1, 3, None])
    @pytest.mark.parametrize("block", [None, 1, 7, "grid"])
    def test_bytes_match_value_by_value_oracle(self, tmp_path, monkeypatch,
                                               rows, stride, block):
        # write_csv hands the writer every row at once. The jobs hand it
        # one block at a time: here 1 or 7 rows a call, or as compare
        # does, the kept rows of each 100-sample block of the grid, an
        # uneven count that may be none. The writer holds such short
        # writes; past 20 held rows it formats them, with 7 rows a call
        # or 100-sample blocks, and at the end otherwise.
        if block in (7, "grid"):
            monkeypatch.setattr(cli, "_HELD_ROWS", 20)
        stride = rows + 1 if stride is None else stride
        ts = awkward_series(rows)
        path = tmp_path / "out.csv"
        columns = [ts.t, ts.theta, *ts.channels.values()]
        if block is None:
            write_csv(strided(ts, stride), path)
        elif block == "grid":
            with cli._csv_writer(path, ts.channels) as write:
                for start in range(0, rows, 100):
                    write(*(col[start:start + 100][-start % stride::stride]
                            for col in columns))
        else:
            with cli._csv_writer(path, ts.channels) as write:
                for start in range(0, rows, block * stride):
                    write(*(col[start:start + block * stride:stride]
                            for col in columns))
        assert path.read_bytes() == oracle_bytes(ts, None, stride)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_written_in_place(self, tmp_path):
        # A pipe is not replaced by a file: its reader gets the bytes.
        ts = awkward_series(1031)
        path, pipe, got = tmp_path / "out.csv", tmp_path / "pipe.csv", []
        write_csv(ts, path)
        os.mkfifo(pipe)
        reader = threading.Thread(target=lambda: got.append(
            pipe.read_bytes()), daemon=True)
        reader.start()
        write_csv(ts, pipe)
        reader.join(timeout=10)
        assert got == [path.read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.csv", "pipe.csv"] and not pipe.is_file()

    @pytest.mark.parametrize("channels", [("edge", "i_a"), ()])
    def test_channel_subset_bytes_match_oracle(self, tmp_path, channels):
        # A series built with some channels, out of their first order.
        ts = awkward_series(2 * _BLOCK_ROWS + 7)
        path = tmp_path / "out.csv"
        write_csv(strided(TimeSeries(ts.t, ts.theta, {
            name: ts.channels[name] for name in channels}), 3), path)
        assert path.read_bytes() == oracle_bytes(ts, channels, 3)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError, match="empty"):
            read_csv(path)

    def test_read_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,theta,i_a\n0,0\n")
        with pytest.raises(InputError):
            read_csv(path)

    def test_read_rejects_repeated_header_name(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,theta,v_d,v_d\n0,0,1,2\n0.1,1,1,2\n")
        with pytest.raises(InputError, match="'v_d' appears more than once"):
            read_csv(path)

    def test_read_rejects_blank_header_name(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,,theta\n0,0,0\n")
        with pytest.raises(InputError, match="column 2 is blank"):
            read_csv(path)

    @pytest.mark.parametrize("body, message", [
        ("0,2#junk\n1,3\n", "column 'theta' holds '2#junk', not a number, "
                            "at line 2"),
        ("# note\n0,2\n1,3\n", "line 2 has no cell for column 'theta'"),
        ("0,2\n#1,3\n", "column 't' holds '#1', not a number, at line 3"),
    ], ids=["cell", "row", "commented-row"])
    def test_read_rejects_hash_instead_of_skipping_it(self, tmp_path, body,
                                                      message):
        # loadtxt's default comments="#" once read 2#junk as 2 and
        # skipped a row starting with #.
        path = tmp_path / "bad.csv"
        path.write_text("t,theta\n" + body)
        with pytest.raises(InputError, match=message):
            read_csv(path)

    @pytest.mark.filterwarnings("error")
    def test_read_rejects_header_only_file_without_warning(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,theta,i_a\n")
        with pytest.raises(InputError, match="no data rows"):
            read_csv(path)


def values_series(values, cols=5):
    """A series whose channels c0..c{cols-1} hold ``values`` row by row,
    padded with zeros, on an integer time base."""
    values = np.asarray(values, dtype=float)
    rows = -(-values.size // cols)
    grid = np.zeros(rows * cols)
    grid[:values.size] = values
    grid = grid.reshape(rows, cols)
    t = np.arange(rows, dtype=float)
    return TimeSeries(t, np.zeros(rows), {
        f"c{k}": grid[:, k] for k in range(cols)})


def raw_bits_sweep(n, seed):
    """``n`` doubles from uniform 64-bit patterns (every exponent, both
    signs, subnormals and nan), plus zeros, the subnormal ends and inf."""
    bits = np.random.default_rng(seed).integers(0, 2**64, n, np.uint64)
    ends = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
            1.7976931348623157e308, math.inf, -math.inf, math.nan]
    return np.concatenate([bits.view(np.float64), ends])


# Values where %.17g's digits or layout turn: the carry to 1e17, the
# switch between fixed and exponent notation, integers past 2**53.
TURNING_POINTS = (1e16, 1e17, 9.9999999999999995e16, 1e-4,
                  9.9999999999999991e-05, 1e-5, 12345678901234567.0,
                  2.0**63, 2.0**64, 1e22, 1e23, -1e100, 1e-100, 1e-99)


class TestCsvFormatting:
    """write_csv's bytes against per-value ``{:.17g}``
    (``oracles.csv_text``), over values chosen to break a fast path."""

    @staticmethod
    def check(tmp_path, ts, monkeypatch=None):
        """Write ``ts``, compare with the oracle and return how many
        values ``%.17g`` formatted itself."""
        printed = []
        if monkeypatch is not None:
            def spy(seps, values):
                printed.append(values.size)
                return original(seps, values)
            original = cli._printf_fields
            monkeypatch.setattr(cli, "_printf_fields", spy)
        path = tmp_path / "out.csv"
        write_csv(ts, path)
        assert path.read_bytes() == oracle_bytes(ts, None, 1)
        return sum(printed)

    def test_raw_bit_sweep_under_main_errstate(self, tmp_path, monkeypatch):
        values = raw_bits_sweep(200_000, 23)
        # Every biased exponent: subnormals' 0 and nan's 2047 included.
        assert np.unique(values.view(np.uint64) >> 52 & 0x7FF).size == 2048
        ts = values_series(values)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            printed = self.check(tmp_path, ts, monkeypatch)
        # Some values take the %.17g fallback (nan, inf, near-ties), most
        # the kernel.
        assert 100 < printed < 0.05 * values.size

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf), -powers])
        self.check(tmp_path, values_series(values))

    def test_turning_points_and_large_integers(self, tmp_path):
        integers = 2.0**53 + np.arange(-8, 64) * 2.0
        self.check(tmp_path, values_series(
            [*TURNING_POINTS, *integers, *(-integers)], cols=3))

    def test_all_fallback_writes_the_same_bytes(self, tmp_path,
                                                monkeypatch):
        # As where long double is no wider than double.
        monkeypatch.setattr(cli, "_SCALE_ERROR", np.finfo(float).eps)
        ts = values_series([*raw_bits_sweep(2000, 5), *TURNING_POINTS])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            printed = self.check(tmp_path, ts, monkeypatch)
        assert printed == ts.t.size * (2 + len(ts.channels))

    def test_power_table_is_correctly_rounded(self):
        # The certificate assumes each entry is 10**(16 - e) to half an
        # ulp, at most eps / 2 of the value.
        pow10 = cli._format_tables()[0]
        eps = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
        for e, entry in zip(range(cli._EXP_MIN, cli._EXP_MAX), pow10):
            exact = Fraction(10)**(16 - e)
            error = abs(Fraction(*entry.as_integer_ratio()) - exact)
            assert error <= eps / 2 * exact, e

    def test_digit_table_is_the_four_digit_ascii(self):
        ascii4 = cli._format_tables()[1]
        assert ascii4.tobytes() == b"".join(
            b"%04d" % k for k in range(10000))


def read_outcome(path):
    """read_csv's result on ``path``: the bytes of each column, or the
    InputError's message."""
    try:
        data = read_csv(path)
    except InputError as exc:
        return str(exc)
    return {name: column.tobytes() for name, column in data.items()}


def set_cells(path, cells):
    """Rewrite the cells of ``path`` that ``cells`` keys by (file line,
    column name), the header being line 1, to the text it maps them to."""
    lines = path.read_bytes().split(b"\n")
    names = lines[0].split(b",")
    for (line, name), token in cells.items():
        row = lines[line - 1].split(b",")
        row[names.index(name.encode())] = token.encode()
        lines[line - 1] = b",".join(row)
    path.write_bytes(b"\n".join(lines))
    return path


def token_csv(path, tokens, cols=5):
    """Write ``tokens`` row by row as the cells of a CSV of ``cols``
    columns, padded with zeros."""
    tokens = [*tokens, *["0"] * (-len(tokens) % cols)]
    rows = [",".join(tokens[k:k + cols]) for k in range(0, len(tokens), cols)]
    path.write_text(",".join(f"c{k}" for k in range(cols)) + "\n"
                    + "".join(f"{row}\n" for row in rows))
    return path


def token_values(outcome, cols=5):
    """The cells of a token_csv file, row by row, from read_outcome."""
    return np.column_stack([np.frombuffer(outcome[f"c{k}"])
                            for k in range(cols)]).ravel()


def decimal_tokens(rng, n):
    """``n`` decimals of 1 to 25 significant digits, in exponent and fixed
    notation, from below the subnormals to past the largest double."""
    tokens = []
    for _ in range(n):
        size = int(rng.integers(1, 26))
        digits = "".join(map(str, [rng.integers(1, 10),
                                   *rng.integers(0, 10, size - 1)]))
        sign = "-" if rng.random() < 0.5 else ""
        point = int(rng.integers(1, size + 1))
        exp = int(rng.integers(-345, 310))
        if abs(exp) < 25 and rng.random() < 0.5:
            tokens.append(sign + (f"0.{'0' * -exp}{digits}" if exp < 0
                                  else digits + "0" * exp))
        else:
            tokens.append(f"{sign}{digits[:point]}.{digits[point:]}e{exp}")
    return tokens


def midpoint_tokens(doubles):
    """Each binary64 midpoint next to ``doubles`` written out exactly, at
    17, 20 and 25 digits, and within 1e-40 of it on either side: there
    long double rounds to the midpoint itself."""
    near = decimal.Context(prec=40)
    tokens = []
    with decimal.localcontext(decimal.Context(prec=1200)):
        for value in doubles:
            below = np.nextafter(value, -math.inf)
            above = (Fraction(2)**1024 if value == np.finfo(float).max
                     else np.nextafter(value, math.inf))
            for other in (below, above):
                mid = (Fraction(value) + Fraction(other)) / 2
                exact = (decimal.Decimal(mid.numerator)
                         / decimal.Decimal(mid.denominator))
                tokens += [f"{exact:e}", f"{near.next_plus(exact):e}",
                           f"{near.next_minus(exact):e}"]
                tokens += [f"{exact:.{digits}e}" for digits in (16, 19, 24)]
    return tokens


# Midpoints whose double rounding is easy to get wrong: 2**53 + 1, either
# side of powers of two, the subnormals' ends, the largest double.
HARD_DOUBLES = (2.0**53, 1.0, 2.0**-1022, 2.0**1023, 0.0, 5e-324,
                2.225073858507201e-308, 1.7976931348623157e308,
                *TURNING_POINTS)
HARD_TOKENS = ("9007199254740993", "2.4703282292062327e-324",
               "2.4703282292062328e-324", "1.7976931348623158e308")
# The digest script's CSV rewrites, and those whose blocks are parsed
# whole: every cell a finite number, once mapped onto write_csv's bytes.
CSV_EDITS = runpy.run_path(str(Path(__file__).resolve().parent.parent
                               / "scripts" / "artifact_digests.py"))[
    "CSV_EDITS"]
BLOCK_EDITS = ("csv:-0", "csv:+1", "csv:.5", "csv:1E5", "csv: 1",
               "csv:5e-324", "csv:crlf", "csv:blank-line",
               "csv:no-final-newline")


def read_through_a_pipe(path, data):
    """read_outcome of ``data`` fed to read_csv through a named pipe."""
    os.mkfifo(path)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as pipe:
            pipe.write(data)
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read_outcome(path)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


class TestCsvReading:
    """read_csv against np.loadtxt (``oracles.loadtxt_outcome``): the same
    bits, or both refuse."""

    @staticmethod
    def check(path, monkeypatch, cells=False):
        """read_csv's outcome on ``path``, once as it runs and once with
        the float64 conversion (``_X87_LONG_DOUBLE`` off), under main()'s
        errstate and with warnings as errors. Requires both to give one
        outcome, loadtxt's bits where it accepts the file and a refusal
        where it refuses it, and a block read cell by cell iff ``cells``
        (None: either way)."""
        read = []

        def spy(*args):
            read.append(args)
            return original(*args)
        original = cli._cell_rows
        with monkeypatch.context() as patch, warnings.catch_warnings(), \
                np.errstate(over="raise", invalid="raise", divide="raise"):
            warnings.simplefilter("error")
            patch.setattr(cli, "_cell_rows", spy)
            got = read_outcome(path)
            patch.setattr(cli, "_X87_LONG_DOUBLE", False)
            assert read_outcome(path) == got
        want = oracles.loadtxt_outcome(path)
        assert got == want if isinstance(want, dict) else isinstance(got, str)
        assert cells in (None, bool(read))
        return got

    def test_written_raw_bit_sweep(self, tmp_path, monkeypatch):
        values = raw_bits_sweep(50_000, 24)
        path = tmp_path / "sweep.csv"
        write_csv(values_series(values), path)
        assert "holds a non-finite value" in self.check(path, monkeypatch,
                                                        cells=True)
        finite = values[np.isfinite(values)]
        write_csv(values_series(finite), path)
        got = self.check(path, monkeypatch)
        assert token_values(got)[:finite.size].tobytes() == finite.tobytes()

    def test_written_turning_points(self, tmp_path, monkeypatch):
        integers = 2.0**53 + np.arange(-8, 64) * 2.0
        values = np.array([*TURNING_POINTS, *integers, *(-integers)])
        path = tmp_path / "turning.csv"
        write_csv(values_series(values, cols=3), path)
        got = self.check(path, monkeypatch)
        assert token_values(got, 3)[:values.size].tobytes() == values.tobytes()

    def test_random_decimal_tokens(self, tmp_path, monkeypatch, rng):
        tokens = decimal_tokens(rng, 20_000)
        finite = [token for token in tokens if math.isfinite(float(token))]
        got = self.check(token_csv(tmp_path / "tokens.csv", finite),
                         monkeypatch)
        assert token_values(got)[:len(finite)].tobytes() == np.array(
            [float(token) for token in finite]).tobytes()
        overflow = sorted(set(tokens) - set(finite))
        assert overflow
        for token in overflow[:5]:
            assert "non-finite" in self.check(
                token_csv(tmp_path / "inf.csv", [token]), monkeypatch, None)

    def test_midpoints_and_their_neighbours(self, tmp_path, monkeypatch,
                                            rng):
        doubles = np.abs(rng.integers(0, 2**63, 400).view(np.float64))
        tokens = [*midpoint_tokens([*doubles[np.isfinite(doubles)],
                                    *HARD_DOUBLES]), *HARD_TOKENS]
        finite = [token for token in tokens if math.isfinite(float(token))]
        got = self.check(token_csv(tmp_path / "midpoints.csv", finite),
                         monkeypatch)
        assert token_values(got)[:len(finite)].tobytes() == np.array(
            [float(token) for token in finite]).tobytes()
        for token in set(tokens) - set(finite):  # past the largest double
            assert "non-finite" in self.check(
                token_csv(tmp_path / "inf.csv", [token]), monkeypatch, None)

    def test_random_text_of_the_alphabet(self, tmp_path, monkeypatch, rng):
        # strtold must accept no cell float() refuses.
        alphabet = list("0123456789.e+-naif")
        accepted = 0
        for _ in range(300):
            cell = "".join(rng.choice(alphabet, rng.integers(1, 6)))
            if rng.random() < 0.3:
                cell = rng.choice(["nan", "inf", "-inf", "+nan"]) + cell[1:]
            got = self.check(token_csv(tmp_path / "cell.csv", [cell, "1"],
                                       cols=2), monkeypatch, cells=None)
            accepted += isinstance(got, dict)
        assert accepted > 10

    @pytest.mark.parametrize("edit", CSV_EDITS)
    def test_digest_edits(self, tmp_path, monkeypatch, edit):
        path = tmp_path / "edited.csv"
        write_csv(TimeSeries(np.arange(40.0), np.zeros(40), {
            "v_d": np.linspace(-1, 1, 40), "v_q": np.ones(40)}), path)
        path.write_bytes(CSV_EDITS[edit](path.read_bytes()))
        self.check(path, monkeypatch, cells=edit not in BLOCK_EDITS)

    @pytest.mark.parametrize("body, cells", [
        ("", False), ("1,2,3\n", False), ("1,2,3", False),
        ("\n1,2,3\n", False), ("1,2,3\n\n", False),
        ("1,2\n3,4,5,6\n", True), ("1,2,3\n4,5\n6,7,8,9\n", True),
        ("1,2,3,\n", True), ("1,2,\n", True), ("1,,3\n", True),
        ("1,2,3\r\n", False), ("1,2\r3,4\r", True), ("1e5,2,3\n", False),
        ("1E5,2.5E-3,3\n", False), ("1 ,2,3\n", False), ("1,2,3 \n", False),
        ("\t1 ,\t2\t,  3\r\n", False), ("1,2,0x3\n", True),
        ("1,2,infinity\n", True), ("NaN,1,2\n", True), ("1E5,-INF,3\n", True),
        ("\xa0 1,2,3\n", True), ("\x0b1,2,\u20033\x0c\n", True),
        ("1 2,2,3\n", True), ("1_0,2,3\n", True), ("\uff11,2,3\n", True),
        ("\u0661,2,3\n", True), ("1,2,1d5\n", True), ("1,2,1e\n", True),
        ("1,2,3\n \n4,5,6\n", True), ("1,2,3\n\t\n", True),
    ], ids=lambda x: repr(x))
    def test_row_structure(self, tmp_path, monkeypatch, body, cells):
        path = tmp_path / "rows.csv"
        path.write_text("a,b,c\n" + body, encoding="utf-8", newline="")
        self.check(path, monkeypatch, cells=cells)

    @pytest.mark.parametrize("body, message", [
        ("1,2,3\n4,x,6\n", "column 'b' holds 'x', not a number, at line 3"),
        ("1,2,3\n\n4, 1e ,6\n",
         "column 'b' holds ' 1e ', not a number, at line 4"),
        ("1,2,3\r\n\r\n4,5\r\n", "line 4 has no cell for column 'c'"),
        ("1,2,3\r\r \r", "line 4 has no cell for column 'b'"),
        ("1,2,3\n4,5,6,7\n", "line 3 has a cell past the last column 'c'"),
        ("1,2,3\n4,nan,x\n",
         "column 'b' holds a non-finite value at line 3"),
    ], ids=lambda x: repr(x))
    def test_fault_names_its_file_line_and_column(self, tmp_path,
                                                  monkeypatch, body,
                                                  message):
        # Lines count from the header's 1, empty lines and CR line ends
        # included; the first fault in the line comes first.
        path = tmp_path / "rows.csv"
        path.write_text("a,b,c\n" + body, newline="")
        assert self.check(path, monkeypatch, cells=True) == (
            f"{path}: {message}")

    def test_single_column(self, tmp_path, monkeypatch):
        path = tmp_path / "one.csv"
        path.write_text("t\n1\n2\n")
        assert self.check(path, monkeypatch)["t"] == np.array(
            [1.0, 2.0]).tobytes()
        path.write_text("t\n1\n\n2\n")
        self.check(path, monkeypatch)
        path.write_text("t\n1\n \n2\n")
        assert self.check(path, monkeypatch, cells=True).endswith(
            "column 't' holds ' ', not a number, at line 3")

    @pytest.mark.parametrize("read_bytes", [40, 4096])
    def test_blocks_of_whole_lines(self, tmp_path, monkeypatch, read_bytes):
        # Short reads cut more rows across reads; a line longer than a
        # read is read whole by a larger buffer.
        monkeypatch.setattr(cli, "_READ_BYTES", read_bytes)
        path = tmp_path / "series.csv"
        write_csv(awkward_series(300), path)
        rows = path.read_bytes().replace(b"nan", b"1").replace(b"inf", b"2")
        path.write_bytes(rows)
        got = self.check(path, monkeypatch)
        # No block ends between a CR and its LF.
        path.write_bytes(rows.replace(b"\n", b"\r\n"))
        assert self.check(path, monkeypatch) == got

    def test_header_only_file(self, tmp_path, monkeypatch):
        path = tmp_path / "header.csv"
        path.write_text("t,theta,i_a\n")
        assert "no data rows" in self.check(path, monkeypatch)

    def test_byte_order_mark_is_dropped(self, tmp_path, monkeypatch):
        path = tmp_path / "bom.csv"
        write_csv(small_series(5), path)
        plain = read_outcome(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert self.check(path, monkeypatch) == plain
        assert list(plain) == ["t", "theta", "i_a", "v_a"]

    @pytest.mark.parametrize("text, message", [
        (b"\xef\xbb\xbf", "empty file"),
        (b"\xef\xbb", "can't decode bytes in position 0-1"),
        # Positions still count the mark's bytes.
        (b"\xef\xbb\xbft,theta\n1,2\n3,\xff4\n", "byte 0xff in position 17"),
    ], ids=["mark-alone", "cut-mark", "mark-then-bad-body"])
    def test_byte_order_mark_edges(self, tmp_path, text, message):
        path = tmp_path / "bom.csv"
        path.write_bytes(text)
        with pytest.raises(InputError, match=message):
            read_csv(path)

    def test_non_finite_first_row_stops_at_the_first_block(
            self, tmp_path, monkeypatch):
        # The read raises in the block that holds the cell; the blocks
        # after it are never parsed.
        monkeypatch.setattr(cli, "_READ_BYTES", 4096)
        path = tmp_path / "series.csv"
        write_csv(small_series(2000), path)
        set_cells(path, {(2, "v_a"): "nan"})
        assert path.stat().st_size > 4 * 4096
        parsed, fromstring = [], np.fromstring
        monkeypatch.setattr(np, "fromstring", lambda *args, **kwargs: (
            parsed.append(args) or fromstring(*args, **kwargs)))
        assert self.check(path, monkeypatch, cells=True) == (
            f"{path}: column 'v_a' holds a non-finite value at line 2")
        assert len(parsed) == 2  # one block, in each conversion

    @pytest.mark.parametrize("read_bytes", [4096, cli._READ_BYTES])
    def test_first_non_finite_cell_in_file_order(self, tmp_path, monkeypatch,
                                                 read_bytes):
        # Not the first column in header order: i_a comes before v_a.
        monkeypatch.setattr(cli, "_READ_BYTES", read_bytes)
        path = tmp_path / "two.csv"
        write_csv(small_series(2000), path)
        set_cells(path, {(1500, "i_a"): "nan", (5, "v_a"): "inf"})
        assert self.check(path, monkeypatch, cells=True) == (
            f"{path}: column 'v_a' holds a non-finite value at line 5")

    def test_non_finite_cell_before_a_cell_that_does_not_parse(
            self, tmp_path, monkeypatch):
        # The read stops at the nan, in the first block, in both
        # conversions; loadtxt reads the whole file and refuses the x.
        monkeypatch.setattr(cli, "_READ_BYTES", 4096)
        path = tmp_path / "nan-then-x.csv"
        write_csv(small_series(2000), path)
        set_cells(path, {(2, "v_a"): "nan", (1500, "i_a"): "x"})
        assert self.check(path, monkeypatch, cells=True) == (
            f"{path}: column 'v_a' holds a non-finite value at line 2")
        assert "'x'" in oracles.loadtxt_outcome(path)

    @pytest.mark.parametrize("body, line", [
        ("1,2,3\n4,nan,6\n", 3), ("1,2,3\n\n\n4,nan,6\n", 5),
        ("\n1,inf,3\n\n", 3), ("1,2,3\r\n\r\n4,5,-inf\r\n", 4),
        ("1,2,3\r4,nan,6\r", 3), ("1,2,3\n4,5,1e400", 3),
    ], ids=lambda x: repr(x))
    def test_line_of_a_non_finite_cell(self, tmp_path, monkeypatch, body,
                                       line):
        # Lines count from the header's 1, empty lines and CR line ends
        # included, though loadtxt reads no row from an empty line.
        path = tmp_path / "rows.csv"
        path.write_text("a,b,c\n" + body, newline="")
        assert self.check(path, monkeypatch, cells=True).endswith(
            f"holds a non-finite value at line {line}")

    @pytest.mark.parametrize("text, message", [
        (b"t," + b"x" * 20_000 + b"\xff\n1,2\n",
         "byte 0xff in position 20002: invalid start byte"),
        (b"t,v\n" + b"1,2\n" * 5000 + b"\xff3,4\n",
         "byte 0xff in position 20004: invalid start byte"),
        (b"t,v\n" + b"1,2\n" * 5000 + b"3,\xe2\x82\n",
         "bytes in position 20006-20007: invalid continuation byte"),
        (b"t,v\n" + b"1,2\n" * 5000 + b"3,\xe2\x82",
         "bytes in position 20006-20007: unexpected end of data"),
    ], ids=["header", "body", "cut-sequence", "cut-at-the-end"])
    def test_decode_error_at_its_file_offset(self, tmp_path, monkeypatch,
                                             text, message):
        # Each block is decoded on its own, from its own file offset.
        monkeypatch.setattr(cli, "_READ_BYTES", 4096)
        path = tmp_path / "bytes.csv"
        path.write_bytes(text)
        assert self.check(path, monkeypatch, cells=None) == (
            f"{path}: 'utf-8' codec can't decode {message}")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("tail, message", [
        (b"\xff3,4\n", "byte 0xff in position 150000: invalid start byte"),
        (b"3,\xe2\x82",
         "bytes in position 150002-150003: unexpected end of data"),
    ], ids=["body", "cut-at-the-end"])
    def test_decode_error_in_a_pipe_at_its_file_offset(self, tmp_path, tail,
                                                      message):
        # A pipe is read into memory once, then read as a file is.
        got = read_through_a_pipe(tmp_path / "pipe.csv",
                                  b"t,v\n" + b"1,2\n" * 37_499 + tail)
        assert got == f"{tmp_path / 'pipe.csv'}: 'utf-8' codec can't decode "\
            f"{message}"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_reads_the_bits_of_the_file(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(awkward_series(3000), path)
        rows = path.read_bytes().replace(b"nan", b"1").replace(b"inf", b"2")
        path.write_bytes(rows)
        got = read_through_a_pipe(tmp_path / "pipe.csv", rows)
        assert isinstance(got, dict) and got == read_outcome(path)

    def test_peak_memory_is_the_rows_and_one_block(self, tmp_path):
        path = tmp_path / "large.csv"
        rows = 20_001
        t = np.arange(rows) * 1e-5
        write_csv(TimeSeries(t, 377.0 * t, {
            f"c{k}": np.sin(t * (k + 1)) for k in range(13)}), path)
        tracemalloc.start()
        try:
            data = read_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data["t"].size == rows
        assert peak < rows * 15 * 8 + 2 * 2**20


# The coefficient block of the coeffs and compare summaries, and the
# config echo that closes every summary, in file order.
COEFFICIENT_KEYS = (
    "nominal.r", "nominal.l", "nominal.m", "nominal.lam",
    "deviation.d_r", "deviation.d_l", "deviation.d_m", "deviation.d_lam",
    "resistance.s", "resistance.k", "resistance.phi",
    "flux.s", "flux.k", "flux.phi",
    "inductance.s", "inductance.k_l", "inductance.phi_l",
    "inductance.k_m", "inductance.phi_m",
)
CONFIG_KEYS = (
    "config.machine.r_a", "config.machine.r_b", "config.machine.r_c",
    "config.machine.l_a", "config.machine.l_b", "config.machine.l_c",
    "config.machine.m_ab", "config.machine.m_bc", "config.machine.m_ca",
    "config.machine.lam_a", "config.machine.lam_b", "config.machine.lam_c",
    "config.machine.pole_pairs", "config.imbalance.family",
    "config.imbalance.d_r", "config.imbalance.d_l",
    "config.imbalance.d_m", "config.imbalance.d_lam",
    "config.operating_point.omega_e", "config.operating_point.i_d",
    "config.operating_point.i_q", "config.operating_point.i_0",
    "config.sim.dt", "config.sim.duration", "config.sim.mode",
    "config.outputs.csv", "config.outputs.summary",
    "config.outputs.channels", "config.outputs.stride",
)


def run_job(tmp_path, capsys, job, text):
    """Run one job; return its summary keys in order and its stdout."""
    out = tmp_path / "out"
    assert main([job, "--scenario", write_scenario(tmp_path, text),
                 "--out", str(out)]) == 0
    return list(read_summary(out / "summary.txt")), capsys.readouterr().out


class TestCoeffsJob:
    def test_reference_coefficients(self, tmp_path, capsys):
        text = MACHINE + "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0.01\n"
        rc = main(["coeffs", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "wrote" in captured.out
        summary = read_summary(tmp_path / "out" / "summary.txt")
        assert summary["job"] == "coeffs"
        assert float(summary["nominal.r"]) == pytest.approx(0.1)
        d_r = [float(v) for v in summary["deviation.d_r"].split(",")]
        assert d_r == pytest.approx([0.02, 0.0, 0.01], abs=1e-12)
        assert float(summary["resistance.s"]) == pytest.approx(0.03, abs=1e-12)
        assert float(summary["resistance.k"]) == pytest.approx(
            0.005773502691896258, rel=1e-9)
        assert float(summary["resistance.phi"]) == pytest.approx(
            -math.pi / 6, abs=1e-9)
        # untouched families report zero coefficients
        assert float(summary["flux.k"]) == 0.0
        assert float(summary["inductance.k_l"]) == 0.0

    def test_summary_keys_in_order(self, tmp_path):
        main(["coeffs", "--scenario", write_scenario(tmp_path, MACHINE),
              "--out", str(tmp_path / "out")])
        assert list(read_summary(tmp_path / "out" / "summary.txt")) == [
            "job", *COEFFICIENT_KEYS, *CONFIG_KEYS]

    def test_config_echo_present(self, tmp_path):
        text = MACHINE
        main(["coeffs", "--scenario", write_scenario(tmp_path, text),
              "--out", str(tmp_path / "out")])
        summary = read_summary(tmp_path / "out" / "summary.txt")
        assert summary["config.machine.pole_pairs"] == "3"
        assert summary["config.sim.mode"] == "current-fed"

    def test_irrelevant_section_draws_warning(self, tmp_path, capsys):
        text = MACHINE + "[sim]\ndt = 1e-5\n"
        rc = main(["coeffs", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "warning: section [sim] is ignored by the coeffs job" \
            in captured.err


class TestSimulateJob:
    def test_writes_waveforms_and_means(self, tmp_path):
        text = MACHINE + OP_SIM
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert summary["simulate.mode"] == "current-fed"
        assert float(summary["simulate.mean_i_d"]) == pytest.approx(-2.0)
        assert float(summary["simulate.mean_i_q"]) == pytest.approx(10.0)
        data = read_csv(out / "timeseries.csv")
        assert "v_d" in data and "t_e" in data
        assert data["t"].size == int(summary["simulate.samples"])

    def test_summary_keys_and_wrote_lines_in_order(self, tmp_path, capsys):
        keys, stdout = run_job(tmp_path, capsys, "simulate", MACHINE + OP_SIM)
        assert keys == [
            "job", "simulate.mode", "simulate.samples", "simulate.t_end",
            "simulate.csv", "simulate.mean_i_d", "simulate.mean_i_q",
            "simulate.mean_t_e", *CONFIG_KEYS]
        out = tmp_path / "out"
        assert stdout == (f"wrote {out / 'timeseries.csv'}\n"
                          f"wrote {out / 'summary.txt'}\n")

    def test_channel_selection_and_stride(self, tmp_path):
        text = MACHINE + OP_SIM + "[outputs]\nchannels = i_d, i_q\nstride = 5\n"
        out = tmp_path / "out"
        main(["simulate", "--scenario", write_scenario(tmp_path, text),
              "--out", str(out)])
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header == "t,theta,i_d,i_q"
        data = read_csv(out / "timeseries.csv")
        assert data["t"].size == math.ceil(3001 / 5)

    @pytest.mark.parametrize("outputs, stride", [
        ("", 1), ("channels = t_e, v_d, i_q, i_d\n", 1),
        ("channels = i_d, i_q\n", 1), ("stride = 2\n", 2),
    ])
    def test_late_half_is_simulated_once(self, tmp_path, monkeypatch,
                                         outputs, stride):
        # One plan evaluates the summary's channels at each late sample
        # once, a block at a time: blocks of 512 make the 1501 late
        # samples of the 3001-sample grid three blocks. At stride 1 the
        # CSV's rows come from the same calls, so every grid sample is
        # evaluated once, whichever channels the CSV holds.
        planned, calls = [], []
        plan = cli._plan

        def counted_plan(scenario, channels):
            planned.append(channels)
            grid, names, evaluate = plan(scenario, channels)

            def counted(index, channels=names):
                calls.append((index, channels))
                return evaluate(index, channels)
            return grid, names, counted
        monkeypatch.setattr(cli, "_plan", counted_plan)
        monkeypatch.setattr(cli, "_BLOCK", 512)
        text = MACHINE + OP_SIM + "[outputs]\n" + outputs
        scenario = write_scenario(tmp_path, text)
        assert main(["simulate", "--scenario", scenario,
                     "--out", str(tmp_path / "out")]) == 0
        assert planned == [parse_scenario(scenario).channels]
        late = [index for index, channels in calls
                if {"i_d", "i_q", "t_e"} <= set(channels)
                and index.start >= 1500 and index.step == 1]
        assert [len(index) for index in late] == [512, 512, 477]
        assert [i for index in late for i in index] == list(range(1500, 3001))
        if stride == 1:
            assert sorted(i for index, _ in calls for i in index) == list(
                range(3001))

    def test_repeated_channel_exits_2(self, tmp_path, capsys):
        text = MACHINE + OP_SIM + "[outputs]\nchannels = v_d, v_d, i_a\n"
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err_lines) == 1
        assert "'v_d' is listed twice" in err_lines[0]
        assert not (out / "timeseries.csv").exists()

    def test_unavailable_channel_exits_2(self, tmp_path, capsys):
        # v_n exists only in voltage-fed runs; the parse refuses it in a
        # current-fed scenario and lists what a current-fed run can give.
        text = MACHINE + OP_SIM + "[outputs]\nchannels = i_d, v_n\n"
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: outputs.channels: unknown channel 'v_n' (available: "
            "v_a, v_b, v_c, i_a, i_b, i_c, v_d, v_q, v_0, i_d, i_q, i_0, "
            "t_e)\n")
        assert not (out / "timeseries.csv").exists()

    def test_unavailable_channel_refused_before_the_grid(self, tmp_path,
                                                         capsys):
        # A grid too large to allocate must not hide the channel error,
        # which the parse reports before any job runs.
        text = MACHINE + (f"[sim]\ndt = 1\nduration = {2**52 - 1}\n"
                          "[outputs]\nchannels = v_n\n")
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: outputs.channels: unknown channel 'v_n' (available: ")

    def test_voltage_fed_summary(self, tmp_path):
        text = MACHINE + """\
[operating_point]
omega_e = 300
v_d = 0.5
v_q = 11.0

[sim]
dt = 1e-5
duration = 0.03
mode = voltage-fed
"""
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert summary["simulate.mode"] == "voltage-fed"
        data = read_csv(out / "timeseries.csv")
        assert "v_n" in data
        assert np.max(np.abs(data["i_0"])) < 1e-12


class TestCompareJob:
    def test_balanced_model_agrees_with_simulation(self, tmp_path):
        text = MACHINE + OP_SIM
        out = tmp_path / "out"
        rc = main(["compare", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert float(summary["compare.v_d.max_abs_error"]) < 1e-9
        assert float(summary["compare.v_q.max_abs_error"]) < 1e-9
        data = read_csv(out / "timeseries.csv")
        for column in ("v_d_sim", "v_q_sim", "v_d_model", "v_q_model"):
            assert column in data

    def test_summary_keys_and_wrote_lines_in_order(self, tmp_path, capsys):
        keys, stdout = run_job(tmp_path, capsys, "compare", MACHINE + OP_SIM)
        assert keys == [
            "job",
            "compare.v_d.max_abs_error", "compare.v_d.rms_error",
            "compare.v_d.relative_rms",
            "compare.v_q.max_abs_error", "compare.v_q.rms_error",
            "compare.v_q.relative_rms",
            *COEFFICIENT_KEYS, *CONFIG_KEYS]
        out = tmp_path / "out"
        assert stdout == (f"wrote {out / 'timeseries.csv'}\n"
                          f"wrote {out / 'summary.txt'}\n")

    def test_imbalanced_model_still_agrees(self, tmp_path):
        text = MACHINE + OP_SIM + """\
[imbalance]
family = combined
d_r = 5%, 0, 2%
d_l = 1e-5, 0, 0
d_m = 0, 1e-6, 0
d_lam = 0, 2%, 0
"""
        out = tmp_path / "out"
        rc = main(["compare", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert float(summary["compare.v_d.max_abs_error"]) < 1e-9
        assert float(summary["compare.v_q.max_abs_error"]) < 1e-9
        assert float(summary["compare.v_q.relative_rms"]) < 1e-9

    def test_zero_reference_reports_not_applicable(self, tmp_path):
        # no operating point: standstill, zero current, voltages identically 0
        text = MACHINE + """\
[sim]
dt = 1e-5
duration = 0.03
"""
        out = tmp_path / "out"
        rc = main(["compare", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert summary["compare.v_d.relative_rms"] == "n/a"

    def test_requires_current_fed(self, tmp_path, capsys):
        text = MACHINE + """\
[operating_point]
omega_e = 300
v_d = 0.5
v_q = 11.0

[sim]
mode = voltage-fed
dt = 1e-5
"""
        rc = main(["compare", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ("error: compare requires sim.mode = "
                                "current-fed: the closed forms take "
                                "prescribed currents\n")
        assert not (tmp_path / "out" / "summary.txt").exists()

    def test_byte_deterministic_artifacts(self, tmp_path):
        text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 5%, 0, 0\n"
        scenario = write_scenario(tmp_path, text)
        for sub in ("one", "two"):
            rc = main(["compare", "--scenario", scenario,
                       "--out", str(tmp_path / sub)])
            assert rc == 0
        for name in ("timeseries.csv", "summary.txt"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b


class TestIdentifyJob:
    def test_resistance_roundtrip(self, tmp_path):
        text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0.01\n"
        out = tmp_path / "out"
        rc = main(["identify", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert summary["identify.family"] == "resistance"
        assert summary["identify.source"] == "simulated"
        assert float(summary["identify.max_abs_error"]) < 1e-9
        assert float(summary["identify.recovered_a"]) == pytest.approx(
            0.02, abs=1e-9)
        assert float(summary["identify.injected_c"]) == pytest.approx(
            0.01, abs=1e-12)

    def test_summary_keys_and_wrote_lines_in_order(self, tmp_path, capsys):
        keys, stdout = run_job(
            tmp_path, capsys, "identify", MACHINE + OP_SIM
            + "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0.01\n")
        assert keys == [
            "job", "identify.family", "identify.source", "identify.s",
            "identify.k", "identify.phi", "identify.fit_residual_rms",
            "identify.recovered_a", "identify.recovered_b",
            "identify.recovered_c", "identify.injected_a",
            "identify.injected_b", "identify.injected_c",
            "identify.max_abs_error", *CONFIG_KEYS]
        assert stdout == f"wrote {tmp_path / 'out' / 'summary.txt'}\n"

    def test_flux_roundtrip(self, tmp_path):
        text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = flux\nd_lam = 2%, 0, 1%\n"
        out = tmp_path / "out"
        rc = main(["identify", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert summary["identify.family"] == "flux"
        assert float(summary["identify.max_abs_error"]) < 1e-9

    def test_source_csv_roundtrip(self, tmp_path):
        sim_text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0.01\n" + \
            "[outputs]\ncsv = measured.csv\n"
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario",
                   write_scenario(tmp_path, sim_text, "sim.ini"),
                   "--out", str(out)])
        assert rc == 0
        fit_text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0.01\n" + \
            "[identify]\nsource_csv = measured.csv\n"
        rc = main(["identify", "--scenario",
                   write_scenario(tmp_path, fit_text, "fit.ini"),
                   "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert summary["identify.source"] == "measured.csv"
        assert float(summary["identify.max_abs_error"]) < 1e-9

    def test_source_csv_with_byte_order_mark(self, tmp_path):
        # The mark once stuck to the first header name, so a measured CSV
        # saved with one, theta first, exited 3: column 'theta' is
        # required.
        deviation = "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0\n"
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", write_scenario(
            tmp_path, MACHINE + OP_SIM + deviation, "sim.ini"),
            "--out", str(out)]) == 0
        lines = (out / "timeseries.csv").read_text().splitlines(True)
        (out / "measured.csv").write_text("\ufeff" + "".join(
            line.partition(",")[2] for line in lines), encoding="utf-8")
        assert main(["identify", "--scenario", write_scenario(
            tmp_path, MACHINE + OP_SIM + deviation
            + "[identify]\nsource_csv = measured.csv\n"),
            "--out", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        assert float(summary["identify.max_abs_error"]) < 1e-9

    def test_summary_does_not_depend_on_out(self, tmp_path):
        # Once identify.source named the joined path, run_a/timeseries.csv.
        deviation = "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0\n"
        sim = write_scenario(tmp_path, MACHINE + OP_SIM + deviation, "s.ini")
        fit = write_scenario(tmp_path, MACHINE + OP_SIM + deviation
                             + "[identify]\nsource_csv = timeseries.csv\n")
        summaries = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            for job, scenario in (("simulate", sim), ("identify", fit)):
                assert main([job, "--scenario", scenario,
                             "--out", str(out)]) == 0
            summaries.append((out / "summary.txt").read_bytes())
        assert summaries[0] == summaries[1]
        assert b"identify.source: timeseries.csv\n" in summaries[0]

    @pytest.mark.parametrize("spelling", ["timeseries.csv",
                                          "./timeseries.csv", "absolute"])
    def test_source_that_is_the_summary_is_refused(self, tmp_path, capsys,
                                                   spelling):
        # Once the summary overwrote the CSV it was fitted from.
        out = tmp_path / "out"
        assert main(["simulate", "--scenario",
                     write_scenario(tmp_path, MACHINE + OP_SIM, "sim.ini"),
                     "--out", str(out)]) == 0
        (out / "summary.txt").unlink()
        source = out / "timeseries.csv"
        before = source.read_bytes()
        capsys.readouterr()
        if spelling == "absolute":
            spelling = str(source)
        fit_text = MACHINE + OP_SIM + (
            "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0.01\n"
            "[outputs]\ncsv = unused.csv\nsummary = timeseries.csv\n"
            f"[identify]\nsource_csv = {spelling}\n")
        rc = main(["identify", "--scenario",
                   write_scenario(tmp_path, fit_text, "fit.ini"),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            f"error: {out / spelling}: source_csv names the summary file "
            "this job writes\n"))
        assert source.read_bytes() == before
        assert [path.name for path in out.iterdir()] == ["timeseries.csv"]

    def test_family_must_be_invertible(self, tmp_path, capsys):
        text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = inductance\nd_l = 1e-5, 0, 0\n"
        rc = main(["identify", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ("error: identify supports families "
                                "resistance and flux, not 'inductance'\n")

    def test_nonzero_zero_sequence_rejected(self, tmp_path, capsys):
        text = MACHINE + OP_SIM.replace("i_q = 10", "i_q = 10\ni_0 = 1") + \
            "[imbalance]\nfamily = resistance\nd_r = 0.01, 0, 0\n"
        rc = main(["identify", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "i_0" in capsys.readouterr().err

    VOLTAGE_FED = MACHINE + """\
[operating_point]
omega_e = 300
v_d = 0.5
v_q = 11.0

[sim]
mode = voltage-fed
dt = 1e-5
duration = 0.03

[imbalance]
family = resistance
d_r = 0.01, 0, 0
"""
    VOLTAGE_FED_REFUSAL = ["error: identify requires sim.mode = current-fed: "
                           "the fits take constant currents"]

    def test_voltage_fed_without_source_is_config_error(self, tmp_path,
                                                        capsys):
        out = tmp_path / "out"
        rc = main(["identify", "--scenario",
                   write_scenario(tmp_path, self.VOLTAGE_FED),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == self.VOLTAGE_FED_REFUSAL
        assert not (out / "summary.txt").exists()

    def test_voltage_fed_source_csv_is_config_error(self, tmp_path, capsys):
        # Under voltage drive the currents ripple, and a fit that takes
        # them constant answers wrongly, so a voltage-fed export is refused
        # as well.
        out = tmp_path / "out"
        sim_text = self.VOLTAGE_FED + (
            "[outputs]\ncsv = measured.csv\nchannels = i_d, i_q, v_d, v_q\n")
        assert main(["simulate", "--scenario",
                     write_scenario(tmp_path, sim_text, "sim.ini"),
                     "--out", str(out)]) == 0
        (out / "summary.txt").unlink()
        capsys.readouterr()
        fit_text = self.VOLTAGE_FED + "[identify]\nsource_csv = measured.csv\n"
        rc = main(["identify", "--scenario",
                   write_scenario(tmp_path, fit_text, "fit.ini"),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == self.VOLTAGE_FED_REFUSAL
        assert not (out / "summary.txt").exists()

    def test_voltage_fed_refusal_comes_before_the_family(self, tmp_path,
                                                         capsys):
        # The drive mode is checked before the job runs, so a voltage-fed
        # inductance scenario reads the mode refusal, not the family one.
        text = self.VOLTAGE_FED.replace(
            "family = resistance\nd_r = 0.01, 0, 0",
            "family = inductance\nd_l = 1e-5, 0, 0")
        rc = main(["identify", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == self.VOLTAGE_FED_REFUSAL

    def test_mode_refusal_follows_the_ignored_section_warning(self, tmp_path,
                                                              capsys):
        rc = main(["compare", "--scenario",
                   write_scenario(tmp_path, self.VOLTAGE_FED
                                  + "[identify]\nsource_csv = x.csv\n"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "warning: section [identify] is ignored by the compare job",
            "error: compare requires sim.mode = current-fed: the closed "
            "forms take prescribed currents"]

    def test_missing_source_file_is_input_error(self, tmp_path, capsys):
        text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 0.01, 0, 0\n" + \
            "[identify]\nsource_csv = nowhere.csv\n"
        rc = main(["identify", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error:")

    def test_source_missing_columns_is_input_error(self, tmp_path, capsys):
        sim_text = MACHINE + OP_SIM + "[outputs]\nchannels = i_d\n"
        out = tmp_path / "out"
        main(["simulate", "--scenario",
              write_scenario(tmp_path, sim_text, "sim.ini"),
              "--out", str(out)])
        fit_text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 0.01, 0, 0\n" + \
            "[identify]\nsource_csv = timeseries.csv\n"
        rc = main(["identify", "--scenario",
                   write_scenario(tmp_path, fit_text, "fit.ini"),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "v_d" in captured.err

    @pytest.mark.parametrize("column", ["v_d", "theta"])
    def test_non_finite_source_cell_is_input_error(self, tmp_path, capsys,
                                                   column):
        sim_text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0.01\n" + \
            "[outputs]\ncsv = measured.csv\n"
        out = tmp_path / "out"
        assert main(["simulate", "--scenario",
                     write_scenario(tmp_path, sim_text, "sim.ini"),
                     "--out", str(out)]) == 0
        csv_path = out / "measured.csv"
        lines = csv_path.read_text().splitlines()
        names = lines[0].split(",")
        cells = lines[5].split(",")
        cells[names.index(column)] = "nan"
        lines[5] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        fit_text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0.01\n" + \
            "[identify]\nsource_csv = measured.csv\n"
        capsys.readouterr()
        rc = main(["identify", "--scenario",
                   write_scenario(tmp_path, fit_text, "fit.ini"),
                   "--out", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")
        assert repr(column) in err_lines[0]

    def test_repeated_source_column_is_input_error(self, tmp_path, capsys):
        sim_text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0.01\n" + \
            "[outputs]\ncsv = measured.csv\nchannels = v_d, v_q, i_d\n"
        out = tmp_path / "out"
        assert main(["simulate", "--scenario",
                     write_scenario(tmp_path, sim_text, "sim.ini"),
                     "--out", str(out)]) == 0
        csv_path = out / "measured.csv"
        text = csv_path.read_text()
        # The header names the i_d column v_d as well, after the real one.
        csv_path.write_text(text.replace("v_q,i_d\n", "v_q,v_d\n", 1))
        fit_text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 0.02, 0, 0.01\n" + \
            "[identify]\nsource_csv = measured.csv\n"
        capsys.readouterr()
        rc = main(["identify", "--scenario",
                   write_scenario(tmp_path, fit_text, "fit.ini"),
                   "--out", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")
        assert "'v_d'" in err_lines[0]

    def test_insufficient_angle_coverage_is_input_error(self, tmp_path, capsys):
        text = MACHINE + """\
[operating_point]
omega_e = 300
i_q = 10

[sim]
dt = 1e-5
duration = 0.005

[imbalance]
family = resistance
d_r = 0.01, 0, 0
"""
        rc = main(["identify", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 3
        assert "period" in captured.err

    def test_repeated_source_rows_add_no_coverage(self, tmp_path, capsys):
        # 30 distinct angles over 1.5 periods, each row written 5 times.
        theta = np.repeat(np.linspace(0.0, 3.0 * np.pi, 30, endpoint=False),
                          5)
        out = tmp_path / "out"
        out.mkdir()
        rows = "".join(f"{th:.17g},0,0\n" for th in theta)
        (out / "measured.csv").write_text("theta,v_d,v_q\n" + rows)
        text = MACHINE + OP_SIM + \
            "[imbalance]\nfamily = resistance\nd_r = 0.01, 0, 0\n" + \
            "[identify]\nsource_csv = measured.csv\n"
        rc = main(["identify", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")
        assert "20.0 samples per period" in err_lines[0]


class TestExitCodes:
    def test_bad_machine_value_exits_2(self, tmp_path, capsys):
        text = MACHINE + "l_a = 0\n"
        rc = main(["coeffs", "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "machine.l_a" in captured.err
        assert "\n" not in captured.err.strip()

    def test_unknown_job_rejected(self, tmp_path):
        scenario = parse_scenario(write_scenario(tmp_path, MACHINE))
        with pytest.raises(ConfigError, match="unknown job 'fit'"):
            run_scenario(scenario, "fit", tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        rc = main(["coeffs", "--scenario", str(tmp_path / "absent.ini"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("default", ["[DEFAULT]\nbogus = 1\n",
                                         "[DEFAULT]\n"],
                             ids=["with-key", "empty"])
    def test_default_section_exits_2(self, tmp_path, capsys, default):
        # configparser would spread [DEFAULT] keys into every section.
        rc = main(["coeffs", "--scenario",
                   write_scenario(tmp_path, default + MACHINE),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: unknown section [DEFAULT]\n"

    @pytest.mark.parametrize("outputs, message", [
        ("csv = out.txt\nsummary = out.txt\n",
         "outputs: csv and summary name the same file"),
        ("csv = ./out.txt\nsummary = out.txt\n",
         "outputs: csv and summary name the same file"),
        ("summary = timeseries.csv\n",
         "outputs: csv and summary name the same file"),
        ("summary =\n", "outputs: summary must name a file"),
        ("csv =\n", "outputs: csv must name a file"),
        ("csv = a\0b.csv\n",
         "outputs.csv: a file name cannot hold a NUL byte"),
        ("summary = a\0b.txt\n",
         "outputs.summary: a file name cannot hold a NUL byte"),
        ("\n[identify]\nsource_csv = a\0b.csv\n",
         "identify.source_csv: a file name cannot hold a NUL byte"),
        ("csv = sub/\n", "outputs: csv 'sub/' names a directory"),
        ("csv = sub/.\n", "outputs: csv 'sub/.' names a directory"),
        ("summary = sub/\n", "outputs: summary 'sub/' names a directory"),
    ], ids=["same", "same-spelled-apart", "summary-default-csv",
            "empty-summary", "empty-csv", "nul-csv", "nul-summary",
            "nul-source-csv", "csv-trailing-slash", "csv-trailing-dot",
            "summary-trailing-slash"])
    @pytest.mark.parametrize("job", ["simulate", "compare"])
    def test_unusable_output_names_exit_2(self, tmp_path, capsys, outputs,
                                          message, job):
        # Once the summary overwrote the CSV, or the empty name failed as
        # a directory after the CSV was written; a NUL byte failed in
        # open() with a traceback; "sub/" wrote a file named sub.
        text = MACHINE + OP_SIM + "\n[outputs]\n" + outputs
        rc = main([job, "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    # Names that differ as text but reach one file: once the summary
    # overwrote the CSV and the job exited 0, printing both names.
    @pytest.mark.parametrize("spelling", ["dotdot", "absolute", "symlink"])
    @pytest.mark.parametrize("job", ["simulate", "compare"])
    def test_csv_spelling_the_summary_exits_2(self, tmp_path, capsys,
                                              spelling, job):
        out = tmp_path / "out"
        csv = {"dotdot": "../out/summary.txt",
               "absolute": str(out / "summary.txt"),
               "symlink": "link.csv"}[spelling]
        if spelling == "symlink":
            out.mkdir()
            (out / "link.csv").symlink_to("summary.txt")
        text = MACHINE + OP_SIM + f"\n[outputs]\ncsv = {csv}\n"
        rc = main([job, "--scenario", write_scenario(tmp_path, text),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: outputs: csv and summary name the same file\n")
        assert [path.name for path in out.glob("*")] == (
            ["link.csv"] if spelling == "symlink" else [])

    @pytest.mark.parametrize("job", cli._JOBS)
    def test_channel_the_mode_lacks_exits_2_at_parse_time(self, tmp_path,
                                                           capsys, job):
        # Once only simulate refused v_n in a current-fed scenario; the
        # other jobs ignored the list and exited 0.
        text = MACHINE + OP_SIM + "[outputs]\nchannels = i_d, v_n\n"
        rc = main([job, "--scenario", write_scenario(tmp_path, text),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            "error: outputs.channels: unknown channel 'v_n' (available: "
            "v_a, v_b, v_c, i_a, i_b, i_c, v_d, v_q, v_0, i_d, i_q, i_0, "
            "t_e)\n"))
        assert not (tmp_path / "out").exists()

    def test_console_entry_point(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(MACHINE)
        proc = subprocess.run(
            [sys.executable, "-m", "pmimb.cli", "coeffs",
             "--scenario", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "wrote" in proc.stdout
        assert (tmp_path / "out" / "summary.txt").exists()


SCENARIOS = sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.ini"))


def run_every_job(scenario, workdir, monkeypatch, capsys):
    """Exit code, stdout, stderr and artifact bytes of each job in turn.

    The jobs share one output directory, as a user running them in a
    row would; artifacts are read after each job, before the next
    overwrites them.
    """
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    seen = {}
    for job in ("coeffs", "simulate", "compare", "identify"):
        rc = main([job, "--scenario", str(scenario), "--out", "out"])
        captured = capsys.readouterr()
        seen[job] = (rc, captured.out, captured.err, {
            path.name: path.read_bytes()
            for path in sorted(Path("out").glob("*"))})
    return seen


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_channel_selection_leaves_every_artifact_unchanged(
        tmp_path, monkeypatch, capsys, scenario):
    # Jobs simulate only the channels they read; evaluating every channel,
    # then keeping the requested ones in the requested order, must give the
    # same bytes, messages and exit codes.
    shipped = run_every_job(scenario, tmp_path / "shipped", monkeypatch,
                            capsys)
    plan = cli._plan

    def every_channel_plan(scenario, channels):
        grid, names, _ = plan(scenario, channels)
        every = plan(scenario, None)[2]

        def run(index, channels=names):
            t, theta, values = every(index)
            return t, theta, {name: values[name] for name in channels}
        return grid, names, run
    monkeypatch.setattr(cli, "_plan", every_channel_plan)
    assert run_every_job(scenario, tmp_path / "full", monkeypatch,
                         capsys) == shipped


def full_grid_plan(plan):
    """``_plan`` whose evaluator evaluates every grid sample, a block at a
    time, then selects the range."""
    def make(scenario, channels):
        grid, names, evaluate = plan(scenario, channels)

        def run(index, channels=names):
            ts = refsim._blocked(grid, channels, lambda part: evaluate(
                part, channels))
            pick = slice(index.start, index.stop, index.step)
            return ts.t[pick], ts.theta[pick], {
                name: data[pick] for name, data in ts.channels.items()}
        return grid, names, run
    return make


def simulate_full(scenario, channels):
    """Every grid sample of ``channels`` (every channel for None), as the
    jobs' plan evaluates them."""
    return refsim._blocked(*cli._plan(scenario, channels))


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_sample_selection_leaves_every_artifact_unchanged(
        tmp_path, monkeypatch, capsys, scenario):
    # Jobs evaluate only the samples they read; evaluating the whole grid
    # and selecting afterwards must give the same bytes, messages and exit
    # codes.
    shipped = run_every_job(scenario, tmp_path / "shipped", monkeypatch,
                            capsys)
    monkeypatch.setattr(cli, "_plan", full_grid_plan(cli._plan))
    assert run_every_job(scenario, tmp_path / "full", monkeypatch,
                         capsys) == shipped


DRIVES = {
    "current-fed": "[operating_point]\nomega_e = 300\ni_d = -2\ni_q = 10\n",
    "voltage-fed": "[operating_point]\nomega_e = 300\nv_d = 0.5\n"
                   "v_q = 11.0\n",
}


# Grids of 2 and 3 samples, whose late half is 1 and 2 samples, and
# strides that write the first and last samples or the first alone.
@pytest.mark.parametrize("duration, stride, rows", [
    pytest.param(1e-5, 1, 2, id="n2"),
    pytest.param(2e-5, 1, 3, id="n3"),
    pytest.param(2e-5, 3, 1, id="n3-stride-n"),
    pytest.param(0.03, 3000, 2, id="stride-n-minus-1"),
    pytest.param(0.03, 3001, 1, id="stride-n"),
    pytest.param(0.03, 10**9, 1, id="stride-1e9"),
])
@pytest.mark.parametrize("channels", [None, ("i_q", "v_a")],
                         ids=["all", "two"])
@pytest.mark.parametrize("mode", DRIVES)
def test_simulate_selection_edges_match_the_full_run(
        tmp_path, mode, channels, duration, stride, rows):
    text = MACHINE + DRIVES[mode] + (
        f"\n[sim]\nmode = {mode}\ndt = 1e-5\nduration = {duration!r}\n"
        f"\n[outputs]\nstride = {stride}\n")
    if channels:
        text += f"channels = {', '.join(channels)}\n"
    scenario = parse_scenario(write_scenario(tmp_path, text))
    run_scenario(scenario, "simulate", tmp_path / "out")

    # The oracle evaluates every sample and channel, then selects the
    # channels in the order named, and the rows by the stride.
    full = simulate_full(scenario, None)
    n = full.t.size
    write_csv(strided(TimeSeries(full.t, full.theta, {
        name: full.channels[name] for name in (channels or full.channels)}),
        stride), tmp_path / "full.csv")
    csv_bytes = (tmp_path / "out" / "timeseries.csv").read_bytes()
    assert csv_bytes == (tmp_path / "full.csv").read_bytes()
    assert csv_bytes.count(b"\n") == 1 + rows
    summary = read_summary(tmp_path / "out" / "summary.txt")
    assert summary["simulate.samples"] == str(n)
    assert summary["simulate.t_end"] == repr(float(full.t[-1]))
    for name in ("i_d", "i_q", "t_e"):
        assert summary[f"simulate.mean_{name}"] == repr(
            float(np.mean(full.channels[name][n // 2:])))


# Blocks of 512 make the 3001-sample grid six blocks and its late half
# three. Each job makes one plan, which checks its drive and its step and
# does its setup once.
@pytest.mark.parametrize("job, mode", [
    ("compare", "current-fed"),
    ("simulate", "current-fed"),
    ("simulate", "voltage-fed"),
])
def test_a_job_makes_one_plan_however_many_blocks(tmp_path, monkeypatch,
                                                   job, mode):
    counts = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    for module, name in ((cli, "_plan"), (refsim, "_require_finite"),
                         (refsim, "_check_step"), (refsim, "_steady_phasor"),
                         (refsim, "_phase_basis")):
        count(module, name)
    monkeypatch.setattr(cli, "_BLOCK", 512)
    text = MACHINE + DRIVES[mode] + (
        f"\n[sim]\nmode = {mode}\ndt = 1e-5\nduration = 0.03\n"
        "\n[outputs]\nstride = 2\n")
    assert main([job, "--scenario", write_scenario(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 0
    # One basis an evaluation: compare's six blocks; simulate's 1501 rows
    # in blocks of 512, then the summary's three late blocks.
    bases = 6 if job == "compare" else 3 + 3
    setups = {"_steady_phasor": 1} if mode == "voltage-fed" else {}
    assert counts == {"_plan": 1, "_require_finite": 1, "_check_step": 1,
                      "_phase_basis": bases, **setups}


@pytest.mark.parametrize("job", ["simulate", "compare"])
def test_job_failing_at_a_block_leaves_the_previous_csv(
        tmp_path, monkeypatch, capsys, job):
    # Blocks of 512 make the 3001-sample grid six blocks, and the second
    # evaluation fails, after the first block's rows went to a temporary
    # file beside the CSV. That file is removed, so the CSV of the run
    # before, in the same --out, keeps its bytes.
    scenario = write_scenario(tmp_path, MACHINE + OP_SIM)
    out = tmp_path / "out"
    assert main([job, "--scenario", scenario, "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    plan, calls, during = cli._plan, [], []

    def failing_plan(scenario, channels):
        grid, names, evaluate = plan(scenario, channels)

        def run(index, channels=names):
            calls.append(index)
            if len(calls) == 2:
                during.extend(sorted(path.name for path in out.iterdir()))
                raise InputError("second block")
            return evaluate(index, channels)
        return grid, names, run
    monkeypatch.setattr(cli, "_plan", failing_plan)
    monkeypatch.setattr(cli, "_BLOCK", 512)
    capsys.readouterr()
    assert main([job, "--scenario", scenario, "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "error: second block\n")
    assert len(during) == 3 and during[1:] == ["summary.txt", "timeseries.csv"]
    assert during[0].startswith("pmimb-") and during[0].endswith(".tmp")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("job", ["simulate", "compare"])
def test_csv_name_near_name_max_is_written(tmp_path, capsys, job):
    # The temporary file was once the CSV's name plus 17 bytes, so a name
    # of 239 to 255 bytes failed in open(): File name too long (exit 3).
    written = {}
    for name in ("timeseries.csv", "c" * 250 + ".csv"):
        out = tmp_path / str(len(name))
        text = MACHINE + OP_SIM + f"[outputs]\ncsv = {name}\n"
        assert main([job, "--scenario", write_scenario(tmp_path, text),
                     "--out", str(out)]) == 0
        assert {path.name for path in out.iterdir()} == {name, "summary.txt"}
        written[name] = (out / name).read_bytes()
    assert capsys.readouterr().err == ""
    assert written["c" * 250 + ".csv"] == written["timeseries.csv"]


def test_csv_open_error_names_the_csv(tmp_path, capsys, monkeypatch):
    # The temporary file's name is random; a failed open names the CSV,
    # so the error line is the same every run.
    def refuse(name, mode):
        raise PermissionError(13, "Permission denied", name)
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario",
                 write_scenario(tmp_path, MACHINE + OP_SIM),
                 "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "error: [Errno 13] Permission denied: "
                                   f"{str(out / 'timeseries.csv')!r}\n")
    assert not out.exists()


def test_source_csv_that_grows_while_read_exits_3(tmp_path, capsys,
                                                 monkeypatch):
    # read_csv counts the line ends, then parses into an array of that
    # many rows and one more; two rows appended between the passes are
    # refused, not written past the array's end.
    out = tmp_path / "out"
    out.mkdir()
    source = out / "measured.csv"
    source.write_bytes(b"t,theta,v_d,v_q\n0,0,1,2\n1,3,1,2\n")
    blocks, counted = cli._blocks, []

    def growing(handle, pos):
        yield from blocks(handle, pos)
        if not counted:  # the counting pass is over
            counted.append(pos)
            with open(source, "ab") as grown:
                grown.write(b"2,6,1,2\n3,9,1,2\n")
    monkeypatch.setattr(cli, "_blocks", growing)
    text = MACHINE + OP_SIM + (
        "[imbalance]\nfamily = resistance\nd_r = 0.01, 0, 0\n"
        "[identify]\nsource_csv = measured.csv\n")
    assert main(["identify", "--scenario", write_scenario(tmp_path, text),
                 "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "", f"error: {source}: the file grew while it was read\n")
    assert counted and source.read_bytes().count(b"\n") == 5


@pytest.mark.parametrize("stride", [1, 7, 3001])
@pytest.mark.parametrize("job", ["simulate", "compare"])
def test_csv_time_is_the_kept_index_times_dt(tmp_path, monkeypatch, job,
                                             stride):
    # The jobs write rows as they evaluate them, and no TimeSeries checks
    # the time base: across blocks of 512, each row's t is its grid index
    # times dt, bit for bit, at every stride-th index.
    monkeypatch.setattr(cli, "_BLOCK", 512)
    text = MACHINE + OP_SIM + f"[outputs]\nstride = {stride}\n"
    run_scenario(parse_scenario(write_scenario(tmp_path, text)), job,
                 tmp_path / "out")
    t = read_csv(tmp_path / "out" / "timeseries.csv")["t"]
    assert np.array_equal(t, np.arange(0, 3001, stride) * 1e-5)


@pytest.mark.parametrize("base, outputs", [
    ("resistance_compare.ini", None),
    ("voltage_fed_sim.ini", None),
    ("voltage_fed_sim.ini", "channels = i_a, i_b, i_0, i_d, i_q\n"
                            "stride = 20\n"),
], ids=["every-channel", "voltage-fed-sim", "ripple-study"])
def test_simulate_evaluates_each_channel_where_it_is_read(
        tmp_path, monkeypatch, base, outputs):
    # The CSV's channels at its rows, the summary's over the late half,
    # and at stride 1 a channel that feeds both once a sample.
    counts, plan = {}, cli._plan

    def counted_plan(scenario, channels):
        grid, names, evaluate = plan(scenario, channels)

        def run(index, channels=names):
            for name in channels:
                counts[name] = counts.get(name, 0) + len(index)
            return evaluate(index, channels)
        return grid, names, run
    monkeypatch.setattr(cli, "_plan", counted_plan)
    text = SCENARIOS[base]
    if outputs is not None:
        text = text[:text.index("[outputs]")] + "[outputs]\n" + outputs
    scenario = parse_scenario(write_scenario(tmp_path, text))
    csv = run_scenario(scenario, "simulate", tmp_path / "out")[0]
    n = refsim._grid_size(scenario.sim)
    rows = len(range(0, n, scenario.stride))
    expected = dict.fromkeys(list(read_csv(csv))[2:], rows)
    for name in ("i_d", "i_q", "t_e"):
        expected[name] = (n if scenario.stride == 1 and name in expected
                          else expected.get(name, 0) + n - n // 2)
    assert counts == expected


def block_fold_mean(values):
    """The mean of ``values`` summed a block of ``_BLOCK`` at a time: each
    block by np.sum, then the block sums by np.sum."""
    return np.sum([np.sum(values[start:start + _BLOCK])
                   for start in range(0, values.size, _BLOCK)]) / values.size


# Late halves of one sample, one block, one block and a lone sample, and
# three blocks and a part of one.
@pytest.mark.parametrize("late", [1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7],
                         ids=["one", "block", "block-and-one", "three-blocks"])
@pytest.mark.parametrize("outputs", [
    "channels = t_e, i_q, i_d\n", "channels = i_q, v_a\nstride = 7\n",
], ids=["stride-1", "strided-two"])
@pytest.mark.parametrize("mode", DRIVES)
def test_simulate_means_are_the_block_fold_of_the_late_half(
        tmp_path, mode, outputs, late):
    # Whether or not the late half's evaluations also give the CSV's rows,
    # the job folds the same blocks of the same bits.
    n = 2 * late
    text = MACHINE + DRIVES[mode] + (
        f"\n[sim]\nmode = {mode}\ndt = 1e-5\nduration = {(n - 1) * 1e-5!r}\n"
        f"\n[outputs]\n{outputs}")
    scenario = parse_scenario(write_scenario(tmp_path, text))
    summary = read_summary(run_scenario(scenario, "simulate",
                                        tmp_path / "out")[-1])
    full = simulate_full(scenario, ("i_d", "i_q", "t_e"))
    assert summary["simulate.samples"] == str(full.t.size) == str(n)
    assert summary["simulate.t_end"] == repr(float(full.t[-1]))
    for name in ("i_d", "i_q", "t_e"):
        values = full.channels[name][n // 2:]
        assert values.size == late
        assert summary[f"simulate.mean_{name}"] == repr(
            float(block_fold_mean(values)))
        if late <= _BLOCK:
            assert summary[f"simulate.mean_{name}"] == repr(
                float(np.mean(values)))


CORRUPT_CELLS = ("", "x", "nan", "inf", "1e", "--1")
SOURCE_HEADER = "t,theta,v_d,v_q,i_d\n"
SOURCE_SCENARIO = MACHINE + """\
[operating_point]
omega_e = 300
i_d = -2
i_q = 10

[sim]
dt = 1e-4
duration = 0.03

[imbalance]
family = resistance
d_r = 0.02, 0, 0.01

[outputs]
csv = source.csv
channels = v_d, v_q, i_d

[identify]
source_csv = source.csv
"""


@pytest.fixture(scope="module")
def identify_source(tmp_path_factory):
    """A small valid simulate CSV, the directory and the identify scenario."""
    root = tmp_path_factory.mktemp("corrupt")
    scenario = root / "scenario.ini"
    scenario.write_text(SOURCE_SCENARIO)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(root)]) == 0
    text = (root / "source.csv").read_text()
    assert text.startswith(SOURCE_HEADER)
    return root, scenario, text


def corrupt(text, kind, a, b, cell):
    """Apply one mutation to CSV text; a and b pick the place."""
    if kind == "truncate":
        return text[:a % (len(text) + 1)]
    lines = text.splitlines(keepends=True)
    if kind == "delete":
        del lines[a % len(lines)]
        return "".join(lines)
    if kind == "cell":
        row = 1 + a % (len(lines) - 1)
        cells = lines[row].rstrip("\n").split(",")
        cells[b % len(cells)] = cell
        lines[row] = ",".join(cells) + "\n"
        return "".join(lines)
    names = lines[0].rstrip("\n").split(",")
    target = a % len(names)
    if kind == "duplicate":
        other = b % len(names)
        if other == target:
            other = (target + 1) % len(names)
        names[target] = names[other]
    else:
        names[target] = ""
    lines[0] = ",".join(names) + "\n"
    return "".join(lines)


class TestCorruptedIdentifySource:
    @given(kind=st.sampled_from(("truncate", "delete", "cell", "duplicate",
                                 "blank")),
           a=st.integers(0, 10**6), b=st.integers(0, 10**6),
           cell=st.sampled_from(CORRUPT_CELLS))
    @example(kind="truncate", a=0, b=0, cell="")
    @example(kind="truncate", a=7, b=0, cell="")
    @example(kind="truncate", a=len(SOURCE_HEADER), b=0, cell="")
    @example(kind="delete", a=0, b=0, cell="")
    @example(kind="duplicate", a=4, b=2, cell="")
    def test_exit_0_or_one_error_line(self, identify_source, kind, a, b,
                                      cell):
        root, scenario, text = identify_source
        (root / "source.csv").write_text(corrupt(text, kind, a, b, cell))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(["identify", "--scenario", str(scenario),
                       "--out", str(root)])
        err_lines = err.getvalue().splitlines()
        assert rc in (0, 3)
        assert "Traceback" not in err.getvalue()
        # Outside pytest a numpy warning would be a second stderr line.
        assert [str(w.message) for w in caught] == []
        if rc == 3:
            assert len(err_lines) == 1
            assert err_lines[0].startswith("error:")
        else:
            assert err_lines == []


SCENARIOS = {path.name: path.read_text() for path in sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.ini"))}

@pytest.mark.parametrize("family", [*_FAMILIES, "combined"])
def test_each_family_has_a_compare_scenario_at_rounding_level(tmp_path,
                                                               family):
    # The overlay study: each family's closed form, and all of them
    # composed, lies on the simulated voltages to rounding.
    name = f"{family}_compare.ini"
    assert name in SCENARIOS
    scenario = tmp_path / name
    scenario.write_text(SCENARIOS[name])
    assert parse_scenario(scenario).family == family
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compare", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 0
    summary = read_summary(tmp_path / "out" / "summary.txt")
    for axis in ("v_d", "v_q"):
        assert float(summary[f"compare.{axis}.relative_rms"]) < 1e-12


# Replacement values for one scenario entry. Every file that sets a
# current-fed duration has dt = 1e-5 s, so the largest run they allow is
# duration = 1: 100k samples. compare refuses voltage_fed_sim.ini's
# voltage-fed mode before it simulates.
SCENARIO_TOKENS = ("", "x", "nan", "inf", "-1", "0", "1", "1e", "5%",
                   "5e-324", "1e300")


def mutate_scenario(text, kind, a, b, token):
    """Delete a line, repeat a key line, or set one value entry to token."""
    lines = text.splitlines(keepends=True)
    if kind == "delete":
        del lines[a % len(lines)]
        return "".join(lines)
    keyed = [idx for idx, line in enumerate(lines)
             if "=" in line and not line.startswith("#")]
    row = keyed[a % len(keyed)]
    if kind == "repeat":
        lines.insert(row + 1, lines[row])
        return "".join(lines)
    key, _, value = lines[row].partition("=")
    entries = value.rstrip("\n").split(",")
    entries[b % len(entries)] = " " + token
    lines[row] = key + "=" + ",".join(entries) + "\n"
    return "".join(lines)


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenario-text")


class TestCorruptedScenarioText:
    # Keyed lines of combined_compare.ini: 13 is sim.dt, 14 sim.duration,
    # 5 imbalance.family, 6 imbalance.d_r. Of voltage_fed_sim.ini: keyed
    # 8 is v_d and 10 sim.mode; lines 18 and 21 hold v_q and sim.mode.
    @given(base=st.sampled_from(sorted(SCENARIOS)),
           kind=st.sampled_from(("token", "delete", "repeat")),
           a=st.integers(0, 10**6), b=st.integers(0, 10**6),
           token=st.sampled_from(SCENARIO_TOKENS))
    @example(base="combined_compare.ini", kind="token", a=14, b=0, token="1")
    @example(base="combined_compare.ini", kind="token", a=13, b=0, token="1")
    @example(base="combined_compare.ini", kind="token", a=6, b=2, token="5%")
    @example(base="combined_compare.ini", kind="repeat", a=5, b=0, token="")
    @example(base="combined_compare.ini", kind="delete", a=3, b=0, token="")
    @example(base="voltage_fed_sim.ini", kind="token", a=8, b=0, token="nan")
    @example(base="voltage_fed_sim.ini", kind="token", a=10, b=0, token="x")
    @example(base="voltage_fed_sim.ini", kind="delete", a=18, b=0, token="")
    @example(base="voltage_fed_sim.ini", kind="delete", a=21, b=0, token="")
    def test_exit_0_2_or_3_with_one_error_line(self, scenario_dir, base,
                                               kind, a, b, token):
        scenario = scenario_dir / "scenario.ini"
        scenario.write_text(
            mutate_scenario(SCENARIOS[base], kind, a, b, token))
        for job in ("coeffs", "compare"):
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                rc = main([job, "--scenario", str(scenario),
                           "--out", str(scenario_dir / job)])
            assert rc in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            assert [str(w.message) for w in caught] == []
            err_lines = err.getvalue().splitlines()
            errors = [line for line in err_lines
                      if line.startswith("error:")]
            # The only other stderr lines are ignored-section notices.
            assert all(line.startswith("warning: section [")
                       for line in err_lines if line not in errors)
            assert len(errors) == (0 if rc == 0 else 1)


def set_key(text, key, value):
    """The scenario text with the value of ``key`` replaced; a dotted
    ``section.key`` is appended in a new section instead."""
    if "." in key:
        section, _, key = key.partition(".")
        return f"{text}\n[{section}]\n{key} = {value}\n"
    lines = text.splitlines(keepends=True)
    row = next(idx for idx, line in enumerate(lines)
               if line.partition("=")[0].strip() == key)
    lines[row] = f"{key} = {value}\n"
    return "".join(lines)


# A source_csv whose header holds a byte that is not UTF-8; only the case
# that adds [identify] source_csv reads it. "\udcff" in a value is written
# as the byte 0xff.
UNDECODABLE_SOURCE = b"t,theta,v_d,v_q\xff\n0,0,0,0\n"


# Single-value edits that once ended in a traceback or in non-finite
# results after numpy warnings: a sample grid numpy cannot build (exit 2
# from every job that simulates), a scenario file that is not UTF-8 (exit
# 2), a pole_pairs beyond float range (exit 2 from every job; coeffs
# exited 0), a source_csv that is not UTF-8, an identify fit whose
# residuals overflow, a voltage-fed winding system that is singular in
# floating point, and simulations or comparisons that overflow (exit 3).
@pytest.mark.parametrize("base, key, value, job, rc", [
    *(pytest.param("resistance_compare.ini", "pole_pairs", "1" + "0" * 400,
                   job, 2, id=f"pole_pairs=1e400-{job}")
      for job in ("coeffs", "simulate", "compare", "identify")),
    *(("identify_flux.ini", key, value, job, 2)
      for key, value in (("dt", "5e-324"), ("dt", "1e-300"),
                         ("duration", "1e300"))
      for job in ("simulate", "compare", "identify")),
    *(("identify_flux.ini", key, value, "identify", 3)
      for key, value in (("r", "1e300"), ("l", "1e300"), ("lam", "1e300"),
                         ("d_lam", "1e300, 0, 1.5%"), ("i_d", "1e300"),
                         ("i_q", "1e300"))),
    ("resistance_compare.ini", "r", "1e300", "identify", 3),
    ("resistance_compare.ini", "i_q", "1e300", "identify", 3),
    ("identify_flux.ini", "lam", "0.05 \udcff", "coeffs", 2),
    ("identify_flux.ini", "identify.source_csv", "../source.csv",
     "identify", 3),
    *(("voltage_fed_sim.ini", key, value, "simulate", 3)
      for key, value in (("d_r", "5%, 0, 1e300"), ("d_r", "1e300, 0, 0"),
                         ("lam", "1e300"))),
    ("resistance_compare.ini", "r", "1e300", "compare", 3),
    ("resistance_compare.ini", "i_q", "1e300", "compare", 3),
])
def test_former_crash_exits_with_one_error_line(tmp_path, base, key, value,
                                                job, rc):
    scenario = tmp_path / "scenario.ini"
    scenario.write_bytes(set_key(SCENARIOS[base], key, value).encode(
        "utf-8", "surrogateescape"))
    (tmp_path / "source.csv").write_bytes(UNDECODABLE_SOURCE)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        assert main([job, "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == rc
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    if "\udcff" in value:
        assert lines[0].startswith("error: cannot read scenario file: ")
    elif key == "identify.source_csv":
        assert lines[0].startswith(f"error: {tmp_path / 'out' / value}: ")
    elif key == "pole_pairs":
        assert lines[0] == ("error: machine: pole_pairs must be at most the "
                            "largest float")
    else:
        assert lines[0].startswith("error: sim: " if rc == 2 else "error: ")
    # No artifact, so no CSV of NaN rows, and no output directory.
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("job", ["simulate", "compare"])
def test_grid_past_2_32_samples_is_refused(tmp_path, capsys, monkeypatch,
                                           job):
    # 2**52 samples pass the 2**53 refusal, and a job that streams its
    # blocks would walk them for years; the plan is never made.
    monkeypatch.setattr(cli, "_current_fed_plan", None)
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(MACHINE + OP_SIM.replace(
        "dt = 1e-5\nduration = 0.03", f"dt = 1\nduration = {2**52 - 1}"))
    assert main([job, "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: sim: duration / dt gives 4503599627370496 grid samples, "
        "more than 2**32\n")
    assert not (tmp_path / "out").exists()


def test_grid_of_2_32_samples_is_planned(tmp_path, monkeypatch):
    # The bound's own count passes it; the stand-in plan ends the job.
    def plan(*args):
        raise InputError("planned")
    monkeypatch.setattr(cli, "_current_fed_plan", plan)
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(MACHINE + OP_SIM.replace(
        "dt = 1e-5\nduration = 0.03", f"dt = 1\nduration = {2**32 - 1}"))
    with pytest.raises(InputError, match="^planned$"):
        run_scenario(parse_scenario(scenario), "simulate", tmp_path / "out")


@pytest.mark.parametrize("job", ["simulate", "compare", "identify"])
def test_failed_allocation_is_out_of_memory(tmp_path, capsys, monkeypatch,
                                            job):
    # An allocation that fails mid-job exits 3 with one line, and leaves
    # no artifact and no output directory.
    plan = cli._plan

    def starved_plan(scenario, channels):
        grid, names, _ = plan(scenario, channels)

        def evaluate(index, channels=names):
            raise MemoryError(f"{len(index)} samples")
        return grid, names, evaluate
    monkeypatch.setattr(cli, "_plan", starved_plan)
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(SCENARIOS["identify_flux.ini"])
    assert main([job, "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_grid_past_2_53_samples_is_refused(tmp_path, capsys, monkeypatch):
    # Every 1e17th sample is a CSV of 2 rows, and the summary's late half
    # is folded a block at a time, so nothing else would stop the run
    # before it was killed; past 2**53 samples, i * dt repeats times.
    monkeypatch.setattr(cli, "_plan", None)
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(MACHINE + "[sim]\ndt = 1\nduration = 1e17\n"
                        "[outputs]\nstride = 100000000000000000\n")
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: sim: duration / dt gives 100000000000000001 grid samples, "
        "more than 2**53\n")
    assert not (tmp_path / "out").exists()


# Finite deviations whose sum or spread leaves the float range. Python
# floats hide the overflow from np.errstate: a spread ended in a
# ValueError traceback (exit 1), a sum alone in "s: inf" (exit 0).
@pytest.mark.parametrize("value", ["0, 1e308, 1e308", "1e308, 1e308, 0"],
                         ids=["spread", "sum"])
@pytest.mark.parametrize("key, family", [
    ("d_r", "resistance"), ("d_lam", "flux"), ("d_l", "inductance")])
def test_coefficient_overflow_exits_3(tmp_path, capsys, key, family, value):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(set_key(SCENARIOS["coeffs.ini"], key, value))
    assert main(["coeffs", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr() == ("", f"error: {family} coefficients "
                                   "overflow: the deviations are too large\n")
    assert not (tmp_path / "out").exists()


# A failed job once left its --out directory behind, empty: a job
# refused for its drive mode (exit 2) and a coefficient overflow (exit 3).
@pytest.mark.parametrize("base, d_r, job, rc", [
    pytest.param("voltage_fed_sim.ini", None, "compare", 2, id="exit-2"),
    pytest.param("coeffs.ini", "0, 1e308, 1e308", "coeffs", 3, id="exit-3"),
])
def test_failed_job_removes_only_the_directories_it_made(
        tmp_path, capsys, base, d_r, job, rc):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(SCENARIOS[base] if d_r is None
                        else set_key(SCENARIOS[base], "d_r", d_r))
    (tmp_path / "kept" / "out").mkdir(parents=True)
    (tmp_path / "kept" / "out" / "earlier.txt").write_text("kept")
    for out in ("a/b/c", "kept/d/e", "kept/out"):
        assert main([job, "--scenario", str(scenario),
                     "--out", str(tmp_path / out)]) == rc
        assert capsys.readouterr().err.count("\n") == 1
    assert sorted(path.relative_to(tmp_path).as_posix()
                  for path in tmp_path.rglob("*")) == [
        "kept", "kept/out", "kept/out/earlier.txt", "scenario.ini"]


# An output name that resolves to a directory once failed in open() after
# the job had run, leaving a CSV without its summary (exit 3).
@pytest.mark.parametrize("name", [".", "..", "sub", "sub/..", "../.."])
@pytest.mark.parametrize("key", ["csv", "summary"])
@pytest.mark.parametrize("job", ["simulate", "compare"])
def test_output_naming_a_directory_exits_2_before_the_job(
        tmp_path, capsys, monkeypatch, job, key, name):
    monkeypatch.setattr(cli, "_plan", None)
    out = tmp_path / "out"
    if name == "sub":
        (out / "sub").mkdir(parents=True)
    text = MACHINE + OP_SIM + f"\n[outputs]\n{key} = {name}\n"
    rc = main([job, "--scenario", write_scenario(tmp_path, text),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: outputs: {key} {name!r} names a directory\n")
    assert sorted(path.name for path in tmp_path.rglob("*")) == (
        ["out", "scenario.ini", "sub"] if name == "sub"
        else ["scenario.ini"])


# A csv or summary in a missing directory once failed in open() after the
# job had written its other file: compare left its CSV without a summary.
@pytest.mark.parametrize("key", ["csv", "summary"])
@pytest.mark.parametrize("job", ["simulate", "compare"])
def test_output_in_a_missing_directory_exits_2_before_the_job(
        tmp_path, capsys, monkeypatch, job, key):
    monkeypatch.setattr(cli, "_plan", None)
    name = "nosuch/deeper/out.txt"
    text = MACHINE + OP_SIM + f"\n[outputs]\n{key} = {name}\n"
    rc = main([job, "--scenario", write_scenario(tmp_path, text),
               "--out", str(tmp_path / "a" / "b")])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: outputs: {key} {name!r} has no directory\n")
    assert [path.name for path in tmp_path.rglob("*")] == ["scenario.ini"]


def test_numeric_overflow_is_named(tmp_path, capsys):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(set_key(SCENARIOS["resistance_compare.ini"], "r",
                                "1e300"))
    assert main(["compare", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "error: numeric fault: overflow encountered in square\n")
