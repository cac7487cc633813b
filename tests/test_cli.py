import contextlib
import io
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from pmimb import ConfigError, InputError, TimeSeries, cli, parse_scenario
from pmimb.cli import (_BLOCK_ROWS, main, read_csv, run_scenario,
                       write_csv)
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
    def test_bytes_match_value_by_value_oracle(self, tmp_path, rows, stride):
        stride = rows + 1 if stride is None else stride
        ts = awkward_series(rows)
        path = tmp_path / "out.csv"
        write_csv(strided(ts, stride), path)
        assert path.read_bytes() == oracle_bytes(ts, None, stride)

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

    @pytest.mark.parametrize("body", ["0,2#junk\n1,3\n",
                                      "# note\n0,2\n1,3\n",
                                      "0,2\n#1,3\n"],
                             ids=["cell", "row", "commented-row"])
    def test_read_rejects_hash_instead_of_skipping_it(self, tmp_path, body):
        # loadtxt's default comments="#" once read 2#junk as 2 and
        # skipped a row starting with #.
        path = tmp_path / "bad.csv"
        path.write_text("t,theta\n" + body)
        with pytest.raises(InputError, match="could not convert string"):
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
        text = MACHINE + ("[sim]\ndt = 1\nduration = 1e17\n"
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
    simulate = cli._simulate

    def every_channel(scenario, channels, samples=slice(None)):
        ts = simulate(scenario, None, samples)
        return TimeSeries(ts.t, ts.theta, {
            name: ts.channels[name]
            for name in (ts.channels if channels is None else channels)})
    monkeypatch.setattr(cli, "_simulate", every_channel)
    assert run_every_job(scenario, tmp_path / "full", monkeypatch,
                         capsys) == shipped


def full_grid_then_slice(simulate):
    """``_simulate`` evaluating every grid sample, then selecting."""
    def run(scenario, channels, samples=slice(None)):
        ts = simulate(scenario, channels)
        return TimeSeries(ts.t[samples], ts.theta[samples], {
            name: data[samples] for name, data in ts.channels.items()})
    return run


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_sample_selection_leaves_every_artifact_unchanged(
        tmp_path, monkeypatch, capsys, scenario):
    # Jobs evaluate only the samples they read; evaluating the whole grid
    # and selecting afterwards must give the same bytes, messages and exit
    # codes.
    shipped = run_every_job(scenario, tmp_path / "shipped", monkeypatch,
                            capsys)
    monkeypatch.setattr(cli, "_simulate", full_grid_then_slice(cli._simulate))
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
    full = cli._simulate(scenario, None)
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


def test_unallocatable_grid_is_out_of_memory(tmp_path, capsys):
    # 1e17 samples pass the intp guard, but their 711 PiB exceed any
    # address space, so the allocation fails at once.
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(MACHINE + "[sim]\ndt = 1\nduration = 1e17\n")
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_unallocatable_grid_fails_before_a_tiny_csv_selection(tmp_path,
                                                               capsys):
    # Every 1e17th sample is a CSV of 2 rows; the summary's late half is
    # evaluated first, fails to allocate, and nothing is written.
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(MACHINE + "[sim]\ndt = 1\nduration = 1e17\n"
                        "[outputs]\nstride = 100000000000000000\n")
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("error: out of memory: ")
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
    monkeypatch.setattr(cli, "_simulate", None)
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
    monkeypatch.setattr(cli, "_simulate", None)
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
