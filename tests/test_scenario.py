import pytest

from pmimb import ConfigError, parse_scenario, scenario

MACHINE = """\
[machine]
pole_pairs = 3
r = 0.1
l = 2e-4
m = 2e-5
lam = 0.05
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def deviation(sc, key):
    """Parsed deviation triple, read back from the resolved echo."""
    raw = dict(sc.resolved)[f"imbalance.{key}"]
    return tuple(float(v) for v in raw.split(","))


class TestMachineSection:
    def test_minimal_scenario_resolves_defaults(self, tmp_path):
        sc = parse_scenario(write(tmp_path, MACHINE))
        assert sc.machine.r_a == sc.machine.r_b == sc.machine.r_c == 0.1
        assert sc.machine.pole_pairs == 3
        assert sc.family == "none"
        assert deviation(sc, "d_r") == (0.0, 0.0, 0.0)
        assert sc.omega_e == 0.0 and sc.i_d == 0.0
        assert sc.v_d is None and sc.v_q is None
        assert sc.sim.dt == 1e-6
        assert sc.sim.duration == 0.05
        assert sc.mode == "current-fed"
        assert sc.csv_name == "timeseries.csv"
        assert sc.summary_name == "summary.txt"
        assert sc.channels is None
        assert sc.stride == 1
        assert sc.identify_source is None
        assert sc.sections == ("machine",)

    def test_per_phase_override_beats_nominal(self, tmp_path):
        text = MACHINE + "r_a = 0.12\n"
        sc = parse_scenario(write(tmp_path, text))
        assert sc.machine.r_a == 0.12
        assert sc.machine.r_b == 0.1 and sc.machine.r_c == 0.1

    def test_fully_explicit_phase_values(self, tmp_path):
        text = """\
[machine]
pole_pairs = 2
r_a = 0.1
r_b = 0.11
r_c = 0.12
l = 2e-4
m = 2e-5
lam = 0.05
"""
        sc = parse_scenario(write(tmp_path, text))
        assert (sc.machine.r_a, sc.machine.r_b, sc.machine.r_c) == (0.1, 0.11, 0.12)

    def test_missing_pole_pairs(self, tmp_path):
        text = MACHINE.replace("pole_pairs = 3\n", "")
        with pytest.raises(ConfigError, match="machine.pole_pairs"):
            parse_scenario(write(tmp_path, text))

    def test_missing_value_names_first_absent_key(self, tmp_path):
        text = MACHINE.replace("l = 2e-4\n", "")
        with pytest.raises(ConfigError, match="machine.l_a"):
            parse_scenario(write(tmp_path, text))

    def test_nonpositive_inductance_names_key(self, tmp_path):
        text = MACHINE + "l_a = 0\n"
        with pytest.raises(ConfigError, match="machine.l_a: must be positive"):
            parse_scenario(write(tmp_path, text))

    def test_negative_flux_names_key(self, tmp_path):
        text = MACHINE + "lam_b = -0.01\n"
        with pytest.raises(ConfigError, match="machine.lam_b"):
            parse_scenario(write(tmp_path, text))

    def test_non_numeric_value(self, tmp_path):
        text = MACHINE.replace("r = 0.1", "r = ten")
        with pytest.raises(ConfigError, match="machine.r"):
            parse_scenario(write(tmp_path, text))

    def test_indefinite_matrix_reported_as_machine_error(self, tmp_path):
        text = MACHINE.replace("m = 2e-5", "m = 1.5e-4")
        with pytest.raises(ConfigError, match="machine"):
            parse_scenario(write(tmp_path, text))

    def test_unknown_machine_key(self, tmp_path):
        text = MACHINE + "poles = 6\n"
        with pytest.raises(ConfigError, match="machine.poles: unknown key"):
            parse_scenario(write(tmp_path, text))


class TestImbalanceSection:
    def test_percent_deviation_resolves_against_nominal(self, tmp_path):
        text = MACHINE + "[imbalance]\nfamily = resistance\nd_r = 5%, 0, 0\n"
        sc = parse_scenario(write(tmp_path, text))
        assert sc.family == "resistance"
        assert deviation(sc, "d_r") == pytest.approx((0.005, 0.0, 0.0),
                                                     rel=1e-12)
        assert sc.machine.r_a == pytest.approx(0.105, rel=1e-12)
        assert sc.machine.r_b == 0.1

    def test_absolute_deviation(self, tmp_path):
        text = MACHINE + "[imbalance]\nfamily = flux\nd_lam = 0.002, 0, 0.001\n"
        sc = parse_scenario(write(tmp_path, text))
        assert deviation(sc, "d_lam") == (0.002, 0.0, 0.001)
        assert sc.machine.lam_a == pytest.approx(0.052)

    def test_percent_needs_nominal(self, tmp_path):
        text = """\
[machine]
pole_pairs = 3
r_a = 0.1
r_b = 0.1
r_c = 0.1
l = 2e-4
m = 2e-5
lam = 0.05

[imbalance]
family = resistance
d_r = 5%, 0, 0
"""
        with pytest.raises(ConfigError, match="machine.r"):
            parse_scenario(write(tmp_path, text))

    def test_family_gates_deviation_keys(self, tmp_path):
        text = MACHINE + "[imbalance]\nfamily = resistance\nd_lam = 0.001, 0, 0\n"
        with pytest.raises(ConfigError, match="d_lam.*not allowed"):
            parse_scenario(write(tmp_path, text))

    def test_family_none_rejects_deviations(self, tmp_path):
        text = MACHINE + "[imbalance]\nd_r = 0.01, 0, 0\n"
        with pytest.raises(ConfigError, match="d_r"):
            parse_scenario(write(tmp_path, text))

    def test_combined_family_allows_all(self, tmp_path):
        text = MACHINE + """\
[imbalance]
family = combined
d_r = 1%, 0, 0
d_l = 0, 1e-5, 0
d_m = 0, 0, 1e-6
d_lam = 2%, 0, 0
"""
        sc = parse_scenario(write(tmp_path, text))
        assert deviation(sc, "d_r") == pytest.approx((0.001, 0.0, 0.0),
                                                     rel=1e-12)
        assert deviation(sc, "d_l") == (0.0, 1e-5, 0.0)
        assert deviation(sc, "d_m") == (0.0, 0.0, 1e-6)
        assert deviation(sc, "d_lam") == pytest.approx((0.001, 0.0, 0.0),
                                                       rel=1e-12)

    def test_unknown_family(self, tmp_path):
        text = MACHINE + "[imbalance]\nfamily = saliency\n"
        with pytest.raises(ConfigError, match="imbalance.family"):
            parse_scenario(write(tmp_path, text))

    def test_wrong_arity_triple(self, tmp_path):
        text = MACHINE + "[imbalance]\nfamily = resistance\nd_r = 0.01, 0\n"
        with pytest.raises(ConfigError, match="three comma-separated"):
            parse_scenario(write(tmp_path, text))

    def test_negative_deviation_rejected(self, tmp_path):
        text = MACHINE + "[imbalance]\nfamily = resistance\nd_r = -0.01, 0, 0\n"
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_scenario(write(tmp_path, text))


class TestOperatingPointAndSim:
    def test_operating_point_values(self, tmp_path):
        text = MACHINE + """\
[operating_point]
omega_e = 314.159
i_d = -2
i_q = 10
"""
        sc = parse_scenario(write(tmp_path, text))
        assert sc.omega_e == 314.159
        assert (sc.i_d, sc.i_q, sc.i_0) == (-2.0, 10.0, 0.0)

    def test_present_section_requires_omega(self, tmp_path):
        text = MACHINE + "[operating_point]\ni_q = 5\n"
        with pytest.raises(ConfigError, match="operating_point.omega_e"):
            parse_scenario(write(tmp_path, text))

    def test_sim_overrides(self, tmp_path):
        text = MACHINE + "[sim]\ndt = 2e-6\nduration = 0.1\n"
        sc = parse_scenario(write(tmp_path, text))
        assert sc.sim.dt == 2e-6
        assert sc.sim.duration == 0.1

    def test_bad_sim_values_rejected(self, tmp_path):
        text = MACHINE + "[sim]\ndt = -1e-6\n"
        with pytest.raises(ConfigError, match="sim"):
            parse_scenario(write(tmp_path, text))

    def test_rejects_unknown_mode(self, tmp_path):
        text = MACHINE + "[sim]\nmode = torque-fed\n"
        with pytest.raises(ConfigError, match=r"^sim: mode must be one of "
                           r"\('current-fed', 'voltage-fed'\)$"):
            parse_scenario(write(tmp_path, text))

    def test_voltage_fed_requires_voltage_command(self, tmp_path):
        text = MACHINE + """\
[operating_point]
omega_e = 300

[sim]
mode = voltage-fed
"""
        with pytest.raises(ConfigError, match="v_d and operating_point.v_q"):
            parse_scenario(write(tmp_path, text))

    def test_voltage_fed_with_command(self, tmp_path):
        text = MACHINE + """\
[operating_point]
omega_e = 300
v_d = 0.5
v_q = 11.0

[sim]
mode = voltage-fed
"""
        sc = parse_scenario(write(tmp_path, text))
        assert sc.v_d == 0.5 and sc.v_q == 11.0
        assert sc.mode == "voltage-fed"


class TestOutputsAndIdentify:
    def test_channel_list_parsed(self, tmp_path):
        text = MACHINE + "[outputs]\nchannels = i_d, i_q,t_e\nstride = 10\n"
        sc = parse_scenario(write(tmp_path, text))
        assert sc.channels == ("i_d", "i_q", "t_e")
        assert sc.stride == 10

    def test_unknown_channel_rejected(self, tmp_path):
        text = MACHINE + "[outputs]\nchannels = i_d, flux_a\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(write(tmp_path, text))
        assert str(excinfo.value) == (
            "outputs.channels: unknown channel 'flux_a' (available: v_a, "
            "v_b, v_c, i_a, i_b, i_c, v_d, v_q, v_0, i_d, i_q, i_0, t_e, "
            "v_n)")

    def test_repeated_channel_rejected(self, tmp_path):
        text = MACHINE + "[outputs]\nchannels = v_d, v_d, i_a\n"
        with pytest.raises(ConfigError, match="^outputs.channels: channel "
                                              "'v_d' is listed twice$"):
            parse_scenario(write(tmp_path, text))

    def test_zero_stride_rejected(self, tmp_path):
        text = MACHINE + "[outputs]\nstride = 0\n"
        with pytest.raises(ConfigError, match="stride"):
            parse_scenario(write(tmp_path, text))

    def test_identify_source(self, tmp_path):
        text = MACHINE + "[identify]\nsource_csv = measured.csv\n"
        sc = parse_scenario(write(tmp_path, text))
        assert sc.identify_source == "measured.csv"

    def test_output_names(self, tmp_path):
        text = MACHINE + "[outputs]\ncsv = run.csv\nsummary = run.txt\n"
        sc = parse_scenario(write(tmp_path, text))
        assert sc.csv_name == "run.csv"
        assert sc.summary_name == "run.txt"


class TestFileLevelErrors:
    def test_unknown_section(self, tmp_path):
        text = MACHINE + "[controller]\nkp = 1\n"
        with pytest.raises(ConfigError, match=r"unknown section \[controller\]"):
            parse_scenario(write(tmp_path, text))

    def test_missing_machine_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[machine\]"):
            parse_scenario(write(tmp_path, "[sim]\ndt = 1e-6\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_scenario(tmp_path / "absent.ini")

    def test_malformed_file(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed"):
            parse_scenario(write(tmp_path, "pole_pairs = 3\n"))

    def test_resolved_echo_records_effective_values(self, tmp_path):
        text = MACHINE + "[imbalance]\nfamily = resistance\nd_r = 5%, 0, 0\n"
        sc = parse_scenario(write(tmp_path, text))
        resolved = dict(sc.resolved)
        assert resolved["machine.r_a"] == "0.1"
        assert resolved["imbalance.family"] == "resistance"
        assert resolved["sim.mode"] == "current-fed"
        assert resolved["imbalance.d_r"].startswith("0.005")

    def test_inline_comments_stripped(self, tmp_path):
        text = MACHINE.replace("r = 0.1", "r = 0.1  # nominal winding")
        sc = parse_scenario(write(tmp_path, text))
        assert sc.machine.r_a == 0.1


EVERY_KEY = """\
[machine]
pole_pairs = 3
r = 0.1
l = 2e-4
m = 2e-5
lam = 0.05
r_a = 0.12
r_b = 0.11
r_c = 0.1
l_a = 2.1e-4
l_b = 2e-4
l_c = 2.2e-4
m_ab = 2e-5
m_bc = 2.5e-5
m_ca = 2e-5
lam_a = 0.05
lam_b = 0.051
lam_c = 0.05

[imbalance]
family = combined
d_r = 1%, 0, 0.002
d_l = 0, 1e-5, 0
d_m = 0, 0, 1e-6
d_lam = 2%, 0, 0

[operating_point]
omega_e = 300
i_d = -2
i_q = 10
i_0 = 0.5
v_d = 0.5
v_q = 11

[sim]
dt = 1e-5
duration = 0.03
mode = voltage-fed

[outputs]
csv = run.csv
summary = run.txt
channels = i_d, i_q,t_e
stride = 4

[identify]
source_csv = measured.csv
"""


class TestResolvedEcho:
    # The echo is the tail of every summary.txt, so its order is part of
    # the artifact bytes.
    def test_every_key_echoed_in_fixed_order(self, tmp_path):
        sc = parse_scenario(write(tmp_path, EVERY_KEY))
        assert sc.resolved == (
            ("machine.r_a", "0.12"),
            ("machine.r_b", "0.11"),
            ("machine.r_c", "0.1"),
            ("machine.l_a", "0.00021"),
            ("machine.l_b", "0.0002"),
            ("machine.l_c", "0.00022"),
            ("machine.m_ab", "2e-05"),
            ("machine.m_bc", "2.5e-05"),
            ("machine.m_ca", "2e-05"),
            ("machine.lam_a", "0.05"),
            ("machine.lam_b", "0.051"),
            ("machine.lam_c", "0.05"),
            ("machine.pole_pairs", "3"),
            ("imbalance.family", "combined"),
            ("imbalance.d_r", "0.001, 0.0, 0.002"),
            ("imbalance.d_l", "0.0, 1e-05, 0.0"),
            ("imbalance.d_m", "0.0, 0.0, 1e-06"),
            ("imbalance.d_lam", "0.001, 0.0, 0.0"),
            ("operating_point.omega_e", "300.0"),
            ("operating_point.i_d", "-2.0"),
            ("operating_point.i_q", "10.0"),
            ("operating_point.i_0", "0.5"),
            ("operating_point.v_d", "0.5"),
            ("operating_point.v_q", "11.0"),
            ("sim.dt", "1e-05"),
            ("sim.duration", "0.03"),
            ("sim.mode", "voltage-fed"),
            ("outputs.csv", "run.csv"),
            ("outputs.summary", "run.txt"),
            ("outputs.channels", "i_d, i_q,t_e"),
            ("outputs.stride", "4"),
            ("identify.source_csv", "measured.csv"),
        )

    def test_documented_keys_are_the_schema(self):
        # The module docstring lists each section, then one row per key
        # group: the keys before the first run of two spaces, comma
        # separated. Continuation rows start further right.
        documented = {}
        for line in scenario.__doc__.splitlines():
            if not line.startswith("    ") or line[4:5] in ("", " "):
                continue
            head = line[4:].split("  ")[0]
            if head.startswith("["):
                section = documented.setdefault(head.strip("[]"), [])
            else:
                section += [key.strip() for key in head.split(",")]
        assert {name: sorted(keys) for name, keys in documented.items()} \
            == {name: sorted(keys) for name, keys in scenario._SCHEMA.items()}
