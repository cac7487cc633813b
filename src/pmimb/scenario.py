"""Scenario files: declarative inputs for the command-line jobs.

Line-oriented ``key = value`` pairs in named sections. Keys are dotted
with their section in diagnostics (``machine.l_a``). Schema:

    [machine]            required
    pole_pairs           integer >= 1
    r, l, m, lam         nominal phase values (Ohm, H, H, Wb)
    r_a, r_b, r_c        optional absolute per-phase overrides
    l_a, l_b, l_c        likewise
    m_ab, m_bc, m_ca     likewise
    lam_a, lam_b, lam_c  likewise

    [imbalance]          optional; deviations added on top of [machine]
    family               none | resistance | flux | inductance | combined
    d_r, d_lam           triples "x, y, z"; entries may end in % of the
    d_l, d_m             nominal value of their family

    [operating_point]    required for simulate/compare/identify
    omega_e              electrical speed (rad/s)
    i_d, i_q, i_0        commanded currents (A), default 0
    v_d, v_q             commanded voltages (V), voltage-fed mode only

    [sim]                optional
    dt                   step (s), default 1e-6
    duration             simulated time (s), default 0.05
    mode                 current-fed (default) | voltage-fed

    [outputs]            optional
    csv                  time-series file name, default timeseries.csv
    summary              report file name, default summary.txt
    channels             comma list of channel names, default all
    stride               keep every n-th sample in the CSV, default 1

    [identify]           optional
    source_csv           fit waveforms from this file instead of simulating;
                         a relative path resolves against --out

Unknown sections or keys are errors, not warnings: scenarios are small
and a typo silently ignored would invalidate a study.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .errors import ConfigError
from .machine import MachineParameters
from .refsim import SimConfig

FAMILIES = ("none", "resistance", "flux", "inductance", "combined")

# Deviation keys each family may declare.
_FAMILY_KEYS = {
    "none": (),
    "resistance": ("d_r",),
    "flux": ("d_lam",),
    "inductance": ("d_l", "d_m"),
    "combined": ("d_r", "d_l", "d_m", "d_lam"),
}

_PHASE_KEYS = {
    "r": ("r_a", "r_b", "r_c"),
    "l": ("l_a", "l_b", "l_c"),
    "m": ("m_ab", "m_bc", "m_ca"),
    "lam": ("lam_a", "lam_b", "lam_c"),
}

KNOWN_CHANNELS = ("v_a", "v_b", "v_c", "i_a", "i_b", "i_c",
                  "v_d", "v_q", "v_0", "i_d", "i_q", "i_0", "t_e", "v_n")


@dataclass(frozen=True)
class Scenario:
    """Fully validated and default-resolved job description."""

    machine: MachineParameters
    family: str
    omega_e: float
    i_d: float
    i_q: float
    i_0: float
    v_d: float | None
    v_q: float | None
    sim: SimConfig
    csv_name: str
    summary_name: str
    channels: tuple[str, ...] | None
    stride: int
    identify_source: str | None
    sections: tuple[str, ...]
    resolved: tuple[tuple[str, str], ...]


def _float(raw, key):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: {raw!r} is not a number") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigError(f"{key}: must be finite")
    return value


def _int(raw, key):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: {raw!r} is not an integer") from None


def _deviation_triple(raw, key, nominal, nominal_key):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected three comma-separated values")
    values = []
    for part in parts:
        if part.endswith("%"):
            if nominal is None:
                raise ConfigError(
                    f"{key}: percentage deviation needs machine.{nominal_key}"
                )
            values.append(_float(part[:-1], key) / 100.0 * nominal)
        else:
            values.append(_float(part, key))
    if any(v < 0.0 for v in values):
        raise ConfigError(f"{key}: deviations must be nonnegative")
    return tuple(values)


def _section(parser, name):
    return dict(parser[name]) if parser.has_section(name) else {}


def _take(section, key, default=None):
    return section.pop(key, default)


def _reject_unknown(section, sect_name):
    if section:
        key = next(iter(section))
        raise ConfigError(f"{sect_name}.{key}: unknown key")


def parse_scenario(path) -> Scenario:
    """Read, validate and default-resolve a scenario file."""
    parser = configparser.ConfigParser(
        interpolation=None,
        inline_comment_prefixes=("#", ";"),
        delimiters=("=",),
    )
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from None
    except configparser.Error as exc:
        # Some parser messages span lines; the CLI reports one line.
        detail = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"malformed scenario file: {detail}") from None

    known_sections = ("machine", "imbalance", "operating_point", "sim",
                      "outputs", "identify")
    for name in parser.sections():
        if name not in known_sections:
            raise ConfigError(f"unknown section [{name}]")
    if not parser.has_section("machine"):
        raise ConfigError("missing required section [machine]")

    resolved: list[tuple[str, str]] = []

    def note(key, value):
        resolved.append((key, str(value)))

    # --- machine -----------------------------------------------------
    machine = _section(parser, "machine")
    raw_pp = _take(machine, "pole_pairs")
    if raw_pp is None:
        raise ConfigError("machine.pole_pairs: required key is missing")
    pole_pairs = _int(raw_pp, "machine.pole_pairs")

    nominal = {}
    for key in _PHASE_KEYS:
        raw = _take(machine, key)
        nominal[key] = None if raw is None else _float(raw, f"machine.{key}")

    values = {}
    for family_key, phase_keys in _PHASE_KEYS.items():
        triple = []
        for phase_key in phase_keys:
            raw = _take(machine, phase_key)
            if raw is not None:
                triple.append(_float(raw, f"machine.{phase_key}"))
            elif nominal[family_key] is not None:
                triple.append(nominal[family_key])
            else:
                raise ConfigError(
                    f"machine.{phase_key}: missing (set machine.{family_key} "
                    "or all three per-phase values)"
                )
        values[family_key] = triple
    _reject_unknown(machine, "machine")

    # Per-key sign checks before matrix-level validation, so diagnostics
    # name what the user wrote.
    for family_key, phase_keys in _PHASE_KEYS.items():
        for phase_key, value in zip(phase_keys, values[family_key]):
            if family_key in ("r", "l") and value <= 0.0:
                raise ConfigError(f"machine.{phase_key}: must be positive")
            if family_key == "lam" and value < 0.0:
                raise ConfigError(f"machine.{phase_key}: must be nonnegative")

    # --- imbalance ---------------------------------------------------
    imbalance = _section(parser, "imbalance")
    family = _take(imbalance, "family", "none").strip()
    if family not in FAMILIES:
        raise ConfigError(
            f"imbalance.family: {family!r} is not one of {FAMILIES}"
        )
    allowed = _FAMILY_KEYS[family]
    deviations = {}
    for dev_key, family_key in (("d_r", "r"), ("d_l", "l"),
                                ("d_m", "m"), ("d_lam", "lam")):
        raw = _take(imbalance, dev_key)
        if raw is None:
            deviations[dev_key] = (0.0, 0.0, 0.0)
            continue
        if dev_key not in allowed:
            raise ConfigError(
                f"imbalance.{dev_key}: not allowed for family {family!r}"
            )
        deviations[dev_key] = _deviation_triple(
            raw, f"imbalance.{dev_key}", nominal[family_key], family_key)
    _reject_unknown(imbalance, "imbalance")

    try:
        params = MachineParameters(
            *(v + d for v, d in zip(values["r"], deviations["d_r"])),
            *(v + d for v, d in zip(values["l"], deviations["d_l"])),
            *(v + d for v, d in zip(values["m"], deviations["d_m"])),
            *(v + d for v, d in zip(values["lam"], deviations["d_lam"])),
            pole_pairs,
        )
    except ValueError as exc:
        raise ConfigError(f"machine: {exc}") from None

    for family_key, phase_keys in _PHASE_KEYS.items():
        for phase_key, value in zip(phase_keys, values[family_key]):
            note(f"machine.{phase_key}", repr(value))
    note("machine.pole_pairs", pole_pairs)
    note("imbalance.family", family)
    for dev_key in ("d_r", "d_l", "d_m", "d_lam"):
        note(f"imbalance.{dev_key}",
             ", ".join(repr(v) for v in deviations[dev_key]))

    # --- operating point ---------------------------------------------
    has_op = parser.has_section("operating_point")
    op = _section(parser, "operating_point")
    omega_e = i_d = i_q = i_0 = 0.0
    v_d = v_q = None
    if has_op:
        raw = _take(op, "omega_e")
        if raw is None:
            raise ConfigError("operating_point.omega_e: required key is missing")
        omega_e = _float(raw, "operating_point.omega_e")
        i_d = _float(_take(op, "i_d", "0"),
                     "operating_point.i_d")
        i_q = _float(_take(op, "i_q", "0"),
                     "operating_point.i_q")
        i_0 = _float(_take(op, "i_0", "0"),
                     "operating_point.i_0")
        raw_vd = _take(op, "v_d")
        raw_vq = _take(op, "v_q")
        v_d = None if raw_vd is None else _float(raw_vd, "operating_point.v_d")
        v_q = None if raw_vq is None else _float(raw_vq, "operating_point.v_q")
        _reject_unknown(op, "operating_point")
    note("operating_point.omega_e", repr(omega_e))
    note("operating_point.i_d", repr(i_d))
    note("operating_point.i_q", repr(i_q))
    note("operating_point.i_0", repr(i_0))
    if v_d is not None:
        note("operating_point.v_d", repr(v_d))
    if v_q is not None:
        note("operating_point.v_q", repr(v_q))

    # --- sim ----------------------------------------------------------
    sim_section = _section(parser, "sim")
    dt = _float(_take(sim_section, "dt", "1e-6"), "sim.dt")
    duration = _float(_take(sim_section, "duration", "0.05"),
                      "sim.duration")
    mode = _take(sim_section, "mode", "current-fed").strip()
    _reject_unknown(sim_section, "sim")
    try:
        sim = SimConfig(dt=dt, duration=duration, mode=mode)
    except ConfigError as exc:
        raise ConfigError(f"sim: {exc}") from None
    if sim.mode == "voltage-fed" and (v_d is None or v_q is None):
        raise ConfigError(
            "operating_point.v_d and operating_point.v_q are required "
            "for voltage-fed mode"
        )
    note("sim.dt", repr(sim.dt))
    note("sim.duration", repr(sim.duration))
    note("sim.mode", sim.mode)

    # --- outputs -------------------------------------------------------
    outputs = _section(parser, "outputs")
    csv_name = _take(outputs, "csv", "timeseries.csv").strip()
    summary_name = _take(outputs, "summary", "summary.txt").strip()
    raw_channels = _take(outputs, "channels", "all").strip()
    stride = _int(_take(outputs, "stride", "1"), "outputs.stride")
    _reject_unknown(outputs, "outputs")
    if stride < 1:
        raise ConfigError("outputs.stride: must be at least 1")
    if raw_channels == "all":
        channels = None
    else:
        channels = tuple(p.strip() for p in raw_channels.split(","))
        for idx, name in enumerate(channels):
            if name not in KNOWN_CHANNELS:
                raise ConfigError(f"outputs.channels: unknown channel {name!r}")
            if name in channels[:idx]:
                raise ConfigError(
                    f"outputs.channels: channel {name!r} is listed twice")
    note("outputs.csv", csv_name)
    note("outputs.summary", summary_name)
    note("outputs.channels", raw_channels)
    note("outputs.stride", stride)

    # --- identify -------------------------------------------------------
    identify = _section(parser, "identify")
    identify_source = _take(identify, "source_csv")
    if identify_source is not None:
        identify_source = identify_source.strip()
        note("identify.source_csv", identify_source)
    _reject_unknown(identify, "identify")

    return Scenario(
        machine=params,
        family=family,
        omega_e=omega_e,
        i_d=i_d,
        i_q=i_q,
        i_0=i_0,
        v_d=v_d,
        v_q=v_q,
        sim=sim,
        csv_name=csv_name,
        summary_name=summary_name,
        channels=channels,
        stride=stride,
        identify_source=identify_source,
        sections=tuple(parser.sections()),
        resolved=tuple(resolved),
    )
