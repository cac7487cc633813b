"""Scenario files: declarative inputs for the command-line jobs.

Line-oriented ``key = value`` pairs in named sections. Keys are dotted
with their section in diagnostics (``machine.l_a``). Schema:

    [machine]            required
    pole_pairs           integer >= 1, at most the largest float
    r, l, m, lam         nominal phase values (Ohm, H, H, Wb)
    r_a, r_b, r_c        optional absolute per-phase overrides
    l_a, l_b, l_c        likewise
    m_ab, m_bc, m_ca     likewise
    lam_a, lam_b, lam_c  likewise

    [imbalance]          optional; deviations added on top of [machine]
    family               none | resistance | flux | inductance | combined
    d_r, d_lam           triples "x, y, z"; entries may end in % of the
    d_l, d_m             nominal value of their family

    [operating_point]    optional; absent means standstill at zero current
    omega_e              electrical speed (rad/s)
    i_d, i_q, i_0        commanded currents (A), default 0
    v_d, v_q             commanded voltages (V), voltage-fed mode only

    [sim]                optional
    dt                   step (s), default 1e-6
    duration             simulated time (s), default 0.05
    mode                 current-fed (default) | voltage-fed

    [outputs]            optional
    csv                  time-series file name, default timeseries.csv
    summary              report file name other than csv, default summary.txt
    channels             comma list of the mode's channel names, default all
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
from itertools import chain

from .errors import ConfigError
from .imbalance import _FAMILIES
from .machine import _PHASE_KEYS, MachineParameters
from .refsim import (CURRENT_FED_CHANNELS, VOLTAGE_FED_CHANNELS, SimConfig,
                     _names)

# Deviation keys each family may declare.
_FAMILY_KEYS = {"none": (),
                **{name: fields for name, (fields, _) in _FAMILIES.items()},
                "combined": tuple(f"d_{key}" for key in _PHASE_KEYS)}
FAMILIES = tuple(_FAMILY_KEYS)

MODES = ("current-fed", "voltage-fed")
_CHANNELS = dict(zip(MODES, (CURRENT_FED_CHANNELS, VOLTAGE_FED_CHANNELS)))


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
    mode: str
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


def _stride(raw, key):
    stride = _int(raw, key)
    if stride < 1:
        raise ConfigError(f"{key}: must be at least 1")
    return stride


def _text(raw, key):
    return raw.strip()


def _file(raw, key):
    if "\0" in raw:
        raise ConfigError(f"{key}: a file name cannot hold a NUL byte")
    return raw.strip()


def _family(raw, key):
    family = raw.strip()
    if family not in FAMILIES:
        raise ConfigError(f"{key}: {family!r} is not one of {FAMILIES}")
    return family


def _mode(raw, key):
    mode = raw.strip()
    if mode not in MODES:
        raise ConfigError(f"sim: mode must be one of {MODES}")
    return mode


class _Required(str):
    """Default of a key its section must set; the text stands in only when
    the whole section is absent."""


# section -> key -> (converter, default). The default is the text an
# unset key reads as, None for an optional key with no value, or
# _Required. Sections after [imbalance] are echoed as read, in this order.
_SCHEMA = {
    "machine": {
        "pole_pairs": (_int, _Required()),
        **dict.fromkeys(_PHASE_KEYS, (_float, None)),
        **{key: (_float, None)
           for phase_keys in _PHASE_KEYS.values() for key in phase_keys},
    },
    "imbalance": {
        "family": (_family, "none"),
        **{f"d_{key}": (_text, None) for key in _PHASE_KEYS},
    },
    "operating_point": {
        "omega_e": (_float, _Required("0")),
        **dict.fromkeys(("i_d", "i_q", "i_0"), (_float, "0")),
        **dict.fromkeys(("v_d", "v_q"), (_float, None)),
    },
    "sim": {
        "dt": (_float, "1e-6"),
        "duration": (_float, "0.05"),
        "mode": (_mode, "current-fed"),
    },
    "outputs": {
        "csv": (_file, "timeseries.csv"),
        "summary": (_file, "summary.txt"),
        "channels": (_text, "all"),
        "stride": (_stride, "1"),
    },
    "identify": {
        "source_csv": (_file, None),
    },
}


def _read(parser, section):
    """Convert one section's keys by the schema, defaults resolved."""
    present = parser.has_section(section)
    raw = dict(parser[section]) if present else {}
    values = {}
    for key, (convert, default) in _SCHEMA[section].items():
        text = raw.pop(key, default)
        if present and isinstance(text, _Required):
            raise ConfigError(f"{section}.{key}: required key is missing")
        values[key] = None if text is None else convert(
            text, f"{section}.{key}")
    if raw:
        raise ConfigError(f"{section}.{next(iter(raw))}: unknown key")
    return values


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


def _channel_list(text, mode):
    if text == "all":
        return None
    try:
        return tuple(_names([p.strip() for p in text.split(",")],
                            _CHANNELS[mode]))
    except ConfigError as exc:
        raise ConfigError(f"outputs.channels: {exc}") from None


def parse_scenario(path) -> Scenario:
    """Read, validate and default-resolve a scenario file."""
    # No section header can name the empty string, so a [DEFAULT] header
    # reads as an ordinary section and is refused as unknown below.
    parser = configparser.ConfigParser(
        interpolation=None,
        inline_comment_prefixes=("#", ";"),
        delimiters=("=",),
        default_section="",
    )
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from None
    except configparser.Error as exc:
        # Some parser messages span lines; the CLI reports one line.
        detail = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"malformed scenario file: {detail}") from None

    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
    if not parser.has_section("machine"):
        raise ConfigError("missing required section [machine]")
    read = {section: _read(parser, section) for section in _SCHEMA}

    # Per-phase values, with per-key sign checks before matrix-level
    # validation so diagnostics name what the user wrote.
    machine = read["machine"]
    phase = {}
    for family_key, phase_keys in _PHASE_KEYS.items():
        for phase_key in phase_keys:
            value = machine[family_key] if machine[phase_key] is None \
                else machine[phase_key]
            if value is None:
                raise ConfigError(
                    f"machine.{phase_key}: missing (set machine.{family_key} "
                    "or all three per-phase values)"
                )
            if family_key in ("r", "l") and value <= 0.0:
                raise ConfigError(f"machine.{phase_key}: must be positive")
            if family_key == "lam" and value < 0.0:
                raise ConfigError(f"machine.{phase_key}: must be nonnegative")
            phase[phase_key] = value

    family = read["imbalance"]["family"]
    deviations = {}
    for family_key in _PHASE_KEYS:
        dev_key = f"d_{family_key}"
        raw = read["imbalance"][dev_key]
        if raw is None:
            deviations[dev_key] = (0.0, 0.0, 0.0)
        elif dev_key not in _FAMILY_KEYS[family]:
            raise ConfigError(
                f"imbalance.{dev_key}: not allowed for family {family!r}"
            )
        else:
            deviations[dev_key] = _deviation_triple(
                raw, f"imbalance.{dev_key}", machine[family_key], family_key)

    try:
        params = MachineParameters(
            *(v + d for v, d in zip(phase.values(),
                                    chain(*deviations.values()))),
            machine["pole_pairs"],
        )
    except ValueError as exc:
        raise ConfigError(f"machine: {exc}") from None

    op, sim, outputs = (read["operating_point"], read["sim"],
                        read["outputs"])
    try:
        sim_config = SimConfig(dt=sim["dt"], duration=sim["duration"])
    except ConfigError as exc:
        raise ConfigError(f"sim: {exc}") from None
    if sim["mode"] == "voltage-fed" and (op["v_d"] is None
                                         or op["v_q"] is None):
        raise ConfigError(
            "operating_point.v_d and operating_point.v_q are required "
            "for voltage-fed mode"
        )
    channels = _channel_list(outputs["channels"], sim["mode"])
    for key in ("csv", "summary"):
        if not outputs[key]:
            raise ConfigError(f"outputs: {key} must name a file")

    resolved = [(f"machine.{key}", repr(value)) for key, value in phase.items()]
    resolved += [("machine.pole_pairs", str(machine["pole_pairs"])),
                 ("imbalance.family", family)]
    resolved += [(f"imbalance.{key}", ", ".join(repr(v) for v in triple))
                 for key, triple in deviations.items()]
    resolved += [(f"{section}.{key}", str(value))
                 for section, keys in read.items()
                 if section not in ("machine", "imbalance")
                 for key, value in keys.items() if value is not None]

    return Scenario(
        machine=params,
        family=family,
        **op,
        sim=sim_config,
        mode=sim["mode"],
        csv_name=outputs["csv"],
        summary_name=outputs["summary"],
        channels=channels,
        stride=outputs["stride"],
        identify_source=read["identify"]["source_csv"],
        sections=tuple(parser.sections()),
        resolved=tuple(resolved),
    )
