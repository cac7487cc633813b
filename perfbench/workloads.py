"""Seeded study workloads and the checks that judge their outputs.

A workload is a pool of generated scenario files plus a recipe for one
round of CLI operations on them. The program under test only ever sees
the scenario files and the CSVs it wrote itself. Every check recomputes
the expected values with this module's own numpy code from the
generated parameters; nothing here calls into ``pmimb`` except the
ripple study step, which uses the library the way
``scripts/voltage_fed_ripple.py`` does.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NOMINAL = {"r": 0.1, "l": 2e-4, "m": 2e-5, "lam": 0.05}
POLE_PAIRS = 3
MAX_DEVIATION = 0.20        # share of the family nominal
MAX_CURRENT = 10.0          # A, for both i_d and i_q
MIN_STEPS_PER_PERIOD = 200  # the program's dt guard

# Deviation keys per family; "d_x" scales the machine nominal "x".
FAMILY_KEYS = {
    "resistance": ("d_r",),
    "flux": ("d_lam",),
    "inductance": ("d_l", "d_m"),
    "combined": ("d_r", "d_l", "d_m", "d_lam"),
}
SHIFT = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])

# Steady-state ripple is compared with the first-order prediction, which
# drops terms of second order in the deviations. Over 600 generated cases
# with deviations up to 20 % the worst relative error was 0.18.
RIPPLE_REL_TOL = 0.5


class CheckError(Exception):
    """An artifact disagrees with the benchmark's own computation."""


@dataclass(frozen=True)
class Case:
    """One generated machine, imbalance and operating point."""

    family: str
    deviations: dict
    omega_e: float
    i_d: float
    i_q: float

    def phase_values(self, name):
        """Per-phase value the scenario parser builds: nominal + deviation."""
        dev = self.deviations.get("d_" + name, (0.0, 0.0, 0.0))
        return np.array([NOMINAL[name] + d for d in dev])

    def resistances(self):
        return self.phase_values("r")

    def pm_flux(self):
        return self.phase_values("lam")

    def inductance_matrix(self):
        l_a, l_b, l_c = self.phase_values("l")
        m_ab, m_bc, m_ca = self.phase_values("m")
        return np.array([[l_a, -m_ab, -m_ca],
                         [-m_ab, l_b, -m_bc],
                         [-m_ca, -m_bc, l_c]])

    def balanced_command(self):
        """(v_d, v_q) driving the balanced part (smallest phase values)."""
        r = float(self.resistances().min())
        l_sum = float(self.phase_values("l").min()
                      + self.phase_values("m").min())
        lam = float(self.pm_flux().min())
        w = self.omega_e
        return (r * self.i_d + l_sum * w * self.i_q,
                r * self.i_q - l_sum * w * self.i_d + w * lam)


@dataclass
class Op:
    """One CLI job of a round, with what the benchmark expects of it."""

    job: str
    scenario: Path
    out: Path
    key: str                     # artifacts with one key must hash equal
    samples: int = 0             # grid samples or fitted rows on success
    check: Callable[[list], None] | None = None
    study: Callable[[list], dict] | None = None
    expect_error: bool = False   # expected: exit 3 and one error: line

    def argv(self):
        return [self.job, "--scenario", str(self.scenario),
                "--out", str(self.out)]


@dataclass
class Workload:
    pool: list = field(default_factory=list)   # rounds cycle over this
    fixed: list = field(default_factory=list)  # ops in every round
    setup: list = field(default_factory=list)  # (op, then), run untimed

    def round(self, index):
        return self.pool[index % len(self.pool)] + self.fixed


# --- generation -------------------------------------------------------

def draw_case(rng, family, omega_range):
    deviations = {}
    for key in FAMILY_KEYS[family]:
        nominal = NOMINAL[key[2:]]
        deviations[key] = tuple(
            float(v) for v in rng.uniform(0.0, MAX_DEVIATION, 3) * nominal)
    return Case(family, deviations,
                float(rng.uniform(*omega_range)),
                float(rng.uniform(-MAX_CURRENT, MAX_CURRENT)),
                float(rng.uniform(-MAX_CURRENT, MAX_CURRENT)))


def scenario_text(case, *, dt, steps, mode="current-fed", channels=None,
                  stride=1, source_csv=None):
    if case.omega_e * dt * MIN_STEPS_PER_PERIOD > 2.0 * math.pi:
        raise ValueError("generated case violates the steps-per-period guard")
    lines = ["[machine]", f"pole_pairs = {POLE_PAIRS}"]
    lines += [f"{k} = {v!r}" for k, v in NOMINAL.items()]
    lines += ["", "[imbalance]", f"family = {case.family}"]
    lines += [f"{k} = {', '.join(repr(v) for v in dev)}"
              for k, dev in case.deviations.items()]
    lines += ["", "[operating_point]", f"omega_e = {case.omega_e!r}"]
    if mode == "voltage-fed":
        v_d, v_q = case.balanced_command()
        lines += [f"v_d = {v_d!r}", f"v_q = {v_q!r}"]
    else:
        lines += [f"i_d = {case.i_d!r}", f"i_q = {case.i_q!r}"]
    lines += ["", "[sim]", f"dt = {dt!r}", f"duration = {steps * dt!r}",
              f"mode = {mode}"]
    lines += ["", "[outputs]", f"stride = {stride}"]
    if channels:
        lines.append(f"channels = {', '.join(channels)}")
    if source_csv is not None:
        lines += ["", "[identify]", f"source_csv = {source_csv}"]
    return "\n".join(lines) + "\n"


def _scenario(workdir, name, text):
    path = workdir / f"{name}.ini"
    path.write_text(text, encoding="utf-8")
    return path


COMPARE_DT, COMPARE_STEPS, COMPARE_STRIDE = 1e-6, 200_000, 50
RIPPLE_DT, RIPPLE_STEPS, RIPPLE_STRIDE = 1e-6, 200_000, 20
RIPPLE_CHANNELS = ("i_a", "i_b", "i_0", "i_d", "i_q")
CSV_DT, CSV_STEPS = 1e-5, 50_000


def compare_sweep(rng, workdir):
    """pmimb compare over 4 families x 2 operating points, long grids."""
    work = Workload()
    for index in range(8):
        family = list(FAMILY_KEYS)[index % 4]
        case = draw_case(rng, family, (50.0, 1000.0))
        key = f"compare-{index}"
        scenario = _scenario(workdir, key, scenario_text(
            case, dt=COMPARE_DT, steps=COMPARE_STEPS, stride=COMPARE_STRIDE))
        n = COMPARE_STEPS + 1
        work.pool.append([Op(
            "compare", scenario, workdir / key, key, samples=n,
            check=_compare_check(case, n, COMPARE_STRIDE, COMPARE_DT))])
    return work


def ripple_study(rng, workdir):
    """Voltage-fed simulate per family, then the 2theta ripple study."""
    work = Workload()
    for index, family in enumerate(FAMILY_KEYS):
        # From 200 rad/s the window past settling spans > 4 periods.
        case = draw_case(rng, family, (200.0, 1000.0))
        key = f"ripple-{index}"
        scenario = _scenario(workdir, key, scenario_text(
            case, dt=RIPPLE_DT, steps=RIPPLE_STEPS, mode="voltage-fed",
            channels=RIPPLE_CHANNELS, stride=RIPPLE_STRIDE))
        work.pool.append([Op(
            "simulate", scenario, workdir / key, key,
            samples=RIPPLE_STEPS + 1,
            check=_ripple_check(case, RIPPLE_STEPS, RIPPLE_STRIDE, RIPPLE_DT),
            study=_ripple_study_step(case))])
    return work


def csv_roundtrip(rng, workdir):
    """Full-channel CSV export, then identify from it by absolute path.

    Rounds alternate the resistance and flux families. Every round also
    runs identify on a fixed CSV with one nan in v_d: the documented
    outcome is exit 3 with one error: line.
    """
    work = Workload()
    n = CSV_STEPS + 1
    for index, family in enumerate(("resistance", "flux") * 2):
        case = draw_case(rng, family, (50.0, 1000.0))
        sim_key, id_key = f"export-{index}", f"identify-{index}"
        csv_path = (workdir / sim_key / "timeseries.csv").resolve()
        sim = _scenario(workdir, sim_key, scenario_text(
            case, dt=CSV_DT, steps=CSV_STEPS))
        ident = _scenario(workdir, id_key, scenario_text(
            case, dt=CSV_DT, steps=CSV_STEPS, source_csv=csv_path))
        work.pool.append([
            Op("simulate", sim, workdir / sim_key, sim_key, samples=n,
               check=_export_check(case, n, CSV_DT)),
            Op("identify", ident, workdir / id_key, id_key, samples=n,
               check=_identify_check(case)),
        ])

    # The corrupted input is the same for every seed.
    fixed = draw_case(np.random.default_rng(0), "resistance", (50.0, 1000.0))
    export = (workdir / "nan-export" / "timeseries.csv").resolve()
    corrupt = (workdir / "nan-input.csv").resolve()
    sim = _scenario(workdir, "nan-export",
                    scenario_text(fixed, dt=CSV_DT, steps=CSV_STEPS))
    work.setup.append((
        Op("simulate", sim, workdir / "nan-export", "nan-export"),
        lambda: _plant_nan(export, corrupt)))
    ident = _scenario(workdir, "nan-identify", scenario_text(
        fixed, dt=CSV_DT, steps=CSV_STEPS, source_csv=corrupt))
    work.fixed.append(Op("identify", ident, workdir / "nan-identify",
                         "nan-identify", expect_error=True))
    return work


WORKLOADS = {
    "compare-sweep": compare_sweep,
    "ripple-study": ripple_study,
    "csv-roundtrip": csv_roundtrip,
}


def make_workload(name, seed, workdir):
    """Write the scenario files of one workload for one seed."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return WORKLOADS[name](np.random.default_rng(seed), workdir)


def _plant_nan(source, target, row=1000):
    """Copy a CSV line by line, with v_d of one data row set to nan."""
    with open(source, encoding="utf-8") as src, \
            open(target, "w", encoding="utf-8", newline="") as dst:
        header = src.readline()
        column = header.rstrip("\n").split(",").index("v_d")
        dst.write(header)
        for index, line in enumerate(src):
            if index == row:
                cells = line.rstrip("\n").split(",")
                cells[column] = "nan"
                line = ",".join(cells) + "\n"
            dst.write(line)


# --- independent references ---------------------------------------------

def read_columns(path):
    """Parse a CSV with Python's float into {name: float64 array}."""
    with open(path, encoding="utf-8") as handle:
        names = handle.readline().rstrip("\n").split(",")
        rows = sum(1 for _ in handle)
        handle.seek(0)
        handle.readline()
        # Row by row, so parsing holds no more than the array itself.
        data = np.empty((rows, len(names)))
        for index, line in enumerate(handle):
            data[index] = [float(cell) for cell in line.split(",")]
    return {name: data[:, col] for col, name in enumerate(names)}


def phase_angles(theta):
    return np.asarray(theta)[None, :] - SHIFT[:, None]


def current_fed_phase(case, theta):
    """Phase currents, derivatives and voltages at constant i_d, i_q."""
    ang = phase_angles(theta)
    cos, sin = np.cos(ang), np.sin(ang)
    w = case.omega_e
    i = case.i_d * cos + case.i_q * sin
    di = w * (case.i_q * cos - case.i_d * sin)
    v = (case.resistances()[:, None] * i + case.inductance_matrix() @ di
         + w * case.pm_flux()[:, None] * sin)
    return i, v, cos, sin


def phase_frame_dq(case, theta):
    """(v_d, v_q) from the phase-frame machine equations."""
    _, v, cos, sin = current_fed_phase(case, theta)
    return (2.0 / 3.0) * np.sum(v * cos, axis=0), \
        (2.0 / 3.0) * np.sum(v * sin, axis=0)


def voltage_fed_exact(case, t):
    """Exact (i_a, i_b) of the isolated-star machine under voltage drive.

    With i_c = -i_a - i_b and the star point eliminated, the state obeys
    x' = A x + Re(F e^{j w t}), x(0) = 0, whose solution is
    x = Re(X e^{j w t}) - e^{A t} Re(X) with X = (j w I - A)^-1 F.
    Returns the currents and the eigenvalues of A.
    """
    v_d, v_q = case.balanced_command()
    w = case.omega_e
    r_a, r_b, r_c = case.resistances()
    reduce_map = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    l_red = reduce_map.T @ case.inductance_matrix() @ reduce_map
    r_red = np.array([[r_a + r_c, r_c], [r_c, r_b + r_c]])
    # v_x - w lam_x sin(theta_x) = Re(c_x e^{j theta}).
    c = (v_d - 1j * (v_q - w * case.pm_flux())) * np.exp(-1j * SHIFT)
    a_mat = -np.linalg.solve(l_red, r_red)
    f_vec = np.linalg.solve(l_red, np.array([c[0] - c[2], c[1] - c[2]]))
    x_ss = np.linalg.solve(1j * w * np.eye(2) - a_mat, f_vec)
    lam, vec = np.linalg.eig(a_mat)
    lam, vec = lam.real, vec.real
    coef = np.linalg.solve(vec, -x_ss.real)
    decay = vec @ (coef[:, None] * np.exp(lam[:, None] * t[None, :]))
    periodic = (x_ss[:, None] * np.exp(1j * w * t)[None, :]).real
    return periodic + decay, lam


def _rel_rms(value, ref):
    return float(np.sqrt(np.mean((value - ref) ** 2))
                 / np.sqrt(np.mean(ref ** 2)))


def _csv_of(artifacts):
    return next(p for p in artifacts if p.suffix == ".csv")


def _summary_of(artifacts):
    path = next(p for p in artifacts if p.name == "summary.txt")
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        entries[key] = value
    return entries


def _check_grid(cols, case, rows, stride, dt):
    if cols["t"].size != rows:
        raise CheckError(f"{cols['t'].size} rows, expected {rows}")
    t_ref = np.arange(rows) * stride * dt
    if np.max(np.abs(cols["t"] - t_ref)) > 1e-12 * t_ref[-1]:
        raise CheckError("t column is not the uniform sample grid")
    theta_err = np.max(np.abs(cols["theta"] - case.omega_e * cols["t"]))
    if theta_err > 1e-12 * abs(case.omega_e) * t_ref[-1]:
        raise CheckError("theta column is not omega_e * t")


def _compare_check(case, samples, stride, dt):
    def check(artifacts):
        cols = read_columns(_csv_of(artifacts))
        _check_grid(cols, case, -(-samples // stride), stride, dt)
        v_d, v_q = phase_frame_dq(case, cols["theta"])
        for name, ref in (("v_d_sim", v_d), ("v_d_model", v_d),
                          ("v_q_sim", v_q), ("v_q_model", v_q)):
            err = _rel_rms(cols[name], ref)
            if not err < 1e-9:
                raise CheckError(f"{name}: relative rms {err:.3g} against "
                                 "the phase-frame equations")
    return check


def _export_check(case, samples, dt):
    def check(artifacts):
        cols = read_columns(_csv_of(artifacts))
        _check_grid(cols, case, samples, 1, dt)
        i_ref, v_ref, _, _ = current_fed_phase(case, cols["theta"])
        scale = abs(case.i_d) + abs(case.i_q)
        for row, name in enumerate(("i_a", "i_b", "i_c")):
            err = float(np.max(np.abs(cols[name] - i_ref[row])))
            if err > 1e-12 * scale:
                raise CheckError(f"{name}: off by {err:.3g} A")
        v_d, v_q = phase_frame_dq(case, cols["theta"])
        for name, ref in (("v_d", v_d), ("v_q", v_q)):
            err = _rel_rms(cols[name], ref)
            if not err < 1e-9:
                raise CheckError(f"{name}: relative rms {err:.3g}")
    return check


def _identify_check(case):
    injected = np.array(case.deviations[FAMILY_KEYS[case.family][0]])
    injected = injected - injected.min()

    def check(artifacts):
        summary = _summary_of(artifacts)
        got = np.array([float(summary[f"identify.recovered_{p}"])
                        for p in "abc"])
        err = float(np.max(np.abs(got - injected)))
        if not err <= 1e-6:
            raise CheckError(f"recovered deviations off by {err:.3g}")
    return check


def _ripple_check(case, steps, stride, dt):
    def check(artifacts):
        cols = read_columns(_csv_of(artifacts))
        _check_grid(cols, case, -(-(steps + 1) // stride), stride, dt)
        exact, lam = voltage_fed_exact(case, cols["t"])
        scale = float(np.max(np.abs(exact)))
        # RK4 truncation per step is (h mu)^5 / 120 of the state, for the
        # fastest rate mu; rounding adds about one ulp per step. Both
        # accumulate at most linearly over the run.
        h_mu = dt * max(float(np.max(np.abs(lam))), abs(case.omega_e))
        tol = 10.0 * scale * steps * (h_mu ** 5 / 120.0
                                      + np.finfo(float).eps)
        for row, name in enumerate(("i_a", "i_b")):
            err = float(np.max(np.abs(cols[name] - exact[row])))
            if err > tol:
                raise CheckError(f"{name}: off by {err:.3g} A from the "
                                 f"exact solution (tolerance {tol:.3g} A)")
        if float(np.max(np.abs(cols["i_0"]))) > 1e-12 * scale:
            raise CheckError("i_0 departs from zero")
    return check


def _ripple_study_step(case):
    """Demodulate the steady-state i_d, i_q ripple; compare the prediction.

    Uses the library as ``scripts/voltage_fed_ripple.py`` does. Looks the
    functions up on their modules at call time so a tracer sees them.
    """
    def study(artifacts):
        from pmimb import harmonics, machine, refsim

        cols = read_columns(_csv_of(artifacts))
        tau = float((case.phase_values("l").min()
                     + case.phase_values("m").min())
                    / case.resistances().min())
        settle = max(5.0 * tau, 2.0 * 2.0 * math.pi / abs(case.omega_e))
        mask = cols["t"] >= settle
        params = machine.MachineParameters(
            *case.resistances(), *case.phase_values("l"),
            *case.phase_values("m"), *case.pm_flux(), POLE_PAIRS)
        predicted = refsim.predict_current_ripple(
            params, case.omega_e, case.i_d, case.i_q)
        errors = []
        for name, pred in zip(("i_d", "i_q"), predicted):
            got = harmonics.demodulate(cols[name][mask], cols["theta"][mask])
            measured = got.second.k * np.exp(1j * got.second.phi)
            errors.append(abs(measured - pred) / abs(pred))
        if not max(errors) <= RIPPLE_REL_TOL:
            raise CheckError(f"2theta ripple is {max(errors):.3g} away from "
                             "the first-order prediction")
        return {"ripple_rel_error": max(errors)}
    return study
