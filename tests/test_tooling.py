"""Guards for the benchmark tooling that looks up package names from outside.

``perfbench/tracing.py`` patches each ``(module, attribute)`` in its
``TARGETS`` table; a name removed from the package would make
``perfbench/run.py --trace 1`` fail, so the suite checks them here. A
transform inlined into ``refsim`` would leave its layer's spans empty, so
the suite also checks that the simulations still call the traced names,
once per block of samples.
The README's library tour runs here too, so an API change cannot leave it
stale, and so does the artifact digest script that byte-identity checks
diff between commits. The public names and the runners' parameters are
pinned, so a change to the API has to change this file on purpose.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import re
import runpy
from pathlib import Path

import pytest

import pmimb
from pmimb import (MachineParameters, SimConfig, parse_scenario, refsim,
                   transforms)

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = [f"{module}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert missing == []


def count_calls(monkeypatch, module, attr, counts):
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        counts[attr] = counts.get(attr, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, attr, counted)


def traced_counts(monkeypatch, mode, drive, channels=None,
                  cfg=SimConfig(dt=1e-5, duration=2e-3)):
    # A basis built inside a transform, from theta, counts as well.
    counts = {}
    for module in (refsim, transforms):
        count_calls(monkeypatch, module, "_phase_basis", counts)
    for name in ("park_forward", "park_inverse", "phase_voltages",
                 "torque_abc"):
        count_calls(monkeypatch, refsim, name, counts)
    run = (refsim.run_current_fed if mode == "current-fed"
           else refsim.run_voltage_fed)
    params = MachineParameters.from_nominal(0.1, 2e-4, 2e-5, 0.05,
                                            pole_pairs=3)
    run(params, drive, 300.0, cfg, channels=channels)
    return counts


# Calls per block of a run of every channel; the test grid is one block.
FULL_RUN_CALLS = [
    ("current-fed", (-1.0, 8.0), {"park_inverse": 2, "park_forward": 2,
                                  "phase_voltages": 1, "torque_abc": 1}),
    ("voltage-fed", (1.0, 20.0), {"park_inverse": 1, "park_forward": 2,
                                  "phase_voltages": 1, "torque_abc": 1}),
]


@pytest.mark.parametrize("mode, drive, traced_calls", FULL_RUN_CALLS)
def test_simulation_builds_one_basis_and_calls_traced_names(
        monkeypatch, mode, drive, traced_calls):
    assert traced_counts(monkeypatch, mode, drive) \
        == {"_phase_basis": 1, **traced_calls}


@pytest.mark.parametrize("mode, drive, traced_calls", FULL_RUN_CALLS)
def test_each_block_builds_one_basis_and_calls_traced_names(
        monkeypatch, mode, drive, traced_calls):
    # Two whole blocks and a part of one: three blocks, each with its own
    # basis and its own call of every traced name.
    samples = 2 * refsim._BLOCK + 7
    cfg = SimConfig(dt=1e-6, duration=(samples - 1) * 1e-6)
    counts = traced_counts(monkeypatch, mode, drive, cfg=cfg)
    assert counts == {name: 3 * calls for name, calls in
                      {"_phase_basis": 1, **traced_calls}.items()}


# A name absent from traced_calls is not called at all.
@pytest.mark.parametrize("mode, drive, channels, traced_calls", [
    ("voltage-fed", (1.0, 20.0), {"i_d", "i_q", "t_e"},
     {"park_forward": 1, "torque_abc": 1}),
    ("current-fed", (-1.0, 8.0), {"v_d", "v_q"},
     {"park_inverse": 2, "park_forward": 1, "phase_voltages": 1}),
], ids=["voltage-fed-summary", "current-fed-compare"])
def test_selection_calls_only_the_traced_names_it_needs(
        monkeypatch, mode, drive, channels, traced_calls):
    assert traced_counts(monkeypatch, mode, drive, channels) \
        == {"_phase_basis": 1, **traced_calls}


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\n+```python\n(.*?)```", readme,
                     re.DOTALL).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(tour, "README.md library tour", "exec"), namespace)
    assert namespace["result"].per_phase == pytest.approx(
        (0.005, 0.0, 0.002), abs=1e-9)


def test_artifact_digests_repeat(capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "artifact_digests.py"))
    scenario = str(ROOT / "scenarios" / "combined_compare.ini")
    runs = []
    for _ in range(2):
        assert script["main"](["--no-corpus", scenario]) == 0
        runs.append(capsys.readouterr().out)
    rows = [line.split() for line in runs[0].splitlines()]
    assert [row[:3] for row in rows] == [
        ["combined_compare.ini:shipped", job, rc] for job, rc in
        (("coeffs", "0"), ("simulate", "0"), ("compare", "0"),
         ("identify", "2"))]
    assert all(re.fullmatch("[0-9a-f]{64}", row[3]) for row in rows)
    assert runs[1] == runs[0]


@pytest.mark.parametrize("name", sorted(
    path.name for path in (ROOT / "scenarios").glob("*.ini")))
def test_artifact_digest_corpus_holds_the_selection_edges(tmp_path, name):
    # Each shipped text, with or without [sim] and [outputs], gets each
    # edge stride and a duration of one step, of one block of steps and of
    # two: grids of 2, one block plus one and two blocks plus one samples,
    # the last a late half of one block plus one sample.
    script = runpy.run_path(str(ROOT / "scripts" / "artifact_digests.py"))
    text = (ROOT / "scenarios" / name).read_text(encoding="utf-8")
    variants = dict(script["corpus"](text))
    path = tmp_path / "scenario.ini"
    for stride in (2, 7, 10**9):
        path.write_text(variants[f"edge:stride={stride}"])
        assert parse_scenario(path).stride == stride
    shipped = parse_scenario(ROOT / "scenarios" / name).sim
    for edge, steps in (("dt", 1), ("block", refsim._BLOCK),
                        ("2blocks", 2 * refsim._BLOCK)):
        path.write_text(variants[f"edge:duration={edge}"])
        sim = parse_scenario(path).sim
        assert sim == SimConfig(shipped.dt, steps * shipped.dt)
        assert refsim._grid_size(sim) == steps + 1


def test_artifact_digest_identify_reads_the_simulated_csv():
    # In append:4 compare overwrites timeseries.csv before identify reads
    # it, so identify always fails there; this variant leaves compare out.
    script = runpy.run_path(str(ROOT / "scripts" / "artifact_digests.py"))
    text = (ROOT / "scenarios" / "resistance_compare.ini").read_text(
        encoding="utf-8")
    variant = "append:4:no-compare"
    lines = script["digest_text"](variant, dict(script["corpus"](text))[
        variant], script["JOB_ORDERS"][variant])
    assert [line.split()[1:3] for line in lines] == [
        ["coeffs", "0"], ["simulate", "0"], ["identify", "0"]]


# The north star counts the public names; one added or removed is a
# decision, made here.
PUBLIC_NAMES = [
    "BETA", "ConfigError", "HarmonicDecomposition", "IdentifiabilityError",
    "IdentificationResult", "ImbalanceDecomposition", "InputError",
    "MachineParameters", "OperatingPoint", "Scenario", "SecondHarmonicPhasor",
    "SimConfig", "TimeSeries", "WaveformComparison",
    "balanced_voltage_command", "check_angle_coverage", "closed_form_dq",
    "compare_waveforms", "compose_total", "decompose", "demodulate",
    "fit_flux", "fit_resistance", "flux_coeffs", "flux_delta",
    "ideal_dq_nonsalient", "inductance_coeffs", "inductance_delta",
    "park_forward", "park_inverse", "parse_scenario", "phase_angles",
    "phase_voltages", "predict_current_ripple", "resistance_coeffs",
    "resistance_delta", "run_current_fed", "run_voltage_fed",
    "steady_state_currents", "torque_abc", "transient_window",
]


def test_public_names_are_pinned():
    assert pmimb.__all__ == PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 41
    assert [name for name in PUBLIC_NAMES
            if not hasattr(pmimb, name)] == []


# Samples are selected through a run's plan, by the ranges handed to its
# evaluator; the runners take no selection of their own.
@pytest.mark.parametrize("runner, parameters", [
    (pmimb.run_current_fed,
     ["params", "i_dq_cmd", "omega_e", "cfg", "i_0", "channels"]),
    (pmimb.run_voltage_fed,
     ["params", "v_dq_cmd", "omega_e", "cfg", "channels"]),
], ids=["current-fed", "voltage-fed"])
def test_runners_take_no_sample_selection(runner, parameters):
    assert list(inspect.signature(runner).parameters) == parameters
