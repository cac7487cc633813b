"""Spans around the calls into each pmimb layer, recorded from outside.

Each traced function is replaced under the name its caller looks it up
by (``pmimb.cli.run_current_fed``, ``pmimb.refsim.park_forward``, ...),
so no file of the package changes. A span records its name, start, end,
parent span and job, plus a work count taken from the call. A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import NamedTuple

import numpy as np


def _size(index):
    return lambda args, result: int(np.size(args[index]))


def _op_theta(index):
    return lambda args, result: int(np.size(args[index].theta))


def _of_result(count):
    return lambda args, result: 0 if result is None else count(result)


def _file_bytes(index):
    def work(args, result):
        try:
            return os.path.getsize(args[index])
        except OSError:
            return 0
    return work


# (module, attribute, span name, work count of one call)
TARGETS = (
    ("pmimb.cli", "parse_scenario", "scenario.parse", None),
    ("pmimb.refsim", "park_forward", "transforms.park", _size(1)),
    ("pmimb.refsim", "park_inverse", "transforms.park", _size(1)),
    ("pmimb.refsim", "phase_voltages", "machine.phase_voltages", None),
    ("pmimb.refsim", "torque_abc", "machine.torque", None),
    ("pmimb.cli", "ideal_dq_nonsalient", "machine.ideal", None),
    ("pmimb.refsim", "ideal_dq_nonsalient", "machine.ideal", None),
    ("pmimb.cli", "resistance_delta", "imbalance.closed_form", _op_theta(1)),
    ("pmimb.cli", "flux_delta", "imbalance.closed_form", _size(2)),
    ("pmimb.cli", "inductance_delta", "imbalance.closed_form", _op_theta(2)),
    ("pmimb.cli", "compose_total", "imbalance.closed_form",
     _of_result(lambda result: int(np.size(result[0])))),
    ("pmimb.refsim", "resistance_delta", "imbalance.closed_form",
     _op_theta(1)),
    ("pmimb.refsim", "flux_delta", "imbalance.closed_form", _size(2)),
    ("pmimb.refsim", "inductance_delta", "imbalance.closed_form",
     _op_theta(2)),
    ("pmimb.cli", "run_current_fed", "refsim.current_fed",
     _of_result(lambda result: result.t.size)),
    ("pmimb.cli", "run_voltage_fed", "refsim.voltage_fed",
     _of_result(lambda result: result.t.size - 1)),
    ("pmimb.refsim", "predict_current_ripple", "refsim.ripple_predict", None),
    ("pmimb.harmonics", "demodulate", "harmonics.demodulate", _size(0)),
    ("pmimb.refsim", "demodulate", "harmonics.demodulate", _size(0)),
    ("pmimb.cli", "compare_waveforms", "harmonics.compare", _size(0)),
    ("pmimb.cli", "fit_resistance", "identify.fit", _size(0)),
    ("pmimb.cli", "fit_flux", "identify.fit", _size(0)),
    ("pmimb.cli", "write_csv", "cli.write_csv", _file_bytes(1)),
    ("pmimb.cli", "read_csv", "cli.read_csv", _file_bytes(0)),
)


class Totals(NamedTuple):
    """Sums over the spans of one name."""

    self_s: float = 0.0
    calls: int = 0
    work: int = 0


class Tracer:
    """In-memory span recorder that patches the traced functions."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []

    def begin(self, name):
        self.spans.append({"name": name, "job": self.job,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": perf_counter(), "end": None,
                           "child_s": 0.0, "work": 0})
        self._stack.append(len(self.spans) - 1)

    def end(self, work=0):
        end = perf_counter()
        span = self.spans[self._stack.pop()]
        span["end"] = end
        span["work"] = work
        duration = end - span["start"]
        span["self_s"] = duration - span["child_s"]
        if span["parent"] is not None:
            self.spans[span["parent"]]["child_s"] += duration

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def install(self):
        for module_name, attr, name, work in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, work))
            self._patched.append((module, attr, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, work):
        @wraps(original)
        def traced(*args, **kwargs):
            self.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.end(work(args, result) if work else 0)
        return traced

    def totals(self):
        """{span name: Totals} summed over all spans."""
        out = {}
        for span in self.spans:
            old = out.get(span["name"], Totals())
            out[span["name"]] = Totals(old.self_s + span["self_s"],
                                       old.calls + 1, old.work + span["work"])
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def layer_metrics(totals, rounds, overhead_s):
    """Per-layer metrics per round of the workload, with their units."""
    def get(name):
        return totals.get(name, Totals())

    def ratio(num, den):
        return num / den if den else 0.0

    parse, park = get("scenario.parse"), get("transforms.park")
    closed = get("imbalance.closed_form")
    cfed, vfed = get("refsim.current_fed"), get("refsim.voltage_fed")
    demod, comp = get("harmonics.demodulate"), get("harmonics.compare")
    fit, write, read = (get("identify.fit"), get("cli.write_csv"),
                        get("cli.read_csv"))
    per = 1.0 / rounds
    values = {
        "scenario.parse_s": (parse.self_s * per, "s"),
        "scenario.calls": (parse.calls * per, "count"),
        "transforms.park_s": (park.self_s * per, "s"),
        "transforms.calls": (park.calls * per, "count"),
        "transforms.samples": (park.work * per, "count"),
        "machine.phase_voltages_s": (
            get("machine.phase_voltages").self_s * per, "s"),
        "machine.torque_s": (get("machine.torque").self_s * per, "s"),
        "machine.ideal_s": (get("machine.ideal").self_s * per, "s"),
        "imbalance.closed_form_s": (closed.self_s * per, "s"),
        "imbalance.samples": (closed.work * per, "count"),
        "refsim.current_fed_self_s": (cfed.self_s * per, "s"),
        "refsim.current_fed_samples": (cfed.work * per, "count"),
        "refsim.voltage_fed_self_s": (vfed.self_s * per, "s"),
        "refsim.rk4_steps": (vfed.work * per, "count"),
        "refsim.us_per_step": (1e6 * ratio(vfed.self_s, vfed.work), "us"),
        "refsim.ripple_predict_s": (
            get("refsim.ripple_predict").self_s * per, "s"),
        "harmonics.demodulate_s": (demod.self_s * per, "s"),
        "harmonics.compare_s": (comp.self_s * per, "s"),
        "harmonics.samples": ((demod.work + comp.work) * per, "count"),
        "identify.fit_s": (fit.self_s * per, "s"),
        "identify.rows": (fit.work * per, "count"),
        "cli.write_csv_s": (write.self_s * per, "s"),
        "cli.write_csv_bytes": (write.work * per, "B"),
        "cli.write_mb_per_s": (ratio(write.work, write.self_s) / 1e6, "MB/s"),
        "cli.read_csv_s": (read.self_s * per, "s"),
        "cli.read_csv_bytes": (read.work * per, "B"),
        "cli.read_mb_per_s": (ratio(read.work, read.self_s) / 1e6, "MB/s"),
        "cli.job_other_s": (get("cli.job").self_s * per, "s"),
        "trace.overhead_s": (overhead_s * per, "s"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
