"""Study-level benchmark of pmimb, run through ``pmimb.cli.main``.

    python3 perfbench/run.py --workload <name|all> --seed <n> \\
        --seconds <s> --trace <0|1>

One process runs one workload. It generates the workload's scenario
files from the seed, measures the import floor in fresh interpreters,
runs one untimed warm-up round, then runs whole rounds of CLI jobs for
``--seconds``. Each job's artifacts are hashed; the first artifacts of
every scenario are checked against the benchmark's own computations and
every repeat must hash the same. With ``--trace 1`` every round runs a
second time with spans around each layer, and the run reports per-layer
metrics instead. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("compare-sweep", "ripple-study", "csv-roundtrip")
# One thread of numeric work: the machine has two CPUs and is shared.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15


def time_setup(env):
    """Wall time for a fresh interpreter to import pmimb.cli and exit."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import pmimb.cli"], env=env,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Runner:
    """Runs CLI jobs in this process and judges their outcomes."""

    def __init__(self, cli, check_error):
        self.cli = cli
        self.check_error = check_error
        self.hashes = {}      # scenario key -> {artifact name: sha256}
        self.problems = []
        self.records = []

    def run(self, op, round_index, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span("cli.job") if tracer else nullcontext()
        start = perf_counter()
        with span, redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(op.argv())
            except Exception as exc:  # a traceback breaks the contract
                code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start

        errors = [line for line in err.getvalue().splitlines() if line]
        if op.expect_error:
            ok = (code == 3 and len(errors) == 1
                  and errors[0].startswith("error: "))
        else:
            ok = code == 0
        record = {"round": round_index, "job": op.job, "key": op.key,
                  "seconds": seconds, "exit": code, "ok": ok, "samples": 0}
        if ok and not op.expect_error:
            record["samples"] = op.samples
            artifacts = [Path(line[len("wrote "):])
                         for line in out.getvalue().splitlines()
                         if line.startswith("wrote ")]
            record["sha256"] = {p.name: sha256(p) for p in artifacts}
            self._verify(op, artifacts, record["sha256"])
            if op.study:
                start = perf_counter()
                try:
                    record["study"] = op.study(artifacts)
                except self.check_error as exc:
                    self.problems.append(f"{op.key}: {exc}")
                record["study_s"] = perf_counter() - start
        elif not ok and not op.expect_error:
            self.problems.append(f"{op.key}: job failed: {code} {errors}")
        self.records.append(record)
        return record

    def _verify(self, op, artifacts, hashes):
        if op.key in self.hashes:
            if self.hashes[op.key] != hashes:
                self.problems.append(f"{op.key}: artifact bytes differ "
                                     "between runs of the same scenario")
            return
        self.hashes[op.key] = hashes
        if op.check:
            try:
                op.check(artifacts)
            except self.check_error as exc:
                self.problems.append(f"{op.key}: {exc}")

    def round(self, work, index, tracer=None):
        """Run one round of the workload, traced if a tracer is given."""
        if tracer is None:
            return [self.run(op, index) for op in work.round(index)]
        tracer.job = index
        tracer.install()
        try:
            return [self.run(op, index, tracer) for op in work.round(index)]
        finally:
            tracer.uninstall()


def wall(records):
    return sum(r["seconds"] + r.get("study_s", 0.0) for r in records)


def run_workload(name, seed, seconds, trace):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    # numpy reads the thread settings when it is first imported.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))

    import pmimb.cli
    import tracing
    import workloads

    if Path(pmimb.cli.__file__).resolve().parent != SRC / "pmimb":
        raise SystemExit(f"error: imported pmimb from {pmimb.cli.__file__}, "
                         f"not from {SRC}")

    base = OUT / f"{name}-seed{seed}"
    runner = Runner(pmimb.cli, workloads.CheckError)
    metrics = {}
    if not trace:
        time_setup(env)  # writes bytecode caches; not counted
    work = workloads.make_workload(name, seed, base / "work")
    for op, after in work.setup:
        if not runner.run(op, -1)["ok"]:
            raise SystemExit(f"error: set-up job {op.key} failed")
        after()
    for op in work.round(0):  # warm-up, not counted
        runner.run(op, -1)

    # Traced rounds alternate with untraced ones, so a slow stretch of the
    # machine falls on both; set-up probes are spread over the run for
    # the same reason.
    tracer = tracing.Tracer() if trace else None
    measured, traced, setup_times = [], [], []
    rounds = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        measured += runner.round(work, rounds)
        if trace:
            traced += runner.round(work, rounds, tracer)
        elif (len(setup_times) < SETUP_REPEATS and perf_counter() - start
              >= len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(time_setup(env))
        rounds += 1

    if trace:
        tracer.dump(OUT / f"{name}-seed{seed}-spans.json")
        metrics = tracing.layer_metrics(tracer.totals(), rounds,
                                        wall(traced) - wall(measured))
        measured += traced
    else:
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_setup(env))
        metrics["setup_s"] = {"value": statistics.median(setup_times),
                              "unit": "s"}
        metrics["samples_per_s"] = {
            "value": sum(r["samples"] for r in measured)
            / sum(r["seconds"] for r in measured),
            "unit": "samples/s"}
        metrics["job_s.p50"] = {
            "value": statistics.median(r["seconds"] for r in measured),
            "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0, "unit": "MB"}

    digest = hashlib.sha256(json.dumps(sorted(runner.hashes.items()))
                            .encode()).hexdigest()
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "rounds": rounds,
                   "artifact_digest": digest, "problems": runner.problems,
                   "jobs": runner.records}, handle, indent=1)
    shutil.rmtree(base)
    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"artifacts: {len(runner.hashes)} scenarios, sha256 {digest}")
    return {"correct": not runner.problems,
            "attempted": len(measured),
            "failed": sum(not r["ok"] for r in measured),
            "metrics": metrics}


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for name in WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            results[name][f"trace{trace}"] = result
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:28s} {entry['value']:>16.6g} "
                      f"{entry['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pmimb" / "cli.py").is_file():
        print(f"error: no pmimb sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
