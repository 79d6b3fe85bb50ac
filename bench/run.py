#!/usr/bin/env python3
"""duelbias benchmark: seeded inputs, CLI workloads, output checks, traced layers.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload as ``duelbias`` CLI invocations, each in a
fresh interpreter. The load is a closed loop with one client: one
invocation at a time, each started after the previous one ended, until the
next one would overrun S seconds. It prints the end-to-end metrics as
medians over the invocations, with times scaled to a reference host speed
(``REF_NOMINAL_S``). ``--trace 1`` runs the same command in one
interpreter with timing wrappers around each module's public functions
(``bench/traced.py``) and prints the per-layer metrics. Every output is
checked; a failed check counts as a failed run. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Metric names and units come from ``BENCHMARK.json``.

The program is run from ``src/`` as it stands, with ``PYTHONPATH``; there is
nothing to build. Working files go to ``.bench_work/<workload>/``, which each
run empties first.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REQUIRED = (
    os.path.join("src", "duelbias", "cli.py"),
    inputs.GENERATOR,
    "BENCHMARK.json",
)
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 6  # import-only invocations that sample set-up time
SETUP_PROBES_PER_INVOCATION = 2
MIN_INVOCATIONS = 2  # even when the first one takes more than half the run
RUN_BUDGET_S = 170.0  # a run must exit within 180 s
TAGS_TOP_K = 20  # the CLI's default --top-k

# Host speed reference. The speed of a shared host drifts by 10-20% over
# minutes, more than medians over one run remove. A fixed loop of
# pure-Python arithmetic and small numpy operations, the two kinds of work
# the workloads do, is timed in the parent before and after every child and,
# with the child stopped, every PAUSE_EVERY_S seconds while it runs. Each
# stretch of the child's time is scaled by REF_NOMINAL_S over the loop's mean
# time at its two ends, so times read as seconds on a host where the loop
# takes REF_NOMINAL_S. The constant only fixes the unit: the loop's typical
# time on a 2-vCPU x86_64 VM.
REF_LOOP = 100_000
REF_NUMPY_LOOP = 1_000
REF_REPEATS = 3
PAUSE_EVERY_S = 0.5  # longer than set-up, so the import is rarely paused
REF_NOMINAL_S = 0.012

# Paper defaults that the workloads cut so that one run fits its time budget.
PAPER_BOOTSTRAP = 1000
PAPER_REPLICATES = 50

# ROADMAP re-anchor: `bias --unit item --bootstrap 1000` on the 2,000-item set.
ROADMAP_RESAMPLE_LARGE_S = 9.8


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[str, int], dict]  # (directory, seed) -> input paths
    cli_args: Callable[[dict, int], list]  # (input paths, seed) -> arguments
    check: Callable[[str, dict], list]  # (output dir, input paths) -> errors
    output: str  # must be byte-identical across runs on the same inputs
    work: Callable[[dict, str], dict]  # (input paths, output dir) -> counts
    cuts: dict = field(default_factory=dict)


REFIT_BOOTSTRAP = 100
REFIT_CATEGORY = "pizza"
REFIT_DIMENSION = "tasty"
# refit-demo always reads the README demo set (generator seed 0) and takes the
# benchmark seed as the bootstrap seed. Across generated demo sets the MM sweep
# count of one tournament's bootstrap varies by 15-18% (interquartile range
# over median, six sets), more than a run that fits the time budget averages.
REFIT_DEMO_SEED = 0
SIMULATE_REPLICATES = 5
SIMULATE_BUDGETS = "100,200,500,1000,2000"

WORKLOADS = {
    "refit-demo": Workload(
        make_inputs=lambda d, seed: inputs.demo_set(ROOT, d, REFIT_DEMO_SEED),
        cli_args=lambda p, seed: [
            "bias", "--items", p["items"], "--duels", p["duels"],
            "--unit", "duel", "--bootstrap", str(REFIT_BOOTSTRAP),
            "--category", REFIT_CATEGORY, "--dimension", REFIT_DIMENSION,
            "--seed", str(seed),
        ],
        check=lambda out, p: checks.check_report(out, p["items"]),
        output="report.json",
        work=lambda p, out: _report_work(out, REFIT_BOOTSTRAP),
        cuts={"bootstrap": REFIT_BOOTSTRAP, "category": REFIT_CATEGORY,
              "dimension": REFIT_DIMENSION, "paper_bootstrap": PAPER_BOOTSTRAP,
              "demo_seed": REFIT_DEMO_SEED},
    ),
    "resample-large": Workload(
        make_inputs=lambda d, seed: inputs.large_set(ROOT, d, seed),
        cli_args=lambda p, seed: [
            "bias", "--items", p["items"], "--duels", p["duels"],
            "--unit", "item", "--bootstrap", str(PAPER_BOOTSTRAP),
        ],
        check=lambda out, p: checks.check_report(out, p["items"]),
        output="report.json",
        work=lambda p, out: _report_work(out, PAPER_BOOTSTRAP),
        cuts={"bootstrap": PAPER_BOOTSTRAP},
    ),
    "simulate-study": Workload(
        make_inputs=lambda d, seed: {},
        cli_args=lambda p, seed: [
            "simulate", "--items", "100", "--budgets", SIMULATE_BUDGETS,
            "--replicates", str(SIMULATE_REPLICATES), "--seed", str(seed),
        ],
        check=lambda out, p: checks.check_recovery(out),
        output="recovery_curve.csv",
        work=lambda p, out: {
            "fits": SIMULATE_REPLICATES * len(SIMULATE_BUDGETS.split(","))
        },
        cuts={"replicates": SIMULATE_REPLICATES,
              "paper_replicates": PAPER_REPLICATES},
    ),
    "tags-vocab": Workload(
        make_inputs=lambda d, seed: inputs.tag_vocab_set(d, seed),
        cli_args=lambda p, seed: ["tags", "--items", p["items"], "--tags", p["tags"]],
        check=lambda out, p: checks.check_tags(out, TAGS_TOP_K),
        output="distinctive_tags.csv",
        work=lambda p, out: _tag_work(p["tags"]),
    ),
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc)
    return env


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the package sources: identifies the code without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "duelbias")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(nproc: int, env: dict) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
    }


def run_child(cmd: list, env: dict, cwd: str, log_prefix: str, timeout: float,
              reference: float | None = None) -> dict:
    """Run one child to completion; wall time, CPU time and peak RSS.

    With ``reference``, the reference loop's time just before the spawn, the
    child is stopped every PAUSE_EVERY_S seconds while the loop is timed
    again, and the loop is timed once more after the child exits. Wall time
    excludes the pauses. ``scale`` turns it into seconds at the reference
    speed, each segment by the mean loop time at its two ends;
    ``setup_scale`` is the first segment's factor and ``reference_after``
    the last loop time.
    """
    env = dict(env)
    refs = [reference]
    segments = []
    status = None
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        start = time.perf_counter()
        env["BENCH_SPAWN_MONOTONIC"] = repr(time.monotonic())
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        pidfd = os.pidfd_open(proc.pid)
        try:
            segment_start = start
            pause_every = None if reference is None else PAUSE_EVERY_S
            while status is None:
                if select.select([pidfd], [], [], pause_every)[0]:
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if os.WIFSTOPPED(status):
                    status = None
                    segments.append(time.perf_counter() - segment_start)
                    refs.append(host_reference_s())
                    os.kill(proc.pid, signal.SIGCONT)
                    segment_start = time.perf_counter()
            segments.append(time.perf_counter() - segment_start)
        finally:
            timer.cancel()
            os.close(pidfd)
            if status is None:  # interrupted: never leave the child behind
                proc.kill()
                os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = {
        "rc": proc.returncode,
        "wall_s": sum(segments),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
    }
    if reference is not None:
        refs.append(host_reference_s())
        scaled = sum(seg * 2 * REF_NOMINAL_S / (before + after)
                     for seg, before, after in zip(segments, refs, refs[1:]))
        res.update(
            scale=scaled / res["wall_s"],
            setup_scale=2 * REF_NOMINAL_S / (refs[0] + refs[1]),
            reference_after=refs[-1],
            pauses=len(segments) - 1,
        )
    return res


def host_reference_s() -> float:
    """Median time of a fixed loop: the host's speed right now."""
    ones = np.ones(20)
    index = np.arange(20) % 7
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        x = 0
        for i in range(REF_LOOP):
            x += i * i
        acc = np.zeros(7)
        for _ in range(REF_NUMPY_LOOP):
            np.add.at(acc, index, ones)
            float(np.max(np.abs(np.log(ones + 1.0) - ones)))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _digest(path: str) -> str | None:
    try:
        return inputs.sha256(path)
    except OSError:
        return None


def _report_work(out_dir: str, bootstrap: int) -> dict:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as f:
        tournaments = json.load(f)["tournaments"]
    return {
        "tournaments": len(tournaments),
        "duels": sum(t["n_duels"] for t in tournaments.values()),
        "bootstrap_replicates": len(tournaments) * bootstrap,
    }


def _tag_work(tags_csv: str) -> dict:
    with open(tags_csv, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    return {
        "tag_rows": len(rows),
        "tag_mentions": sum(len(r["raw_tag"].split(",")) for r in rows),
    }


class Run:
    """State of one benchmark run: invocations attempted, failures, errors."""

    def __init__(self, workload: Workload, work_dir: str, env: dict, started: float):
        self.workload, self.work_dir, self.env = workload, work_dir, env
        self.started = started
        self.attempted = 0
        self.failed: set[str] = set()  # labels of failed invocations
        self.errors: list[str] = []
        self.output_digest: str | None = None

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def fail(self, label: str, message: str) -> None:
        self.failed.add(label)
        self.errors.append(f"{label}: {message}")

    def check_output(self, label: str, out_dir: str, paths: dict) -> bool:
        """Output checks plus byte-identity with the first run's output."""
        errors = self.workload.check(out_dir, paths)
        digest = _digest(os.path.join(out_dir, self.workload.output))
        if self.output_digest is None:
            self.output_digest = digest
        elif digest != self.output_digest:
            errors.append(f"{self.workload.output} differs from the first run's")
        for message in errors:
            self.fail(label, message)
        return not errors


def measure_cli(run: Run, paths: dict, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: medians over CLI invocations in fresh interpreters.

    Times are scaled to the reference host speed (see ``REF_NOMINAL_S``).
    """
    child = os.path.join(BENCH_DIR, "cli_child.py")
    setup = []
    probes = 0
    ref = host_reference_s()

    def run_scaled(cmd: list, log_prefix: str) -> dict:
        nonlocal ref
        res = run_child(cmd, run.env, ROOT, log_prefix, run.remaining(), ref)
        ref = res["reference_after"]
        return res

    def read_setup(setup_file: str, res: dict) -> None:
        with open(setup_file, encoding="utf-8") as f:
            res["setup_raw_s"] = float(f.read())
        setup.append(res["setup_raw_s"] * res["setup_scale"])

    def probe(k: int) -> None:
        setup_file = os.path.join(run.work_dir, f"setup-probe-{k}.txt")
        res = run_scaled([sys.executable, child, setup_file],
                         os.path.join(run.work_dir, f"setup-probe-{k}"))
        if res["rc"] != 0:
            run.errors.append(f"setup probe {k}: exit {res['rc']}")
            return
        read_setup(setup_file, res)

    deadline = time.perf_counter() + seconds
    samples = []
    work = None
    longest = 0.0  # longest round: probes, one invocation, reference loops
    # One output directory for every invocation: report.json records it.
    out_dir = os.path.join(run.work_dir, "out")
    while True:
        round_start = time.perf_counter()
        k = len(samples)
        # Set-up probes are spread over the run, a few before each invocation.
        for _ in range(SETUP_PROBES_PER_INVOCATION):
            if probes < SETUP_PROBES:
                probe(probes)
                probes += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        setup_file = os.path.join(run.work_dir, f"setup-{k}.txt")
        cmd = [sys.executable, child, setup_file,
               *run.workload.cli_args(paths, seed), "--output-dir", out_dir]
        res = run_scaled(cmd, os.path.join(run.work_dir, f"cli-{k}"))
        run.attempted += 1
        res["ok"] = res["rc"] == 0
        if not res["ok"]:
            run.fail(f"cli-{k}", f"exit {res['rc']}")
        else:
            res["ok"] = run.check_output(f"cli-{k}", out_dir, paths)
            if res["ok"] and work is None:
                work = run.workload.work(paths, out_dir)
            read_setup(setup_file, res)
        samples.append(res)
        longest = max(longest, time.perf_counter() - round_start)
        if not res["ok"] or run.remaining() < 2 * longest:
            break
        if len(samples) >= MIN_INVOCATIONS and time.perf_counter() + longest > deadline:
            break

    good = [s for s in samples if s["ok"]] or samples
    metrics = {
        key: statistics.median(s[key] * s["scale"] for s in good)
        for key in ("wall_s", "cpu_s")
    }
    metrics["peak_rss_mib"] = statistics.median(s["peak_rss_mib"] for s in good)
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    raw = {
        key: statistics.median(s[key] for s in good)
        for key in ("wall_s", "cpu_s", "scale")
    }
    notes = {"samples": samples, "setup_samples": setup, "work": work, "raw": raw}
    return metrics, notes


def measure_traced(run: Run, paths: dict, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced in-process run (bench/traced.py)."""
    result_path = os.path.join(run.work_dir, "traced.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "traced.py"), result_path,
           os.path.join(run.work_dir, "spans.tsv"), repr(float(seconds)),
           os.path.join(run.work_dir, "out"), "--",
           *run.workload.cli_args(paths, seed)]
    res = run_child(cmd, run.env, ROOT, os.path.join(run.work_dir, "traced"),
                    run.remaining())
    if res["rc"] != 0:
        run.attempted += 1
        run.fail("traced.py", f"exit {res['rc']}")
        return {}, {}
    with open(result_path, encoding="utf-8") as f:
        traced = json.load(f)
    work = None
    for r in traced["runs"]:
        run.attempted += 1
        if r["rc"] != 0:
            run.fail(r["label"], f"exit {r['rc']}")
        elif run.check_output(r["label"], r["out_dir"], paths) and work is None:
            work = run.workload.work(paths, r["out_dir"])
    notes = dict(traced["notes"], work=work)
    notes["main_s"] = {r["label"]: r["seconds"] for r in traced["runs"]}
    return traced["metrics"], notes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        _fail(f"not a duelbias checkout, missing {', '.join(missing)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    start = time.perf_counter()
    paths = workload.make_inputs(os.path.join(work_dir, "inputs"), args.seed)
    inputs_s = time.perf_counter() - start
    digests = {key: inputs.sha256(path) for key, path in sorted(paths.items())}

    run = Run(workload, work_dir, env, start)
    measure = measure_traced if args.trace else measure_cli
    values, notes = measure(run, paths, args.seed, args.seconds)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(nproc, env),
        "parameters": workload.cuts,
        "command": ["duelbias", *workload.cli_args(paths, args.seed)],
        "inputs_sha256": digests,
        "inputs_s": inputs_s,
        "errors": run.errors,
        "notes": notes,
    }
    if args.workload == "resample-large" and not args.trace and "raw" in notes:
        raw_wall = notes["raw"]["wall_s"]  # the ROADMAP's figure is unscaled
        record["roadmap_gap"] = {
            "roadmap_wall_s": ROADMAP_RESAMPLE_LARGE_S,
            "measured_wall_s": raw_wall,
            "ratio": raw_wall / ROADMAP_RESAMPLE_LARGE_S,
        }
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for key in ("environment", "parameters", "command", "inputs_sha256"):
        print(f"{key}: {json.dumps(record[key], sort_keys=True)}")
    for key, value in notes.items():
        if key not in ("samples", "calls", "setup_samples"):
            print(f"{key}: {json.dumps(value)}")
    if "roadmap_gap" in record:
        print(f"roadmap_gap: {json.dumps(record['roadmap_gap'])}")
    attempted = max(run.attempted, 1)
    print(f"error_rate: {len(run.failed)}/{run.attempted} invocations failed")
    for message in run.errors:
        print(f"check failed: {message}")

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            run.errors.append(f"metric {m['name']} not measured")
            print(f"check failed: metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32s} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": attempted,
        "failed": min(len(run.failed), attempted),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
