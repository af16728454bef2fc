"""Spawn worker runs, reduce their records to metrics, check the outputs.

This process never imports ``repro``.  Every worker is a fresh subprocess in
a session of its own, so set-up time and peak RSS are per run, pools do not
leak between workloads, and anything a worker leaves running can be found
(and is reported as a failure) after it exits.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from bench.harness import process_table
from bench.spec import END_TO_END, PER_LAYER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, ".work")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

#: A worker is killed (and the run fails) after this long.
WORKER_TIMEOUT_S = 150.0
#: How long a worker's helpers get to exit after it before they count as
#: left behind.
STRAY_GRACE_S = 3.0
#: Set-up-only runs before the measuring run; ``setup_s`` is the median of
#: all of them and the measuring run's own set-up.
SETUP_RUNS = 3
#: Steps of a ``--quick`` run.
QUICK_SEGMENTS = 5


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def check_checkout() -> None:
    """Refuse to run without the program's sources beside ``bench/``."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(
            f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing"
        )


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # The workloads choose their SPMD backend themselves.
    env.pop("REPRO_SPMD_BACKEND", None)
    return env


def _session_members(sid: int) -> list[int]:
    """Live processes whose session id is ``sid``."""
    return [
        pid for pid, state, _, session in process_table()
        if session == sid and state != "Z"
    ]


@dataclass
class WorkerRun:
    record: dict
    peak_rss_mib: float
    wall_s: float


_serial = 0


def spawn_worker(
    workload: str,
    seed: int,
    seconds: float,
    segments: int | None,
    seg_steps: int | None,
    traced: bool,
    spans_path: str | None = None,
) -> WorkerRun:
    """One worker run to completion; raises :class:`BenchError` if it
    crashed, hung or left a process behind."""
    global _serial
    _serial += 1
    os.makedirs(WORK_DIR, exist_ok=True)
    tag = f"{os.getpid()}-{_serial}"
    workdir = os.path.join(WORK_DIR, f"tree-{tag}")
    record_path = os.path.join(WORK_DIR, f"record-{tag}.json")
    log_path = os.path.join(WORK_DIR, f"worker-{tag}.log")
    spawn_t = time.monotonic()
    argv = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--spawn-t", repr(spawn_t),
        "--workdir", workdir, "--record", record_path,
    ]
    if segments is not None:
        argv += ["--segments", str(segments)]
    if seg_steps is not None:
        argv += ["--seg-steps", str(seg_steps)]
    if traced:
        argv.append("--traced")
        if spans_path:
            argv += ["--spans", spans_path]
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_worker_env(), stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    # wait4 rather than Popen.wait: its rusage is this child's alone (with
    # the descendants it reaped), so peak RSS is per run.
    deadline = spawn_t + WORKER_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise BenchError(f"{workload}: worker timed out; see {log_path}")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - spawn_t
    # multiprocessing's resource tracker exits a moment after the worker
    # whose pipe it watches; anything still there after the grace is a leak.
    grace = time.monotonic() + STRAY_GRACE_S
    while (strays := _session_members(proc.pid)) and time.monotonic() < grace:
        time.sleep(0.02)
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        with open(log_path, "r", errors="replace") as fh:
            tail = fh.read()[-4000:]
        raise BenchError(
            f"{workload}: worker exited with {proc.returncode}\n{tail}"
        )
    with open(record_path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    record["leaks"] += [f"process {pid} outlived the worker" for pid in strays]
    os.remove(record_path)
    os.remove(log_path)
    return WorkerRun(record, usage.ru_maxrss / 1024.0, wall)


# -- reducing records to metrics ------------------------------------------------


def _median_rate(segments: list) -> float:
    return statistics.median(steps / wall for steps, wall in segments)


def end_to_end_metrics(runs: list[WorkerRun]) -> dict[str, float]:
    """The end-to-end metrics of one workload from its untraced runs; the
    last run is the measuring one, the others ran set-up only."""
    log = runs[-1].record["log"]
    total_step = sum(log["step_s"])
    return {
        "setup_s": statistics.median(r.record["log"]["setup_s"] for r in runs),
        "steps_per_s": _median_rate(log["segments"]),
        "step_p50_ms": 1e3 * statistics.median(log["step_s"]),
        "insitu_frac": 1.0 - sum(log["advance_s"]) / total_step,
        "peak_rss_mb": max(r.peak_rss_mib for r in runs),
        "artifact_bytes_per_step": runs[-1].record["artifact_bytes"]
        / runs[-1].record["artifact_steps"],
    }


@dataclass
class Outcome:
    """What one ``--trace 0`` or ``--trace 1`` measurement of a workload
    produced."""

    workload: str
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    cross_check: list[dict] = field(default_factory=list)
    runs: list[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _collect(outcome: Outcome, run: WorkerRun, what: str) -> None:
    rec = run.record
    outcome.attempted += rec["attempted"]
    outcome.failed += rec["failed"]
    outcome.problems += [
        f"{what}: check {name} failed" for name, ok in rec["checks"].items() if not ok
    ]
    outcome.problems += [f"{what}: left behind {leak}" for leak in rec["leaks"]]
    outcome.runs.append(
        {
            "what": what,
            "wall_s": run.wall_s,
            "peak_rss_mb": run.peak_rss_mib,
            "attempted": rec["attempted"],
            "failed": rec["failed"],
            "checks": rec["checks"],
            "setup_s": rec["log"]["setup_s"],
            "steps": len(rec["log"]["step_s"]),
            "segments": len(rec["log"]["segments"]),
        }
    )


def measure_end_to_end(workload: str, seed: int, seconds: float, quick: bool) -> Outcome:
    """Untraced: ``SETUP_RUNS`` set-up-only runs, then the measuring run."""
    outcome = Outcome(workload, {}, 0, 0)
    runs = []
    if not quick:
        for i in range(SETUP_RUNS):
            runs.append(spawn_worker(workload, seed, 0.0, 0, None, traced=False))
            _collect(outcome, runs[-1], f"set-up run {i + 1}")
    segments, seg_steps = (QUICK_SEGMENTS, 1) if quick else (None, None)
    runs.append(spawn_worker(workload, seed, seconds, segments, seg_steps, traced=False))
    _collect(outcome, runs[-1], "untraced run")
    outcome.metrics = end_to_end_metrics(runs)
    return outcome


def _compare_fingerprints(a: dict, b: dict) -> list[str]:
    """Names of artifacts that differ between two runs over the steps both
    of them ran."""
    differing = []
    for name in sorted(set(a) & set(b)):
        common = set(a[name]) & set(b[name])
        if not common:
            differing.append(f"{name}: no common step")
        elif any(a[name][k] != b[name][k] for k in common):
            differing.append(name)
    return differing


def measure_layers(
    workload: str, seed: int, seconds: float, quick: bool, spans_path: str | None = None
) -> Outcome:
    """A short untraced reference run, then the traced run: per-layer
    metrics, tracing overhead, and the checks that need both runs."""
    outcome = Outcome(workload, {}, 0, 0)
    segments, seg_steps = (QUICK_SEGMENTS, 1) if quick else (None, None)
    reference = spawn_worker(
        workload, seed, seconds / 4.0, segments, seg_steps, traced=False
    )
    _collect(outcome, reference, "reference run")
    traced = spawn_worker(
        workload, seed, seconds / 2.0, segments, seg_steps, traced=True,
        spans_path=spans_path,
    )
    _collect(outcome, traced, "traced run")
    layers = dict(traced.record["layers"])
    layers["trace.overhead_frac"] = (
        statistics.median(traced.record["log"]["step_s"])
        / statistics.median(reference.record["log"]["step_s"])
        - 1.0
    )
    outcome.metrics = layers
    outcome.cross_check = traced.record["cross_check"]
    outcome.problems += [
        f"untraced and traced runs differ in {name}"
        for name in _compare_fingerprints(
            reference.record["fingerprints"], traced.record["fingerprints"]
        )
    ]
    if layers.get("driver.unattributed_frac", 0.0) > 0.05:
        outcome.problems.append(
            f"spans cover only {1 - layers['driver.unattributed_frac']:.1%} of rank 0's wall"
        )
    return outcome


def driver_metrics(outcome: Outcome, traced: bool) -> dict[str, dict]:
    """The ``metrics`` object of the driver's result line: every end-to-end
    metric, or every per-layer metric (0 where a layer is not on this
    workload's path)."""
    if traced:
        return {
            name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
            for name, unit, _, _ in PER_LAYER
        }
    return {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit, _, _ in END_TO_END
    }


def host_metadata() -> dict:
    """What the numbers were measured on."""
    def run(argv: list[str]) -> str:
        try:
            return subprocess.run(
                argv, cwd=ROOT, capture_output=True, text=True, timeout=20.0
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    numpy_version = run([sys.executable, "-c", "import numpy; print(numpy.__version__)"])
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version or "unknown",
        "git_sha": run(["git", "rev-parse", "HEAD"]) or "unknown",
        "load_average": list(os.getloadavg()),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
