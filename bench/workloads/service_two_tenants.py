"""``repro serve`` as a child process, two closed-loop tenant clients.

Tenant ``a`` is placed in-line and ``b`` staged on the same server, so a
gain for one placement that costs the other shows.  Each client thread
submits its next step only after the previous ``submit`` returned (closed
loop, 2 connections), replaying a precomputed ring of 256x256 float64
frames (512 KiB per step).  This is the only workload through
``mpi.framing``, ``service.protocol``, ``policy``, ``endpoint`` and
``server``.

The server runs in another process, so its layers are seen from outside:
client-side spans around ``connect``/``submit``/``finish`` plus what the
server itself writes (``cost_report.json``, ``histograms.json``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
import zlib

from bench import inputs
from bench.harness import Plan, counter_totals, tree_bytes
from bench.spans import RootSpan, make_tracer

TENANTS = (("a", "in-line"), ("b", "staged"))
SHAPE = (256, 256)
RING = 32
SECRET = "bench-secret"
CREDITS = 4
RESOLUTION = "160x90"
BINS = 32
SEG_STEPS = 1
#: Untimed steps per tenant before the timed phase.
WARMUP = 50
#: Length of one throughput window when the run is timed by the clock.
WINDOW_S = 0.5
SERVER_START_TIMEOUT = 60.0
SERVER_EXIT_TIMEOUT = 60.0

CROSS_CHECK: list = []


def _stop(server: subprocess.Popen) -> None:
    """Kill the ``serve`` child with a bounded wait; never raises."""
    if server.poll() is None:
        server.terminate()
        try:
            server.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=5.0)


def run(plan: Plan, seed: int) -> dict:
    from repro.service import ServiceClient, issue_token
    from repro.trace import TraceSession

    # AF_UNIX paths are limited to ~107 bytes: name the socket relative to
    # the working directory (the checkout's root), so its length does not
    # depend on where the checkout is.
    tree = os.path.relpath(plan.workdir)
    sock = os.path.join(tree, "s.sock")
    out_dir = os.path.join(tree, "out")
    frames = {t: inputs.tenant_frames(seed, t, RING, SHAPE) for t, _ in TENANTS}
    payload_bytes = frames["a"][0].nbytes
    session = TraceSession() if plan.traced else None
    main = make_tracer(plan.traced, -1)

    log = open(os.path.join(tree, "serve.log"), "wb")
    idx = main.begin("service.server_start", "service.server_start_s") if plan.traced else None
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", sock, "--out", out_dir,
            "--tenants", ",".join(f"{t}:{p}" for t, p in TENANTS),
            "--secret", SECRET, "--credits", str(CREDITS),
            "--resolution", RESOLUTION, "--bins", str(BINS),
            "--expect", str(len(TENANTS)),
        ],
        stdout=log, stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while not os.path.exists(sock):
            if server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not come up; see serve.log")
            time.sleep(0.005)
        if idx is not None:
            main.end(idx)

        start = threading.Barrier(len(TENANTS))
        out: dict[str, dict] = {}
        errors: list[BaseException] = []
        clock = {}

        def tenant(slot: int, name: str) -> None:
            tracer = make_tracer(plan.traced, slot)
            root = RootSpan(tracer)
            ring = frames[name]
            client = ServiceClient(
                sock, name, issue_token(SECRET, name),
                trace=session.recorder(slot, label=name) if session else None,
            )
            with tracer.span("service.connect", "service.connect_s"):
                client.connect()
            channel = client.channel
            step = 0

            produce: list[float] = []

            def submit() -> float:
                nonlocal step
                tracer.step = step
                t0 = time.perf_counter()
                frame = ring[step % RING]
                t1 = time.perf_counter()
                with tracer.span("service.submit", "service.submit_s"):
                    client.submit(step, 0.01 * step, {"data": frame})
                step += 1
                t2 = time.perf_counter()
                produce.append(t1 - t0)
                return t2 - t0

            for _ in range(plan.warmup):
                submit()
            produce.clear()
            with tracer.span("driver.start_barrier", "driver.agree_s"):
                start.wait(timeout=60.0)
            if slot == 0:
                clock["setup_s"] = time.monotonic() - plan.spawn_t
            begin = time.perf_counter()
            durations: list[float] = []
            done_at: list[float] = []
            if plan.segments is not None:
                for _ in range(plan.segments * plan.seg_steps):
                    durations.append(submit())
                    done_at.append(time.perf_counter() - begin)
            else:
                while time.perf_counter() - begin < plan.seconds:
                    durations.append(submit())
                    done_at.append(time.perf_counter() - begin)
            with tracer.span("service.finish", "service.finish_s"):
                summary = client.finish()
            root.close_root()
            out[name] = {
                "durations": durations,
                "produce": produce,
                "done_at": done_at,
                "steps": step,
                "verdicts": [v for _, v in client.verdicts],
                "summary": summary,
                "retransmits": channel.retransmits,
                "spans": tracer.dump(),
            }

        def guarded(slot: int, name: str) -> None:
            try:
                tenant(slot, name)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                start.abort()

        threads = [
            threading.Thread(target=guarded, args=(slot, name), name=f"tenant-{name}")
            for slot, (name, _) in enumerate(TENANTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        # --expect makes the server exit by itself once both tenants ended.
        try:
            server.wait(timeout=SERVER_EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise RuntimeError("repro serve did not exit after its tenants finished")
    finally:
        _stop(server)
        log.close()

    # -- correctness: every verdict admits, one histogram entry and one PNG
    # per step, per tenant.
    failed = 0
    attempted = 0
    fingerprints: dict[str, dict] = {}
    checks = {"server_exit_code_0": server.returncode == 0}
    for name, _ in TENANTS:
        t = out[name]
        attempted += t["steps"]
        not_admitted = sum(1 for v in t["verdicts"] if v != "admit")
        not_admitted += t["steps"] - len(t["verdicts"])
        tenant_dir = os.path.join(out_dir, "tenants", name)
        with open(os.path.join(tenant_dir, "histograms.json")) as fh:
            histograms = json.load(fh)
        entries = len(histograms)
        fingerprints[f"histograms_{name}"] = {
            str(h["step"]): zlib.crc32(json.dumps(h["counts"]).encode())
            for h in histograms
        }
        pngs = sum(1 for n in os.listdir(tenant_dir) if n.endswith(".png"))
        failed += not_admitted + abs(t["steps"] - entries) + abs(t["steps"] - pngs)
        checks[f"{name}_every_verdict_admit"] = not_admitted == 0
        checks[f"{name}_histogram_entry_per_step"] = entries == t["steps"]
        checks[f"{name}_png_per_step"] = pngs == t["steps"]
    with open(os.path.join(out_dir, "cost_report.json")) as fh:
        cost = json.load(fh)

    # The step log pools both tenants; throughput windows count completions
    # of either tenant.
    durations = [d for name, _ in TENANTS for d in out[name]["durations"]]
    done = sorted(x for name, _ in TENANTS for x in out[name]["done_at"])
    segments: list[tuple[int, float]] = []
    if done:
        span = min(out[name]["done_at"][-1] for name, _ in TENANTS)
        windows = max(1, round(span / WINDOW_S)) if plan.segments is None else 1
        width = span / windows
        counts = [0] * windows
        for x in done:
            if x <= span:
                counts[min(windows - 1, int(x / width))] += 1
        segments = [(c, width) for c in counts]
    rates = {
        name: len(out[name]["done_at"]) / out[name]["done_at"][-1]
        for name, _ in TENANTS
        if out[name]["done_at"]
    }
    result = {
        "log": {
            "setup_s": clock.get("setup_s", 0.0),
            # The client's "simulation" is fetching a precomputed frame, so
            # nearly all of a step is the service.
            "advance_s": [p for name, _ in TENANTS for p in out[name]["produce"]],
            "step_s": durations,
            "segments": segments,
        },
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "fingerprints": fingerprints,
        "artifact_bytes": tree_bytes(out_dir),
        "artifact_steps": attempted,
        "spans": {"main": main.dump(),
                  **{str(slot): out[name]["spans"] for slot, (name, _) in enumerate(TENANTS)}},
        "timers": {},
        "counters": counter_totals(session),
    }
    if plan.traced:
        verdicts = [v for name, _ in TENANTS for v in out[name]["verdicts"]]
        result["layer_extras"] = {
            "service.submit_inline_p50_ms": 1e3 * statistics.median(out["a"]["durations"]),
            "service.submit_staged_p50_ms": 1e3 * statistics.median(out["b"]["durations"]),
            "service.admit_frac": sum(1 for v in verdicts if v == "admit") / len(verdicts),
            "service.shed_count": sum(
                out[name]["summary"].get("steps_shed", 0) for name, _ in TENANTS
            ),
            "service.retransmits": sum(out[name]["retransmits"] for name, _ in TENANTS),
            "service.fairness": min(rates.values()) / max(rates.values()),
            "service.payload_bytes": payload_bytes * attempted,
            "service.endpoint_cost_s": cost["totals"]["analysis_seconds"],
        }
    return result
