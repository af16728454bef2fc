"""Spans + program counters -> the per-layer metrics of ``bench.spec``.

Three kinds of number come out of a traced run:

* *self-time* metrics: every span names the metric its self time is charged
  to, so these partition each rank's wall; the figure reported is the
  largest over ranks (the slowest rank sets the step);
* *view* metrics: the inclusive time of one labelled boundary (a bridge
  phase, the endpoint's receive loop, the READY wait), which overlap the
  self-time metrics on purpose;
* counts and bytes, read on rank 0 where they repeat exactly, from span
  amounts or from the program's own trace counters.
"""

from __future__ import annotations

from bench import spans as sp
from bench.spec import PER_LAYER, layers_of, tail_percentile

#: Self-time metrics: span metric name == per-layer metric name.
_SELF_TIME = [
    name
    for name, _, _, kind in PER_LAYER
    if kind == "self"
]

#: View metrics: per-layer name -> span label whose inclusive time it is.
_VIEWS = {
    "core.bridge_init_s": "bridge.initialize",
    "core.bridge_execute_s": "bridge.execute",
    "core.bridge_finalize_s": "bridge.finalize",
}

_WAIT_LABELS = ("mpi.recv", "mpi.recv_with_status", "mpi.sendrecv", "mpi.barrier")


def layer_metrics(result: dict) -> dict[str, float]:
    """Every per-layer metric on this workload's path, except
    ``trace.overhead_frac`` (which needs the untraced run beside it)."""
    ranks = {k: v for k, v in result["spans"].items() if k != "main"}
    per_metric = {k: sp.by_metric(v) for k, v in ranks.items()}
    per_label = {k: sp.by_label(v) for k, v in ranks.items()}
    out: dict[str, float] = {}

    for name in _SELF_TIME:
        values = [m[name] for m in per_metric.values() if name in m]
        if values:
            out[name] = max(values)
    for name, label in _VIEWS.items():
        values = [lab[label][0] for lab in per_label.values() if label in lab]
        if values:
            out[name] = max(values)

    rank0 = per_label.get("0", {})
    collectives = [v for k, v in rank0.items()
                   if k.startswith("mpi.") and k[4:] in sp._COLLECTIVES]
    p2p = [v for k, v in rank0.items() if k.startswith("mpi.") and k[4:] in sp._P2P]
    if collectives or p2p:
        out["mpi.collective_count"] = sum(v[1] for v in collectives)
        out["mpi.p2p_count"] = sum(v[1] for v in p2p)
        out["mpi.wait_s"] = max(
            sum(lab[w][0] for w in _WAIT_LABELS if w in lab)
            for lab in per_label.values()
        )
    if "encode_png" in rank0:
        seconds, frames, png_bytes = rank0["encode_png"]
        out["render.frames"] = frames
        out["render.png_bytes"] = png_bytes
        out["render.png_mb_per_s"] = png_bytes / 1e6 / seconds

    # -- launch/join: the launcher call on the main thread against the rank
    # programs' root spans.
    main = {s[sp.LABEL]: s for s in result["spans"].get("main", [])}
    roots = [v[0] for v in ranks.values() if v and v[0][sp.LABEL] == "rank.program"]
    if "run_spmd" in main and roots:
        call = main["run_spmd"]
        out["mpi.launch_s"] = max(r[sp.T0] for r in roots) - call[sp.T0]
        out["mpi.join_s"] = call[sp.T1] - max(r[sp.T1] for r in roots)
    if "service.server_start" in main:
        s = main["service.server_start"]
        out["service.server_start_s"] = s[sp.T1] - s[sp.T0]

    # -- the program's own counters (bytes only; never times).
    counters = result.get("counters", {})
    if counters:
        def total(suffix: str) -> float:
            return sum(v for k, v in counters.items()
                       if k.startswith("mpi::") and k.endswith(suffix))

        payload = sum(
            v for k, v in counters.items()
            if k.startswith("mpi::") and k.endswith("::bytes")
        )
        if payload:
            out["mpi.payload_bytes"] = payload
            out["mpi.bytes_shm"] = total("::bytes::shm")
            out["mpi.bytes_pickled"] = total("::bytes::pickled")
        if "sensei::bytes_zero_copy" in counters or "sensei::bytes_copied" in counters:
            out["core.bytes_zero_copy"] = counters.get("sensei::bytes_zero_copy", 0.0)
            out["core.bytes_copied"] = counters.get("sensei::bytes_copied", 0.0)
        if "adios::bytes_copied" in counters:
            out["infrastructure.flexpath_copy_bytes"] = counters["adios::bytes_copied"]

    # -- rank 0's wall not under any span, and the step-time tail.
    if "0" in ranks and ranks["0"]:
        root = ranks["0"][0]
        wall = root[sp.T1] - root[sp.T0]
        out["driver.unattributed_frac"] = (
            per_metric["0"].get(sp.UNATTRIBUTED, 0.0) / wall
        )
    steps = sorted(result["log"]["step_s"])
    if steps:
        pct = tail_percentile(len(steps))
        out["driver.step_tail_ms"] = 1e3 * steps[min(len(steps) - 1, int(pct / 100.0 * len(steps)))]
        out["driver.step_tail_pct"] = pct
        out["driver.step_samples"] = len(steps)
    out["trace.spans"] = sum(len(v) for v in result["spans"].values())

    if "cells_per_step" in result and out.get("miniapp.advance_s"):
        out["miniapp.cells_per_s"] = (
            result["cells_per_step"] * result["attempted"] / out["miniapp.advance_s"]
        )
    write_s = sum(out.get(f"storage.{w}_write_s", 0.0) for w in ("vtk", "mpiio", "bp"))
    if "storage.write_bytes" in result.get("layer_extras", {}) and write_s:
        out["storage.write_mb_per_s"] = (
            result["layer_extras"]["storage.write_bytes"] / 1e6 / write_s
        )
    out.update(result.get("layer_extras", {}))
    # A layer on this workload's path that recorded nothing did no work.
    return {name: out.get(name, 0.0) for name in layers_of(result["workload"])}


def inclusive(result: dict, rank: str, label: str, under: str | None = None) -> float:
    """Inclusive seconds of ``label`` spans on one rank, optionally only
    those whose parent span is labelled ``under``."""
    spans = result["spans"].get(rank, [])
    total = 0.0
    for s in spans:
        if s[sp.LABEL] != label:
            continue
        if under is not None:
            parent = spans[s[sp.PARENT]] if s[sp.PARENT] >= 0 else None
            if parent is None or parent[sp.LABEL] != under:
                continue
        total += s[sp.T1] - s[sp.T0]
    return total


def cross_check(result: dict, pairs: list[tuple[str, str, list[str], str]]) -> list[dict]:
    """Bench span total over the program's own timer, per boundary.

    ``pairs`` holds ``(what, rank, span labels, program timer name)``.
    Report-only: a later in-program tracing issue starts from these gaps.
    """
    rows = []
    for what, rank, labels, timer in pairs:
        bench = sum(inclusive(result, rank, label) for label in labels)
        timers = result["timers"].get(rank, {})
        program = timers.get(timer, 0.0)
        if bench and program:
            rows.append(
                {"what": what, "bench_s": bench, "program_s": program,
                 "ratio": bench / program}
            )
    return rows
