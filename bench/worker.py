"""One run of one workload, in a process of its own.

``python -m bench.worker`` is started by ``bench.orchestrate`` with
``src/`` on ``PYTHONPATH``; it is the only bench process that imports
``repro``.  It writes one JSON record to ``--record`` and, when traced, the
raw spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--segments", type=int, default=None)
    parser.add_argument("--seg-steps", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from bench.harness import Plan, leaks

    workload = importlib.import_module(f"bench.workloads.{args.workload}")
    plan = Plan(
        traced=args.traced,
        seconds=args.seconds,
        segments=args.segments,
        seg_steps=args.seg_steps or workload.SEG_STEPS,
        warmup=workload.WARMUP,
        spawn_t=args.spawn_t,
        workdir=args.workdir,
    )
    if args.traced:
        from bench.spans import install_shims

        install_shims()
    os.makedirs(plan.workdir)
    try:
        result = workload.run(plan, args.seed)
    finally:
        shutil.rmtree(plan.workdir, ignore_errors=True)
    result["workload"] = args.workload
    record = {
        key: result[key]
        for key in ("log", "attempted", "failed", "checks", "fingerprints",
                    "artifact_bytes", "artifact_steps")
    }
    record["workload"] = args.workload
    record["traced"] = args.traced
    record["leaks"] = leaks(plan.workdir)
    if args.traced:
        from bench.layers import cross_check, layer_metrics

        record["layers"] = layer_metrics(result)
        record["cross_check"] = cross_check(result, workload.CROSS_CHECK)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(result["spans"], fh)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
