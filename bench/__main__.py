"""``python -m bench``: run the workloads, print every metric, check outputs.

Two ways in:

* for people, ``python -m bench [--workload NAME] [--seed N] [--quick]
  [--selfcheck]`` runs each workload untraced and traced, prints
  ``workload metric value unit`` lines and writes the full record under
  ``bench/results/``;
* for the benchmark driver, ``python -m bench --workload NAME --seed N
  --seconds S --trace 0|1`` measures one workload one way and prints one
  JSON object as the last line of standard output.

Either way the exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from bench import orchestrate as orch
from bench.spec import END_TO_END, UNITS, WORKLOADS


def _benchmark_json() -> dict:
    with open(os.path.join(orch.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _print_metrics(outcome: orch.Outcome) -> None:
    for name, value in outcome.metrics.items():
        print(f"{outcome.workload} {name} {value:.6g} {UNITS[name]}")


def _report_problems(outcome: orch.Outcome) -> None:
    for problem in outcome.problems:
        print(f"FAIL {outcome.workload}: {problem}", file=sys.stderr)
    if outcome.failed:
        print(
            f"FAIL {outcome.workload}: {outcome.failed} of {outcome.attempted} "
            "operations failed",
            file=sys.stderr,
        )
    for row in outcome.cross_check:
        if not 0.9 <= row["ratio"] <= 1.1:
            print(
                f"warning {outcome.workload}: bench spans / program timer for "
                f"{row['what']} = {row['ratio']:.3f} "
                f"({row['bench_s']:.4f} s / {row['program_s']:.4f} s)",
                file=sys.stderr,
            )


def run_driver(args) -> int:
    """One workload, one way, one JSON line."""
    measure = orch.measure_layers if args.trace else orch.measure_end_to_end
    outcome = measure(args.workload, args.seed, args.seconds, args.quick)
    _report_problems(outcome)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": orch.driver_metrics(outcome, bool(args.trace)),
            }
        )
    )
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Every selected workload both ways; prints and records everything."""
    names = [args.workload] if args.workload else [name for name, _ in WORKLOADS]
    os.makedirs(orch.RESULTS_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    record = {"host": orch.host_metadata(), "seed": args.seed,
              "seconds": args.seconds, "quick": args.quick, "workloads": {}}
    ok = True
    for name in names:
        spans_path = os.path.join(orch.RESULTS_DIR, f"{stamp}-{name}-spans.json")
        e2e = orch.measure_end_to_end(name, args.seed, args.seconds, args.quick)
        layers = orch.measure_layers(
            name, args.seed, args.seconds, args.quick, spans_path=spans_path
        )
        failed = e2e.failed + layers.failed
        attempted = e2e.attempted + layers.attempted
        _print_metrics(e2e)
        print(f"{name} failed_frac {failed / attempted:.6g} frac")
        _print_metrics(layers)
        for outcome in (e2e, layers):
            _report_problems(outcome)
            ok = ok and outcome.correct
        record["workloads"][name] = {
            "end_to_end": e2e.metrics,
            "per_layer": layers.metrics,
            "failed": failed,
            "attempted": attempted,
            "problems": e2e.problems + layers.problems,
            "cross_check": layers.cross_check,
            "runs": e2e.runs + layers.runs,
            "spans_file": os.path.basename(spans_path),
        }
    record["host"]["load_average_after"] = list(os.getloadavg())
    path = os.path.join(orch.RESULTS_DIR, f"{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"record written to {os.path.relpath(path, orch.ROOT)}", file=sys.stderr)
    return 0 if ok else 1


def run_selfcheck(args) -> int:
    """Two sets of untraced runs of this checkout, alternating workload
    order; every end-to-end metric must agree within its bound."""
    names = [args.workload] if args.workload else [name for name, _ in WORKLOADS]
    sets: list[dict[str, orch.Outcome]] = []
    for order in (names, list(reversed(names))):
        sets.append(
            {n: orch.measure_end_to_end(n, args.seed, args.seconds, args.quick)
             for n in order}
        )
    ok = True
    for name in names:
        for outcome in (sets[0][name], sets[1][name]):
            _report_problems(outcome)
            ok = ok and outcome.correct
        for metric, unit, better, bound in END_TO_END:
            a, b = sets[0][name].metrics[metric], sets[1][name].metrics[metric]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "ok" if abs(worse) <= bound else "DISAGREE"
            ok = ok and verdict == "ok"
            print(
                f"{name} {metric} {a:.6g} {b:.6g} {unit} "
                f"differ {abs(worse):.2%} bound {bound:.0%} {verdict}"
            )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--quick", action="store_true",
                        help=f"{orch.QUICK_SEGMENTS} timed steps per run")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets of runs must agree within the bounds")
    args = parser.parse_args(argv)
    try:
        orch.check_checkout()
        if args.seconds is None:
            args.seconds = float(_benchmark_json()["run_seconds"])
        if args.trace is not None:
            if not args.workload:
                parser.error("--trace needs --workload")
            return run_driver(args)
        if args.selfcheck:
            return run_selfcheck(args)
        return run_all(args)
    except (orch.BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(orch.WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
