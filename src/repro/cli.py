"""Command-line interface: regenerate the paper's tables and figures.

::

    python -m repro list              # available experiments
    python -m repro run fig10         # one experiment's rows
    python -m repro run all           # everything
    python -m repro run table1 fig17  # a subset
    python -m repro chaos --seed 42   # seeded fault-injection harness
    python -m repro nbody --ranks 2   # particle miniapp through all 4 infras
    python -m repro serve --socket /tmp/repro.sock --tenants a,b --secret s
    python -m repro submit --socket /tmp/repro.sock --tenant a --secret s
    python -m repro report trace.json # Sec. 4.1.1 phase breakdown of a trace
    python -m repro report measured.json --against modeled.json   # model diff
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import available_experiments, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation tables/figures of 'Performance "
            "Analysis, Design Considerations, and Applications of "
            "Extreme-scale In Situ Infrastructures' (SC'16) from the "
            "calibrated performance model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument(
        "experiments",
        nargs="+",
        help="experiment names (see 'list'), or 'all'",
    )
    report = sub.add_parser(
        "report",
        help=(
            "render the Sec. 4.1.1 phase breakdown (one-time vs per-timestep, "
            "mean/max across ranks) of a Chrome trace JSON file"
        ),
    )
    report.add_argument("trace", help="Chrome trace JSON (TraceSession.export)")
    report.add_argument(
        "--against",
        metavar="TRACE",
        help=(
            "second trace to diff against (e.g. a modeled timeline from "
            "repro.trace.session_from_breakdown); prints per-phase "
            "measured/modeled ratios"
        ),
    )
    report.add_argument(
        "--validate",
        action="store_true",
        help="schema-validate the trace(s) and fail on any violation",
    )
    chaos = sub.add_parser(
        "chaos",
        help=(
            "run the seeded end-to-end fault-injection harness (miniapp + "
            "in-line histogram + retried BP writes + FlexPath staging with "
            "in-line fallback) and write a recovery report"
        ),
    )
    chaos.add_argument("--seed", type=int, default=42, help="fault-plan seed")
    chaos.add_argument(
        "--app",
        choices=("oscillator", "nbody"),
        default="oscillator",
        help=(
            "simulation under test: the grid-shaped oscillator miniapp or "
            "the particle nbody miniapp (ragged migration payloads; "
            "checkpoint interval is forced to 1 so recovery replays "
            "particle ownership exactly)"
        ),
    )
    chaos.add_argument(
        "--ranks", type=int, default=4, help="world size (writers + 1 endpoint)"
    )
    chaos.add_argument("--steps", type=int, default=10, help="simulation steps")
    chaos.add_argument(
        "--out",
        default="chaos_artifacts",
        help="artifact directory (recovery report, histograms, PNGs)",
    )
    chaos.add_argument(
        "--ready-timeout",
        type=float,
        default=0.25,
        help="seconds a writer waits for the endpoint's flow-control token",
    )
    chaos.add_argument(
        "--checkpoint-interval",
        type=int,
        default=3,
        help="steps between simulation checkpoints",
    )
    chaos.add_argument(
        "--backend",
        choices=("thread", "process"),
        default=None,
        help=(
            "SPMD execution backend (default: REPRO_SPMD_BACKEND or "
            "thread); reports are byte-identical across backends"
        ),
    )
    serve = sub.add_parser(
        "serve",
        help=(
            "run the long-running multi-tenant in situ service: clients "
            "stream simulation steps over a local socket into per-tenant "
            "analysis endpoints (histogram + Catalyst slice), under "
            "admission control, quotas, and journaled backpressure"
        ),
    )
    serve.add_argument("--socket", required=True, help="unix socket path")
    serve.add_argument(
        "--out", default="service_artifacts", help="artifact directory"
    )
    serve.add_argument(
        "--tenants",
        required=True,
        help=(
            "comma-separated tenant list, each NAME or NAME:PLACEMENT "
            "with placement in-line|staged (default staged)"
        ),
    )
    serve.add_argument(
        "--secret", required=True, help="token-signing secret"
    )
    serve.add_argument("--seed", type=int, default=0, help="decision seed")
    serve.add_argument(
        "--max-clients", type=int, default=16, help="admission ceiling"
    )
    serve.add_argument(
        "--credits", type=int, default=2, help="per-tenant flow-control window"
    )
    serve.add_argument(
        "--max-steps", type=int, default=None, help="per-tenant step quota"
    )
    serve.add_argument(
        "--byte-budget",
        type=int,
        default=None,
        help="per-tenant cumulative payload byte budget",
    )
    serve.add_argument(
        "--max-step-bytes",
        type=int,
        default=None,
        help="per-step payload ceiling",
    )
    serve.add_argument(
        "--rate", type=float, default=None, help="per-tenant steps/sec ceiling"
    )
    serve.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        help="server-wide bytes-in-flight budget (backpressure)",
    )
    serve.add_argument(
        "--expect",
        type=int,
        default=None,
        help="exit cleanly after this many tenants complete (EOS)",
    )
    serve.add_argument(
        "--bins", type=int, default=32, help="histogram bins per tenant"
    )
    serve.add_argument(
        "--resolution",
        default="160x90",
        help="Catalyst render resolution WxH",
    )
    serve.add_argument(
        "--no-render",
        action="store_true",
        help="disable the Catalyst slice pipeline (histogram only)",
    )
    submit = sub.add_parser(
        "submit",
        help=(
            "stream one tenant's deterministic synthetic workload into a "
            "running 'repro serve' instance"
        ),
    )
    submit.add_argument("--socket", required=True, help="unix socket path")
    submit.add_argument("--tenant", required=True, help="tenant name")
    submit.add_argument(
        "--secret",
        default=None,
        help="token-signing secret (mints a fresh token)",
    )
    submit.add_argument(
        "--token", default=None, help="explicit pre-minted token"
    )
    submit.add_argument("--steps", type=int, default=8, help="steps to stream")
    submit.add_argument(
        "--grid", default="64x64", help="per-step field shape WxH"
    )
    submit.add_argument("--seed", type=int, default=0, help="workload seed")
    submit.add_argument(
        "--workload",
        choices=("synthetic", "nbody"),
        default="synthetic",
        help=(
            "step generator: drifting-blob synthetic fields or the nbody "
            "miniapp's density projections (grid from --grid width)"
        ),
    )
    submit.add_argument(
        "--timeout", type=float, default=60.0, help="socket timeout seconds"
    )
    nbody = sub.add_parser(
        "nbody",
        help=(
            "run the particle-mesh N-body miniapp through the SENSEI "
            "bridge with the particle analyses (density projection, power "
            "spectrum, FoF halos) and any of the four infrastructure "
            "endpoints; writes an artifact-checksum manifest that is "
            "byte-identical across rank counts and SPMD backends"
        ),
    )
    nbody.add_argument(
        "--out", default="nbody_artifacts", help="artifact directory"
    )
    nbody.add_argument("--ranks", type=int, default=2, help="world size")
    nbody.add_argument("--steps", type=int, default=4, help="leapfrog steps")
    nbody.add_argument("--grid", type=int, default=16, help="mesh cells/axis")
    nbody.add_argument(
        "--particles", type=int, default=400, help="global particle count"
    )
    nbody.add_argument("--seed", type=int, default=42, help="IC seed")
    nbody.add_argument(
        "--infrastructures",
        default="catalyst,libsim,adios,glean",
        help="comma-separated endpoint subset (empty string: analyses only)",
    )
    nbody.add_argument(
        "--no-sanitize",
        action="store_true",
        help="skip the data-access sanitizer (guarded views, fingerprints)",
    )
    nbody.add_argument(
        "--backend",
        choices=("thread", "process"),
        default=None,
        help=(
            "SPMD execution backend (default: REPRO_SPMD_BACKEND or "
            "thread); manifests are byte-identical across backends"
        ),
    )
    return parser


def _chaos_main(args) -> int:
    from repro.faults.chaos import ChaosError, render_report, run_chaos

    try:
        report = run_chaos(
            seed=args.seed,
            ranks=args.ranks,
            steps=args.steps,
            out_dir=args.out,
            ready_timeout=args.ready_timeout,
            checkpoint_interval=args.checkpoint_interval,
            backend=args.backend,
            app=args.app,
        )
    except ValueError as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    except ChaosError as exc:
        print(f"chaos run failed accounting checks: {exc}", file=sys.stderr)
        return 1
    print(render_report(report))
    print(f"recovery report: {args.out}/recovery_report.json")
    return 0


def _nbody_main(args) -> int:
    import os

    from repro.apps.nbody import run_nbody
    from repro.trace import (
        TraceSession,
        render_report,
        report_from_session,
        validate_chrome_trace,
    )

    infra = tuple(
        s.strip() for s in args.infrastructures.split(",") if s.strip()
    )
    session = TraceSession(name="nbody")
    manifest = run_nbody(
        args.out,
        ranks=args.ranks,
        steps=args.steps,
        grid=args.grid,
        n_particles=args.particles,
        seed=args.seed,
        backend=args.backend,
        infrastructures=infra,
        sanitize=not args.no_sanitize,
        trace=session,
    )
    trace_path = os.path.join(args.out, "measured.json")
    session.export(trace_path)
    problems = validate_chrome_trace(session.to_chrome())
    if problems:
        for p in problems:
            print(f"trace schema violation: {p}", file=sys.stderr)
        return 1
    report = report_from_session(session)
    rendered = render_report(report)
    report_path = os.path.join(args.out, "phase_report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(rendered + "\n")
    print(rendered)
    print(
        f"\n{args.ranks} rank(s), {args.steps} step(s): "
        f"{manifest['migrated']} particle(s) migrated, final counts "
        f"{manifest['final_counts']}, {manifest['halo_counts'][-1]} halo(s) "
        "at the last step"
    )
    print(f"artifact manifest: {args.out}/manifest.json")
    print(f"trace: {trace_path}; phase report: {report_path}")
    return 0


def _parse_resolution(text: str) -> tuple[int, int]:
    w, _, h = text.partition("x")
    return int(w), int(h)


def _serve_main(args) -> int:
    import signal

    from repro.service import (
        QuotaSpec,
        ServiceServer,
        TenantRegistry,
        TenantSpec,
    )

    quota = QuotaSpec(
        max_steps=args.max_steps,
        byte_budget=args.byte_budget,
        max_step_bytes=args.max_step_bytes,
        rate_steps_per_s=args.rate,
        credits=args.credits,
    )
    registry = TenantRegistry()
    for item in args.tenants.split(","):
        name, _, placement = item.strip().partition(":")
        registry.register(
            TenantSpec(name, quota, placement=placement or "staged")
        )
    server = ServiceServer(
        args.socket,
        registry,
        args.secret,
        args.out,
        seed=args.seed,
        max_clients=args.max_clients,
        memory_budget=args.memory_budget,
        expect=args.expect,
        bins=args.bins,
        resolution=_parse_resolution(args.resolution),
        render=not args.no_render,
    )
    stop_requested = []
    signal.signal(signal.SIGTERM, lambda *_: stop_requested.append(True))
    server.start()
    print(
        f"serving {len(registry)} tenant(s) on {args.socket} "
        f"(seed {args.seed}); artifacts -> {args.out}",
        flush=True,
    )
    try:
        if args.expect is not None:
            while not server.wait(timeout=0.5):
                if stop_requested:
                    break
        else:
            import time as _time

            while not stop_requested:
                _time.sleep(0.25)
    except KeyboardInterrupt:
        pass
    server.stop()
    completed = sorted(server._completed)
    print(
        f"shutdown: {len(completed)} tenant(s) completed "
        f"({', '.join(completed) or 'none'}); journal + cost report in "
        f"{args.out}"
    )
    return 0


def _submit_main(args) -> int:
    from repro.service import (
        ServiceError,
        issue_token,
        run_client_workload,
    )

    if args.token is None and args.secret is None:
        print("submit needs --token or --secret", file=sys.stderr)
        return 2
    token = (
        args.token
        if args.token is not None
        else issue_token(args.secret, args.tenant)
    )
    try:
        summary = run_client_workload(
            args.socket,
            args.tenant,
            token,
            steps=args.steps,
            shape=_parse_resolution(args.grid),
            seed=args.seed,
            timeout=args.timeout,
            workload=args.workload,
        )
    except ServiceError as exc:
        print(f"submit failed for {args.tenant!r}: {exc}", file=sys.stderr)
        return 1
    rate = (
        summary["steps_admitted"] / summary["wall_seconds"]
        if summary["wall_seconds"] > 0
        else 0.0
    )
    print(
        f"{args.tenant}: {summary['steps_admitted']} admitted, "
        f"{summary['steps_shed']} shed, {summary['bytes_admitted']} bytes "
        f"in {summary['wall_seconds']:.3f}s ({rate:.1f} steps/s); "
        f"artifacts: {summary['artifacts']}"
    )
    return 0


def _report_main(args) -> int:
    from repro.trace import (
        diff_reports,
        load_chrome_trace,
        render_report,
        report_from_chrome,
        validate_chrome_trace,
    )

    try:
        doc = load_chrome_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    if args.validate:
        errors = validate_chrome_trace(doc)
        if errors:
            for e in errors:
                print(f"trace schema violation: {e}", file=sys.stderr)
            return 1
    measured = report_from_chrome(doc, name=args.trace)
    print(render_report(measured))
    if args.against:
        try:
            other_doc = load_chrome_trace(args.against)
        except (OSError, ValueError) as exc:
            print(f"cannot read trace {args.against!r}: {exc}", file=sys.stderr)
            return 2
        if args.validate:
            errors = validate_chrome_trace(other_doc)
            if errors:
                for e in errors:
                    print(f"trace schema violation: {e}", file=sys.stderr)
                return 1
        other = report_from_chrome(other_doc, name=args.against)
        print()
        print(diff_reports(measured, other))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        return _report_main(args)
    if args.command == "chaos":
        return _chaos_main(args)
    if args.command == "nbody":
        return _nbody_main(args)
    if args.command == "serve":
        return _serve_main(args)
    if args.command == "submit":
        return _submit_main(args)
    catalog = available_experiments()
    if args.command == "list":
        width = max(len(n) for n in catalog)
        for name, desc in catalog.items():
            print(f"{name:<{width}}  {desc}")
        return 0

    names = list(catalog) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in catalog]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(catalog)}",
            file=sys.stderr,
        )
        return 2
    for name in names:
        header, rows = run_experiment(name)
        print(f"\n=== {name}: {catalog[name]} ===")
        print(header)
        print("-" * len(header))
        for row in rows:
            print(row)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
