"""Phase reports: the paper's Sec. 4.1.1 breakdown from a captured trace.

The paper reports "one-time costs" (initialize, analysis initialize,
finalize) separately from "per-timestep costs" (simulation, analysis,
write), each aggregated across MPI ranks as a mean and a max.  This module
recovers exactly that table from a structured trace -- either a live
:class:`~repro.trace.recorder.TraceSession` or an exported Chrome trace
JSON document -- and can diff two reports (a measured run against the
performance model's *modeled* spans, the SIM-SITU calibration loop).

Span names map onto the taxonomy by rule, in order:

===================  ===========  =========================================
phase                kind         span-name rule (first match wins)
===================  ===========  =========================================
finalize             one-time     name contains ``finalize``
initialize           one-time     ``simulation::initialize`` or
                                  ``writer::initialize``
analysis initialize  one-time     name contains ``initialize`` or
                                  ``session_parse``
simulation           per-step     ``simulation::*`` (e.g. ``::advance``)
write                per-step     top-level ``io::*`` / ``*::write`` spans
analysis             per-step     everything else (``sensei::execute``,
                                  ``adios::*``, ``endpoint::*``, ...)
===================  ===========  =========================================

Only **top-level** spans (no parent) are accumulated, so a
``catalyst::render`` nested inside ``sensei::execute`` is not double
counted; nested spans remain in the trace for drill-down in Perfetto.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.trace.recorder import TraceSession

ONE_TIME = "one-time"
PER_STEP = "per-step"

#: Render/aggregation order of the taxonomy.
PHASE_ORDER = (
    ("initialize", ONE_TIME),
    ("analysis initialize", ONE_TIME),
    ("simulation", PER_STEP),
    ("analysis", PER_STEP),
    ("write", PER_STEP),
    ("finalize", ONE_TIME),
)


def classify_span(name: str) -> tuple[str, str]:
    """Map a span name to ``(phase, kind)`` per the table above."""
    if "finalize" in name:
        return "finalize", ONE_TIME
    if "initialize" in name or "session_parse" in name:
        head = name.split("::", 1)[0]
        if head in ("simulation", "writer"):
            return "initialize", ONE_TIME
        return "analysis initialize", ONE_TIME
    if name.startswith("simulation::") or name == "simulation":
        return "simulation", PER_STEP
    head = name.split("::", 1)[0]
    if head == "io" or name.endswith("::write"):
        return "write", PER_STEP
    return "analysis", PER_STEP


@dataclass
class PhaseStats:
    """Cross-rank aggregate for one taxonomy phase."""

    phase: str
    kind: str
    #: Per-rank total seconds, keyed by rank.
    per_rank: dict[int, float] = field(default_factory=dict)
    calls: int = 0

    def mean(self, n_ranks: int) -> float:
        return sum(self.per_rank.values()) / n_ranks if n_ranks else 0.0

    def max(self) -> float:
        return max(self.per_rank.values(), default=0.0)


@dataclass
class PhaseReport:
    """The Sec. 4.1.1 breakdown recovered from one trace."""

    name: str
    n_ranks: int
    n_steps: int
    phases: dict[str, PhaseStats]
    #: Final counter values summed across ranks, keyed by counter name.
    counters: dict[str, float]

    def mean(self, phase: str) -> float:
        st = self.phases.get(phase)
        return st.mean(self.n_ranks) if st else 0.0

    def max(self, phase: str) -> float:
        st = self.phases.get(phase)
        return st.max() if st else 0.0

    def per_step_mean(self, phase: str) -> float:
        """Mean-across-ranks cost per time step of a per-step phase."""
        return self.mean(phase) / self.n_steps if self.n_steps else 0.0

    def one_time_total_mean(self) -> float:
        return sum(
            self.mean(p) for p, kind in PHASE_ORDER if kind == ONE_TIME
        )

    def per_step_total_mean(self) -> float:
        return sum(
            self.per_step_mean(p) for p, kind in PHASE_ORDER if kind == PER_STEP
        )


def _events_from_session(session: TraceSession) -> list[dict]:
    return session.to_chrome()["traceEvents"]


def report_from_events(events: list[dict], name: str = "trace") -> PhaseReport:
    """Build a :class:`PhaseReport` from Chrome trace events."""
    phases: dict[str, PhaseStats] = {
        p: PhaseStats(p, kind) for p, kind in PHASE_ORDER
    }
    ranks: set[int] = set()
    steps: set[int] = set()
    finals: dict[tuple[str, int], tuple[float, float]] = {}
    for ev in events:
        ph = ev.get("ph")
        tid = int(ev.get("tid", 0))
        if ph == "X":
            ranks.add(tid)
            args = ev.get("args") or {}
            if "step" in args:
                steps.add(int(args["step"]))
            if args.get("parent") is not None:
                continue  # nested: parent span already accounts for it
            phase, kind = classify_span(str(ev.get("name", "")))
            st = phases[phase]
            st.per_rank[tid] = st.per_rank.get(tid, 0.0) + float(ev["dur"]) / 1e6
            st.calls += 1
        elif ph == "C":
            key = (str(ev.get("name", "")), tid)
            ts = float(ev.get("ts", 0.0))
            prev = finals.get(key)
            if prev is None or ts >= prev[0]:
                finals[key] = (ts, float((ev.get("args") or {}).get("value", 0.0)))
    counters: dict[str, float] = {}
    for (cname, _), (_, value) in finals.items():
        counters[cname] = counters.get(cname, 0.0) + value
    return PhaseReport(
        name=name,
        n_ranks=len(ranks),
        n_steps=len(steps),
        phases=phases,
        counters=dict(sorted(counters.items())),
    )


def report_from_chrome(doc: dict, name: str | None = None) -> PhaseReport:
    label = name or str(doc.get("otherData", {}).get("session", "trace"))
    return report_from_events(doc.get("traceEvents", []), name=label)


def report_from_session(session: TraceSession) -> PhaseReport:
    return report_from_events(_events_from_session(session), name=session.name)


def _fmt(seconds: float) -> str:
    return f"{seconds:12.6f}"


def render_report(report: PhaseReport) -> str:
    """Render the breakdown as the text table ``repro report`` prints."""
    lines = [
        f"phase breakdown: {report.name}  "
        f"({report.n_ranks} rank(s), {report.n_steps} step(s))",
        f"{'phase':<22}{'kind':<10}{'mean/rank [s]':>14}{'max/rank [s]':>14}"
        f"{'per-step [s]':>14}{'calls':>7}",
    ]
    lines.append("-" * len(lines[1]))
    for phase, kind in PHASE_ORDER:
        st = report.phases[phase]
        if not st.per_rank:
            continue
        per_step = (
            f"{report.per_step_mean(phase):14.6f}" if kind == PER_STEP else " " * 14
        )
        lines.append(
            f"{phase:<22}{kind:<10}{report.mean(phase):14.6f}"
            f"{report.max(phase):14.6f}{per_step}{st.calls:>7d}"
        )
    lines.append("-" * len(lines[1]))
    lines.append(
        f"{'one-time total':<32}{report.one_time_total_mean():14.6f}"
    )
    lines.append(
        f"{'per-step total':<32}{' ' * 14}{' ' * 14}"
        f"{report.per_step_total_mean():14.6f}"
    )
    if report.counters:
        lines.append("")
        lines.append("counters (summed across ranks):")
        width = max(len(n) for n in report.counters)
        for cname, value in report.counters.items():
            shown = f"{value:.0f}" if float(value).is_integer() else f"{value:.3f}"
            lines.append(f"  {cname:<{width}}  {shown}")
    return "\n".join(lines)


def phase_ratio(measured: float, modeled: float) -> float | None:
    """measured/modeled for one phase: ``math.inf`` when measured > 0 but
    the model predicts exactly zero (an unbounded calibration error: the
    prediction is wrong, the phase is not absent), ``None`` only for 0/0 --
    the phase genuinely costs nothing in both timelines."""
    if modeled > 0.0:
        return measured / modeled
    if measured > 0.0:
        return math.inf
    return None


def diff_ratios(measured: PhaseReport, modeled: PhaseReport) -> dict[str, float]:
    """Per-phase measured/modeled ratios as numbers (``math.inf`` allowed).

    The programmatic face of :func:`diff_reports`: per-step phases compare
    per-step means, one-time phases totals; 0/0 phases are omitted.
    """
    out: dict[str, float] = {}
    for phase, kind in PHASE_ORDER:
        if kind == PER_STEP:
            a, b = measured.per_step_mean(phase), modeled.per_step_mean(phase)
        else:
            a, b = measured.mean(phase), modeled.mean(phase)
        r = phase_ratio(a, b)
        if r is not None:
            out[phase] = r
    return out


def diff_reports(measured: PhaseReport, modeled: PhaseReport) -> str:
    """Side-by-side phase comparison (the measured-vs-modeled overlay).

    Per-step phases compare per-step means (scale-free across different
    step counts); one-time phases compare totals.  The ratio column is
    measured/modeled -- the model calibration error per phase.  A measured
    cost the model prices at zero renders as a flagged ``inf`` (unbounded
    error); ``--`` appears only for 0/0, a phase with recorded calls but
    no time in either report.
    """
    header = (
        f"{'phase':<22}{'kind':<10}{measured.name[:13]:>14}{modeled.name[:13]:>14}"
        f"{'ratio':>9}"
    )
    lines = [
        f"measured vs modeled: {measured.name} vs {modeled.name}",
        header,
        "-" * len(header),
    ]
    for phase, kind in PHASE_ORDER:
        if kind == PER_STEP:
            a, b = measured.per_step_mean(phase), modeled.per_step_mean(phase)
        else:
            a, b = measured.mean(phase), modeled.mean(phase)
        r = phase_ratio(a, b)
        if r is None:
            calls_a = measured.phases.get(phase)
            calls_b = modeled.phases.get(phase)
            if not (
                (calls_a is not None and calls_a.calls)
                or (calls_b is not None and calls_b.calls)
            ):
                continue  # absent from both timelines entirely
            ratio = "      --"
        elif math.isinf(r):
            ratio = "    inf !"
        else:
            ratio = f"{r:8.2f}x"
        lines.append(f"{phase:<22}{kind:<10}{a:14.6f}{b:14.6f}{ratio}")
    return "\n".join(lines)
