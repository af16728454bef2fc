"""Tests for the structured tracing layer (repro.trace).

Covers the recorder/session primitives, the Chrome trace exporter and its
schema validator, the Sec. 4.1.1 phase report, the modeled-span producers,
and the end-to-end measured path: a 4-rank traced oscillator run whose
exported trace must validate and reproduce the phase breakdown.
"""

import json

import pytest

from repro.core import Bridge
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.trace import (
    TraceRecorder,
    TraceSession,
    classify_span,
    diff_reports,
    load_chrome_trace,
    render_report,
    report_from_chrome,
    report_from_events,
    report_from_session,
    session_from_breakdown,
    session_to_chrome,
    validate_chrome_trace,
)
from repro.util.timers import TimerRegistry


# -- recorder primitives ------------------------------------------------------


class TestRecorder:
    def test_begin_end_records_span_with_parent(self):
        rec = TraceRecorder(rank=3)
        rec.begin("outer")
        rec.begin("inner")
        inner = rec.end()
        outer = rec.end()
        assert inner.name == "inner"
        assert inner.parent == "outer"
        assert inner.rank == 3
        assert outer.parent is None
        assert outer.t0 <= inner.t0 <= inner.t1 <= outer.t1

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            TraceRecorder().end()

    def test_step_sampled_at_span_end(self):
        rec = TraceRecorder()
        rec.begin("advance")
        rec.set_step(7)  # the step increments *inside* the span
        span = rec.end()
        assert span.step == 7

    def test_complete_rejects_negative_duration(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            rec.complete("x", 2.0, 1.0)

    def test_span_contextmanager_closes_on_error(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError, match="boom"):
            with rec.span("x"):
                raise RuntimeError("boom")
        assert rec._stack == []
        assert rec.spans[-1].name == "x"

    def test_counter_accumulates_and_gauge_overwrites(self):
        rec = TraceRecorder()
        rec.count("bytes", 10)
        rec.count("bytes", 5)
        rec.gauge("pool_hits", 3)
        rec.gauge("pool_hits", 2)
        assert rec.total("bytes") == 15
        assert rec.total("pool_hits") == 2
        assert rec.counter_names() == ["bytes", "pool_hits"]

    def test_session_shares_epoch_across_ranks(self):
        session = TraceSession()
        assert session.recorder(0).epoch == session.recorder(5).epoch
        assert session.ranks == [0, 5]
        assert session.recorder(0) is session.recorder(0)


# -- timer registry hook ------------------------------------------------------


class TestTimerHook:
    def test_timed_block_emits_span(self):
        rec = TraceRecorder()
        reg = TimerRegistry(trace=rec)
        with reg.time("sensei::execute"):
            with reg.time("catalyst::render"):
                pass
        names = [s.name for s in rec.spans]
        assert names == ["catalyst::render", "sensei::execute"]
        assert rec.spans[0].parent == "sensei::execute"

    def test_registry_add_emits_backdated_span(self):
        rec = TraceRecorder()
        reg = TimerRegistry(trace=rec)
        reg.add("io::write", 0.5)
        (span,) = rec.spans
        assert span.t1 - span.t0 == pytest.approx(0.5)

    def test_no_recorder_records_nothing(self):
        reg = TimerRegistry()
        with reg.time("x"):
            pass
        assert reg.trace is None  # and nothing to record into


# -- chrome export ------------------------------------------------------------


def _tiny_session():
    session = TraceSession(name="tiny")
    rec = session.recorder(0)
    rec.complete("simulation::initialize", 0.0, 1.0)
    rec.complete("simulation::advance", 1.0, 2.0, step=1)
    rec.complete("compute", 1.2, 1.8, step=1, parent="simulation::advance")
    rec.count("bytes", 64)
    return session


class TestChrome:
    def test_every_event_has_required_keys(self):
        doc = session_to_chrome(_tiny_session())
        for ev in doc["traceEvents"]:
            for key in ("ph", "ts", "pid", "tid"):
                assert key in ev
        assert validate_chrome_trace(doc) == []

    def test_span_fields(self):
        doc = session_to_chrome(_tiny_session())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        advance = next(e for e in xs if e["name"] == "simulation::advance")
        assert advance["ts"] == pytest.approx(1.0e6)
        assert advance["dur"] == pytest.approx(1.0e6)
        assert advance["args"]["step"] == 1
        nested = next(e for e in xs if e["name"] == "compute")
        assert nested["args"]["parent"] == "simulation::advance"

    def test_validator_flags_missing_keys_and_overlap(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 0, "tid": 0},
                # partial overlap with "a": starts inside, ends outside
                {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 0, "tid": 0},
                {"name": "c", "ph": "C", "ts": 0, "pid": 0},  # missing tid
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("partially overlaps" in p for p in problems)
        assert any("missing 'tid'" in p for p in problems)

    def test_export_load_roundtrip(self, tmp_path):
        session = _tiny_session()
        path = tmp_path / "trace.json"
        session.export(path)
        doc = load_chrome_trace(path)
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["session"] == "tiny"

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load_chrome_trace(path)


# -- the phase report ---------------------------------------------------------


class TestReport:
    def test_classification_table(self):
        assert classify_span("simulation::initialize") == ("initialize", "one-time")
        assert classify_span("sensei::initialize") == (
            "analysis initialize",
            "one-time",
        )
        assert classify_span("libsim::session_parse") == (
            "analysis initialize",
            "one-time",
        )
        assert classify_span("simulation::advance") == ("simulation", "per-step")
        assert classify_span("io::write") == ("write", "per-step")
        assert classify_span("adios::write") == ("write", "per-step")
        assert classify_span("sensei::execute") == ("analysis", "per-step")
        assert classify_span("endpoint::analysis") == ("analysis", "per-step")
        assert classify_span("sensei::finalize") == ("finalize", "one-time")

    def test_nested_spans_not_double_counted(self):
        events = [
            {
                "name": "sensei::execute", "ph": "X", "ts": 0.0, "dur": 10e6,
                "pid": 0, "tid": 0, "args": {"step": 1},
            },
            {
                "name": "catalyst::render", "ph": "X", "ts": 1e6, "dur": 8e6,
                "pid": 0, "tid": 0,
                "args": {"step": 1, "parent": "sensei::execute"},
            },
        ]
        report = report_from_events(events)
        assert report.mean("analysis") == pytest.approx(10.0)
        assert report.n_steps == 1

    def test_mean_and_max_across_ranks(self):
        events = []
        for rank, dur in enumerate((2.0, 4.0)):
            events.append(
                {
                    "name": "simulation::advance", "ph": "X", "ts": 0.0,
                    "dur": dur * 1e6, "pid": 0, "tid": rank,
                    "args": {"step": 1},
                }
            )
        report = report_from_events(events)
        assert report.n_ranks == 2
        assert report.mean("simulation") == pytest.approx(3.0)
        assert report.max("simulation") == pytest.approx(4.0)
        assert report.per_step_mean("simulation") == pytest.approx(3.0)

    def test_counters_take_final_value_per_rank_then_sum(self):
        events = [
            {"name": "bytes", "ph": "C", "ts": 0.0, "pid": 0, "tid": 0,
             "args": {"value": 10.0}},
            {"name": "bytes", "ph": "C", "ts": 1.0, "pid": 0, "tid": 0,
             "args": {"value": 30.0}},  # monotonic counter: final wins
            {"name": "bytes", "ph": "C", "ts": 0.5, "pid": 0, "tid": 1,
             "args": {"value": 7.0}},
        ]
        report = report_from_events(events)
        assert report.counters == {"bytes": 37.0}

    def test_render_and_diff_are_stringly_sane(self):
        report = report_from_session(_tiny_session())
        text = render_report(report)
        assert "phase breakdown: tiny" in text
        assert "initialize" in text and "simulation" in text
        diff = diff_reports(report, report)
        assert "ratio" in diff
        assert "1.00x" in diff


# -- modeled spans ------------------------------------------------------------


class TestModeled:
    def _breakdown(self):
        from repro.perf.miniapp_model import PhaseBreakdown

        return PhaseBreakdown(
            config_name="unit",
            sim_initialize=1.0,
            analysis_initialize=0.5,
            sim_per_step=0.25,
            analysis_per_step=0.125,
            write_per_step=0.0625,
            finalize=0.75,
        )

    def test_session_from_breakdown_layout(self):
        session = session_from_breakdown(self._breakdown(), steps=3, ranks=2)
        assert session.ranks == [0, 1]
        spans = session.recorder(0).spans
        assert [s.name for s in spans[:2]] == [
            "simulation::initialize",
            "sensei::initialize",
        ]
        assert spans[-1].name == "sensei::finalize"
        # Timeline is gapless and ordered.
        for prev, cur in zip(spans, spans[1:]):
            assert cur.t0 == pytest.approx(prev.t1)
        assert validate_chrome_trace(session.to_chrome()) == []

    def test_report_matches_breakdown_arithmetic(self):
        b = self._breakdown()
        report = report_from_session(session_from_breakdown(b, steps=4, ranks=3))
        assert report.n_steps == 4
        assert report.mean("initialize") == pytest.approx(b.sim_initialize)
        assert report.per_step_mean("simulation") == pytest.approx(b.sim_per_step)
        assert report.per_step_mean("write") == pytest.approx(b.write_per_step)
        assert report.one_time_total_mean() == pytest.approx(
            b.sim_initialize + b.analysis_initialize + b.finalize
        )

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            session_from_breakdown(self._breakdown(), steps=0)
        with pytest.raises(ValueError):
            session_from_breakdown(self._breakdown(), steps=1, ranks=0)

    def test_simulate_staging_emits_modeled_spans(self):
        from repro.perf.events import simulate_staging

        session = TraceSession(name="staging-model")
        timeline = simulate_staging(
            n_steps=3,
            sim_time=1.0,
            advance_time=0.1,
            transfer_time=0.2,
            endpoint_time=2.0,  # slow endpoint => writer blocks from step 2
            trace=session,
        )
        assert session.ranks == [0, 1]
        writer = session.recorder(0).spans
        endpoint = session.recorder(1).spans
        assert [s.name for s in writer[:3]] == [
            "simulation::advance", "adios::advance", "adios::analysis",
        ]
        # The modeled adios::analysis spans carry the flow-control blocking.
        analysis = [s for s in writer if s.name == "adios::analysis"]
        assert [s.t1 - s.t0 for s in analysis] == pytest.approx(
            timeline.writer_analysis
        )
        assert [s.t1 - s.t0 for s in endpoint] == pytest.approx(
            timeline.endpoint_busy
        )
        assert analysis[1].t1 - analysis[1].t0 > analysis[0].t1 - analysis[0].t0  # blocked
        assert validate_chrome_trace(session.to_chrome()) == []

    def test_simulate_staging_without_trace_unchanged(self):
        from repro.perf.events import simulate_staging

        a = simulate_staging(5, 1.0, 0.1, 0.2, 0.5)
        b = simulate_staging(5, 1.0, 0.1, 0.2, 0.5, trace=TraceSession())
        assert a.makespan == b.makespan
        assert a.writer_analysis == b.writer_analysis


# -- end to end: traced 4-rank run --------------------------------------------


RANKS = 4
STEPS = 3
DIMS = (16, 16, 16)


def _traced_program(comm):
    from repro.analysis import HistogramAnalysis

    sim = OscillatorSimulation(comm, DIMS, default_oscillators(), dt=0.05)
    bridge = Bridge(comm, sim.make_data_adaptor())
    bridge.add_analysis(HistogramAnalysis(bins=16))
    bridge.initialize()
    sim.run(STEPS, bridge)
    bridge.finalize()
    return sim.timers.as_dict()


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def session(self):
        session = TraceSession()
        run_spmd(RANKS, _traced_program, trace=session)
        return session

    def test_every_rank_traced(self, session):
        assert session.ranks == list(range(RANKS))
        for rank in range(RANKS):
            names = {s.name for s in session.recorder(rank).spans}
            assert "simulation::advance" in names
            assert "sensei::execute" in names
            assert "sensei::initialize" in names
            assert "sensei::finalize" in names

    def test_spans_tagged_with_steps(self, session):
        advances = [
            s for s in session.recorder(0).spans if s.name == "simulation::advance"
        ]
        assert [s.step for s in advances] == list(range(1, STEPS + 1))

    def test_collective_byte_counters_recorded(self, session):
        rec = session.recorder(0)
        names = rec.counter_names()
        assert any(n.startswith("mpi::") for n in names)
        assert rec.total("sensei::bytes_zero_copy") > 0

    def test_exported_trace_validates_and_reports(self, session, tmp_path):
        path = tmp_path / "trace.json"
        session.export(path)
        doc = load_chrome_trace(path)
        assert validate_chrome_trace(doc) == []
        report = report_from_chrome(doc)
        assert report.n_ranks == RANKS
        assert report.n_steps == STEPS
        assert report.mean("simulation") > 0
        assert report.mean("analysis") > 0
        assert report.mean("analysis initialize") > 0

    def test_untraced_run_records_nothing_and_matches(self):
        # No session: every hook must stay silent and the run unaffected.
        snaps = run_spmd(RANKS, _traced_program)
        assert len(snaps) == RANKS
        assert "simulation::advance" in snaps[0]


# -- the CLI ------------------------------------------------------------------


class TestReportCLI:
    def _export(self, tmp_path):
        path = tmp_path / "m.json"
        _tiny_session().export(path)
        return path

    def test_report_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = self._export(tmp_path)
        assert main(["report", str(path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out

    def test_report_against(self, tmp_path, capsys):
        from repro.cli import main

        a = self._export(tmp_path)
        b = tmp_path / "model.json"
        _tiny_session().export(b)
        assert main(["report", str(a), "--against", str(b)]) == 0
        out = capsys.readouterr().out
        assert "measured vs modeled" in out

    def test_report_missing_file_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert "cannot read trace" in capsys.readouterr().err


# -- diff ratios: inf vs -- semantics ----------------------------------------


class TestDiffRatios:
    """A measured cost the model prices at zero is an *unbounded* error
    (rendered ``inf !``), not an absent phase; ``--`` is reserved for 0/0
    on a phase at least one report recorded calls for."""

    def _report(self, name, **phase_seconds):
        from repro.trace.report import PHASE_ORDER, PhaseReport, PhaseStats

        phases = {p: PhaseStats(p, kind) for p, kind in PHASE_ORDER}
        for phase, seconds in phase_seconds.items():
            key = phase.replace("_", " ")
            phases[key].per_rank[0] = seconds
            phases[key].calls = 1
        return PhaseReport(
            name=name, n_ranks=1, n_steps=1, phases=phases, counters={}
        )

    def test_phase_ratio_cases(self):
        import math

        from repro.trace import phase_ratio

        assert phase_ratio(1.0, 2.0) == 0.5
        assert phase_ratio(0.5, 0.0) == math.inf
        assert phase_ratio(0.0, 0.5) == 0.0
        assert phase_ratio(0.0, 0.0) is None

    def test_measured_over_zero_model_is_inf(self):
        import math

        from repro.trace import diff_ratios

        measured = self._report("m", simulation=1.0, analysis=0.5)
        modeled = self._report("p", simulation=1.0)
        ratios = diff_ratios(measured, modeled)
        assert ratios["simulation"] == 1.0
        assert ratios["analysis"] == math.inf
        text = diff_reports(measured, modeled)
        [line] = [
            ln
            for ln in text.splitlines()
            if ln.startswith("analysis") and "initialize" not in ln
        ]
        assert "inf !" in line
        assert "--" not in line

    def test_zero_zero_with_calls_renders_dashes(self):
        from repro.trace import diff_ratios

        measured = self._report("m", simulation=1.0, write=0.0)
        modeled = self._report("p", simulation=1.0, write=0.0)
        assert "write" not in diff_ratios(measured, modeled)
        text = diff_reports(measured, modeled)
        [line] = [ln for ln in text.splitlines() if ln.startswith("write")]
        assert "--" in line
        assert "inf" not in line

    def test_phase_absent_from_both_reports_is_omitted(self):
        measured = self._report("m", simulation=1.0)
        modeled = self._report("p", simulation=1.0)
        text = diff_reports(measured, modeled)
        assert not any(ln.startswith("write") for ln in text.splitlines())

