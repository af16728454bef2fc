"""End-to-end tests for the multi-tenant in situ service layer.

Each test stands up a real :class:`~repro.service.ServiceServer` on a Unix
socket under ``tmp_path`` and drives it with real
:class:`~repro.service.ServiceClient` connections.  Covered: auth rejections
(bad/expired/unknown tokens), admission control (capacity, per-tenant
exclusivity), quota exhaustion as a terminal REJECT, deterministic shedding,
wire-fault recovery (corrupt and dropped frames under seeded injection),
client disconnect mid-step, memory-budget backpressure, artifact
byte-identity against the in-process oracle, N-tenant isolation, journal
byte-identity across repeat seeded runs, and clean shutdown (socket
unlinked, no worker threads left).
"""

import json
import pickle
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultInjector
from repro.faults.plan import (
    SITE_SERVICE_CLIENT,
    SITE_SERVICE_FRAME,
    SITE_SERVICE_STEP,
    FaultEvent,
    FaultPlan,
)
from repro.mpi.framing import encode_frame
from repro.service import (
    QuotaSpec,
    ServiceClient,
    ServiceDisconnected,
    ServiceRejected,
    ServiceServer,
    TenantRegistry,
    TenantSpec,
    issue_token,
    run_client_workload,
    run_workload_inproc,
)
from repro.service import CostLedger, TenantEndpoint, protocol
from repro.service.server import BytesInFlight, TenantFailure, _TenantWorker
from repro.service.workload import synthetic_field, synthetic_steps

SECRET = "test-secret"
SHAPE = (16, 16)


def _registry(*specs):
    registry = TenantRegistry()
    for spec in specs:
        registry.register(spec)
    return registry


def _server(tmp_path, registry, **kwargs):
    kwargs.setdefault("render", False)
    server = ServiceServer(
        str(tmp_path / "svc.sock"),
        registry,
        SECRET,
        str(tmp_path / "out"),
        **kwargs,
    )
    server.start()
    return server


def _token(tenant, **kwargs):
    return issue_token(SECRET, tenant, **kwargs)


def _run(server, tenant, steps=4, **kwargs):
    return run_client_workload(
        server.socket_path, tenant, _token(tenant), steps, shape=SHAPE,
        **kwargs,
    )


def _run_retry_busy(server, tenant, **kwargs):
    """Like ``_run`` but retries BUSY: after an abrupt disconnect the server
    releases the tenant slot only once handler cleanup finishes, so an
    immediate reconnect legitimately races it (a real client would retry)."""
    for _ in range(100):
        try:
            return _run(server, tenant, **kwargs)
        except ServiceRejected as err:
            if err.code != protocol.REJECT_BUSY:
                raise
            time.sleep(0.02)
    raise AssertionError("tenant slot never released after disconnect")


# -- auth ---------------------------------------------------------------------


class TestAuth:
    def test_bad_token_rejected(self, tmp_path):
        server = _server(tmp_path, _registry(TenantSpec("alpha")))
        try:
            client = ServiceClient(server.socket_path, "alpha", "v1.alpha.0.junk")
            with pytest.raises(ServiceRejected) as err:
                client.connect()
            assert err.value.code == protocol.REJECT_BAD_TOKEN
        finally:
            server.stop()
        journal = json.loads(
            (tmp_path / "out" / "decision_journal.json").read_text()
        )
        auth = journal["alpha"]["admission"]["decisions"][0]
        assert (auth["event"], auth["verdict"]) == ("auth", "bad_token")

    def test_expired_token_rejected_with_injected_clock(self, tmp_path):
        server = _server(
            tmp_path, _registry(TenantSpec("alpha")), now=lambda: 2000.0
        )
        try:
            token = _token("alpha", expires=1000)
            client = ServiceClient(server.socket_path, "alpha", token)
            with pytest.raises(ServiceRejected) as err:
                client.connect()
            assert err.value.code == protocol.REJECT_EXPIRED_TOKEN
        finally:
            server.stop()

    def test_unexpired_token_admitted_with_injected_clock(self, tmp_path):
        server = _server(
            tmp_path, _registry(TenantSpec("alpha")), now=lambda: 500.0
        )
        try:
            token = _token("alpha", expires=1000)
            client = ServiceClient(server.socket_path, "alpha", token)
            welcome = client.connect()
            assert welcome["placement"] == "staged"
            client.finish()
        finally:
            server.stop()

    def test_unknown_tenant_rejected(self, tmp_path):
        server = _server(tmp_path, _registry(TenantSpec("alpha")))
        try:
            client = ServiceClient(
                server.socket_path, "ghost", _token("ghost")
            )
            with pytest.raises(ServiceRejected) as err:
                client.connect()
            assert err.value.code == protocol.REJECT_UNKNOWN_TENANT
        finally:
            server.stop()


# -- admission control --------------------------------------------------------


class TestAdmission:
    def test_tenant_exclusive_connection(self, tmp_path):
        server = _server(tmp_path, _registry(TenantSpec("alpha")))
        try:
            first = ServiceClient(server.socket_path, "alpha", _token("alpha"))
            first.connect()
            second = ServiceClient(server.socket_path, "alpha", _token("alpha"))
            with pytest.raises(ServiceRejected) as err:
                second.connect()
            assert err.value.code == protocol.REJECT_BUSY
            first.finish()
        finally:
            server.stop()

    def test_capacity_limit_rejects_overflow(self, tmp_path):
        reg = _registry(TenantSpec("alpha"), TenantSpec("beta"))
        server = _server(tmp_path, reg, max_clients=1)
        try:
            first = ServiceClient(server.socket_path, "alpha", _token("alpha"))
            first.connect()
            second = ServiceClient(server.socket_path, "beta", _token("beta"))
            with pytest.raises(ServiceRejected) as err:
                second.connect()
            assert err.value.code == protocol.REJECT_CAPACITY
            first.finish()
        finally:
            server.stop()

    def test_tenant_may_reconnect_after_finish(self, tmp_path):
        server = _server(tmp_path, _registry(TenantSpec("alpha")))
        try:
            assert _run(server, "alpha", steps=2)["steps_admitted"] == 2
            assert _run(server, "alpha", steps=2)["steps_admitted"] == 2
        finally:
            server.stop()


# -- quotas and shedding ------------------------------------------------------


class TestQuotas:
    def test_max_steps_exhaustion_is_terminal(self, tmp_path):
        spec = TenantSpec("alpha", QuotaSpec(max_steps=3))
        server = _server(tmp_path, _registry(spec))
        try:
            with pytest.raises(ServiceRejected) as err:
                _run(server, "alpha", steps=6)
            assert err.value.code == protocol.REJECT_QUOTA
        finally:
            server.stop()
        journal = json.loads(
            (tmp_path / "out" / "decision_journal.json").read_text()
        )
        verdicts = [
            d["verdict"]
            for d in journal["alpha"]["admission"]["decisions"]
            if d["event"] == "step"
        ]
        assert verdicts == ["admit", "admit", "admit", "reject_steps"]

    def test_oversized_step_rejected(self, tmp_path):
        spec = TenantSpec("alpha", QuotaSpec(max_step_bytes=64))
        server = _server(tmp_path, _registry(spec))
        try:
            with pytest.raises(ServiceRejected) as err:
                _run(server, "alpha", steps=2)
            assert "max_step_bytes" in err.value.reason
        finally:
            server.stop()

    def test_soft_budget_sheds_deterministically(self, tmp_path):
        payload = len(
            protocol.encode_step(
                0, 0.0, dict(list(synthetic_steps("alpha", 1, SHAPE, 0))[0][2])
            )
        )
        spec = TenantSpec(
            "alpha",
            QuotaSpec(
                byte_budget=payload * 20,
                soft_byte_fraction=0.1,
                shed_probability=0.5,
            ),
        )

        def run_once(sub):
            server = _server(tmp_path / sub, _registry(spec), seed=9)
            try:
                summary = _run(server, "alpha", steps=10)
            finally:
                server.stop()
            return summary

        a, b = run_once("a"), run_once("b")
        assert a["verdicts"] == b["verdicts"]
        assert a["steps_shed"] > 0
        assert a["steps_admitted"] + a["steps_shed"] == 10
        j_a = (tmp_path / "a" / "out" / "decision_journal.json").read_bytes()
        j_b = (tmp_path / "b" / "out" / "decision_journal.json").read_bytes()
        assert j_a == j_b, "seeded shed journals must be byte-identical"


# -- wire faults --------------------------------------------------------------


class TestWireFaults:
    def test_corrupt_frame_recovered_by_nack_retransmit(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            events=(
                FaultEvent(SITE_SERVICE_FRAME, "corrupt", rank=0, occurrence=1),
            ),
        )
        server = _server(tmp_path, _registry(TenantSpec("alpha")))
        try:
            summary = _run(
                server, "alpha", steps=4, injector=FaultInjector(plan)
            )
            assert summary["steps_admitted"] == 4
        finally:
            server.stop()
        report = json.loads(
            (tmp_path / "out" / "cost_report.json").read_text()
        )
        assert report["tenants"]["alpha"]["steps_admitted"] == 4

    def test_dropped_frame_recovered_by_nack_retransmit(self, tmp_path):
        # An injected drop needs credits >= 2: the NACK only fires when a
        # *subsequent* frame exposes the sequence gap.
        plan = FaultPlan(
            seed=7,
            events=(
                FaultEvent(SITE_SERVICE_FRAME, "drop", rank=0, occurrence=1),
            ),
        )
        spec = TenantSpec("alpha", QuotaSpec(credits=3))
        server = _server(tmp_path, _registry(spec))
        try:
            summary = _run(
                server, "alpha", steps=5, injector=FaultInjector(plan)
            )
            assert summary["steps_admitted"] == 5
        finally:
            server.stop()

    def test_truncated_frame_journals_disconnect(self, tmp_path):
        server = _server(tmp_path, _registry(TenantSpec("alpha")))
        try:
            client = ServiceClient(server.socket_path, "alpha", _token("alpha"))
            client.connect()
            # Hand-feed half a STEP frame, then slam the socket shut.
            frame = encode_frame(protocol.STEP, 1, b"\0" * 256)
            client.channel.sock.sendall(frame[: len(frame) // 2])
            client.close()
        finally:
            server.stop()
        journal = json.loads(
            (tmp_path / "out" / "decision_journal.json").read_text()
        )
        events = [
            (d["event"], d["verdict"])
            for d in journal["alpha"]["admission"]["decisions"]
        ]
        assert ("disconnect", "abort") in events


class _Hostile:
    """Pickles to a call of ``os.system`` -- what an unrestricted
    ``pickle.loads`` on tenant bytes would execute."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        import os

        return (os.system, (f"touch {self.marker}",))


class TestHostileStepPayloads:
    """Frames that frame correctly but carry garbage: the tenant is refused,
    the server -- its threads, its journal, its byte budget, its other
    tenants -- is untouched."""

    @pytest.mark.parametrize(
        "kind,payload",
        [
            (protocol.STEP, b"not a pickle"),
            (protocol.STEP, pickle.dumps({"step": 0, "arrays": {}})),
            (protocol.STEP, pickle.dumps({"step": 0, "arrays": {"data": [1, 2]}})),
            (protocol.NACK, protocol.encode_control({"seq": "not-a-number"})),
        ],
        ids=["not-a-pickle", "no-arrays", "list-for-array", "nack-seq"],
    )
    def test_malformed_payload_is_a_journaled_protocol_abort(
        self, tmp_path, monkeypatch, kind, payload
    ):
        crashed = []
        monkeypatch.setattr(threading, "excepthook", crashed.append)
        server = _server(
            tmp_path,
            _registry(TenantSpec("alpha"), TenantSpec("beta")),
            memory_budget=1 << 20,
        )
        peer_summary = {}
        peer = threading.Thread(
            target=lambda: peer_summary.update(_run(server, "beta", steps=8))
        )
        try:
            peer.start()
            client = ServiceClient(server.socket_path, "alpha", _token("alpha"))
            client.connect()
            client.submit(0, 0.0, {"data": synthetic_field("alpha", 0, SHAPE)})
            client.channel.send(kind, payload)
            with pytest.raises(ServiceRejected) as err:
                client.finish()
            assert err.value.code == protocol.REJECT_PROTOCOL
            peer.join(timeout=60)
            assert not peer.is_alive()
        finally:
            server.stop()
        assert crashed == [], "a handler thread died on tenant bytes"
        assert server.budget.held == 0
        decisions = json.loads(
            (tmp_path / "out" / "decision_journal.json").read_text()
        )["alpha"]["admission"]["decisions"]
        last = decisions[-1]
        assert (last["event"], last["verdict"], last["detail"]) == (
            "disconnect", "abort", "protocol error",
        )
        # Only the well-formed step was ever admitted (or charged).
        assert [d["verdict"] for d in decisions if d["event"] == "step"] == ["admit"]
        assert [v for _, v in peer_summary["verdicts"]] == ["admit"] * 8

    def test_pickle_global_outside_the_step_codec_is_refused(self, tmp_path):
        marker = tmp_path / "executed"
        payload = pickle.dumps(
            {"step": 0, "time": 0.0, "arrays": {"data": _Hostile(marker)}}
        )
        with pytest.raises(protocol.ProtocolError, match="system"):
            protocol.decode_step(payload)
        assert not marker.exists()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_step_codec_round_trip(self, dtype, order):
        field = np.asarray(
            np.arange(24).reshape(2, 3, 4), dtype=dtype, order=order
        )
        step, sim_time, arrays = protocol.decode_step(
            protocol.encode_step(7, 0.25, {"data": field})
        )
        assert (step, sim_time, list(arrays)) == (7, 0.25, ["data"])
        assert arrays["data"].dtype == field.dtype
        assert np.array_equal(arrays["data"], field)


# -- client disconnect mid-step ----------------------------------------------


class TestClientDisconnect:
    def test_injected_disconnect_cleans_up_and_allows_reconnect(self, tmp_path):
        plan = FaultPlan(
            seed=3,
            events=(
                FaultEvent(SITE_SERVICE_CLIENT, "disconnect", rank=0, step=2),
            ),
        )
        server = _server(tmp_path, _registry(TenantSpec("alpha")))
        try:
            with pytest.raises(ServiceDisconnected):
                _run(server, "alpha", steps=6, injector=FaultInjector(plan))
            # The tenant slot must be released: a fresh connection works.
            summary = _run_retry_busy(server, "alpha", steps=2)
            assert summary["steps_admitted"] == 2
        finally:
            server.stop()
        journal = json.loads(
            (tmp_path / "out" / "decision_journal.json").read_text()
        )
        decisions = journal["alpha"]["admission"]["decisions"]
        aborts = [d for d in decisions if d["verdict"] == "abort"]
        assert len(aborts) == 1
        assert "connection lost" in aborts[0]["detail"]
        # The endpoint still analyzed the steps admitted before the cut.
        hist = json.loads(
            (tmp_path / "out" / "tenants" / "alpha" / "histograms.json")
            .read_text()
        )
        assert len(hist) >= 2


# -- endpoint degradation -----------------------------------------------------


class TestEndpointDegradation:
    def test_injected_analysis_failures_trip_breaker_not_connection(
        self, tmp_path
    ):
        plan = FaultPlan(
            seed=1,
            events=tuple(
                FaultEvent(SITE_SERVICE_STEP, "analysis_fail", rank=0, step=s)
                for s in (1, 2)
            ),
        )
        server = _server(
            tmp_path, _registry(TenantSpec("alpha")),
            injector=FaultInjector(plan),
        )
        try:
            summary = _run(server, "alpha", steps=6)
            # Admission is unaffected: degradation is the endpoint's story.
            assert summary["steps_admitted"] == 6
        finally:
            server.stop()
        journal = json.loads(
            (tmp_path / "out" / "decision_journal.json").read_text()
        )
        verdicts = [
            d["verdict"] for d in journal["alpha"]["endpoint"]["decisions"]
        ]
        assert verdicts.count("failed") == 2
        assert "skipped" in verdicts, "two failures must open the breaker"
        assert verdicts[0] == "ok"


class TestAnalysisRaises:
    """An analysis that raises (not an injected, journaled degradation)
    ends that tenant's connection at once and leaves the server whole."""

    @staticmethod
    def _raise_at_step_2(monkeypatch):
        real = TenantEndpoint.process

        def process(self, step, sim_time, arrays):
            if step == 2:
                raise RuntimeError("boom")
            return real(self, step, sim_time, arrays)

        monkeypatch.setattr(TenantEndpoint, "process", process)

    @pytest.mark.parametrize("placement", ["in-line", "staged"])
    def test_tenant_rejected_at_once_and_may_reconnect(
        self, tmp_path, monkeypatch, placement
    ):
        self._raise_at_step_2(monkeypatch)
        spec = TenantSpec("alpha", placement=placement)
        server = _server(tmp_path, _registry(spec))
        try:
            t0 = time.perf_counter()
            with pytest.raises(ServiceRejected) as err:
                _run(server, "alpha", steps=8, timeout=8.0)
            assert time.perf_counter() - t0 < 1.0
            assert err.value.code == protocol.REJECT_ANALYSIS
            assert "RuntimeError at step 2" in err.value.reason
            handlers = list(server._handlers)
            for t in handlers:
                t.join(timeout=1.0)
            assert not any(t.is_alive() for t in handlers)
            monkeypatch.undo()
            # No BUSY retry: the slot is free before the REJECT is sent.
            assert _run(server, "alpha", steps=2)["steps_admitted"] == 2
        finally:
            t0 = time.perf_counter()
            server.stop()
            assert time.perf_counter() - t0 < 2.0
        assert server.budget.held == 0
        journal = json.loads(
            (tmp_path / "out" / "decision_journal.json").read_text()
        )
        decisions = journal["alpha"]["admission"]["decisions"]
        aborts = [d["detail"] for d in decisions if d["verdict"] == "abort"]
        assert aborts == ["analysis raised RuntimeError at step 2"]

    def test_other_tenants_keep_being_served(self, tmp_path, monkeypatch):
        self._raise_at_step_2(monkeypatch)
        server = _server(
            tmp_path,
            _registry(TenantSpec("alpha", placement="staged"), TenantSpec("beta")),
        )
        try:
            with pytest.raises(ServiceRejected):
                _run(server, "alpha", steps=6, timeout=8.0)
            monkeypatch.undo()
            assert _run(server, "beta", steps=3)["steps_admitted"] == 3
        finally:
            server.stop()

    def test_drain_is_bounded_and_names_the_pending_steps(self, tmp_path):
        release = threading.Event()

        class Wedged:
            tenant = "alpha"
            recorder = None

            def process(self, step, sim_time, arrays):
                release.wait(10.0)
                return "ok", 0.0

        worker = _TenantWorker(
            Wedged(), CostLedger("alpha", "staged"), BytesInFlight(None)
        )
        worker.drain_timeout = 0.2
        try:
            for step in (5, 6):
                worker.submit(step, 0.0, {}, 0)
            t0 = time.perf_counter()
            with pytest.raises(TenantFailure, match=r"'alpha'.*\[5, 6\]"):
                worker.drain()
            assert time.perf_counter() - t0 < 1.0
            with pytest.raises(TenantFailure):
                worker.drain()  # once timed out, at once
        finally:
            release.set()
            worker.stop()
        assert not worker.thread.is_alive()


# -- backpressure -------------------------------------------------------------


class TestBackpressure:
    def test_memory_budget_stalls_but_completes(self, tmp_path):
        payload = len(
            protocol.encode_step(
                0, 0.0, dict(list(synthetic_steps("alpha", 1, SHAPE, 0))[0][2])
            )
        )
        spec = TenantSpec("alpha", QuotaSpec(credits=4))
        server = _server(
            tmp_path, _registry(spec), memory_budget=payload + 1,
        )
        try:
            summary = _run(server, "alpha", steps=6)
            assert summary["steps_admitted"] == 6
        finally:
            server.stop()
        assert server.budget.held == 0, "all in-flight bytes must drain"

    def test_rate_limit_throttles(self, tmp_path):
        spec = TenantSpec("alpha", QuotaSpec(rate_steps_per_s=50.0))
        server = _server(tmp_path, _registry(spec))
        try:
            summary = _run(server, "alpha", steps=4)
            assert summary["steps_admitted"] == 4
        finally:
            server.stop()
        report = json.loads(
            (tmp_path / "out" / "cost_report.json").read_text()
        )
        assert report["tenants"]["alpha"]["throttle_seconds"] > 0.0


# -- artifact byte-identity and isolation -------------------------------------


class TestArtifacts:
    def test_streamed_artifacts_match_inproc_oracle(self, tmp_path):
        server = _server(
            tmp_path,
            _registry(TenantSpec("alpha"), TenantSpec("beta", placement="in-line")),
            render=True,
        )
        try:
            _run(server, "alpha", steps=3)
            _run(server, "beta", steps=3)
        finally:
            server.stop()
        for tenant in ("alpha", "beta"):
            run_workload_inproc(
                tenant,
                synthetic_steps(tenant, 3, SHAPE, 0),
                str(tmp_path / "oracle" / tenant),
            )
            served = tmp_path / "out" / "tenants" / tenant
            oracle = tmp_path / "oracle" / tenant
            served_files = sorted(p.name for p in served.iterdir())
            oracle_files = sorted(p.name for p in oracle.iterdir())
            assert served_files == oracle_files
            for name in served_files:
                assert (served / name).read_bytes() == (
                    oracle / name
                ).read_bytes(), f"{tenant}/{name} diverged from the oracle"

    def test_one_dimensional_field_through_the_oracle(self, tmp_path):
        """The server pads a 1-D step to a 3-D extent; its byte-identity
        oracle must accept the same stream (it raised IndexError)."""
        steps = [(s, 0.1 * s, {"data": np.linspace(0.0, 1.0 + s, 32)}) for s in range(3)]
        endpoint = run_workload_inproc("alpha", steps, str(tmp_path / "oracle"))
        assert endpoint.steps_ok == 3
        hist = json.loads((tmp_path / "oracle" / "histograms.json").read_text())
        assert [sum(h["counts"]) for h in hist] == [32, 32, 32]

    def test_four_concurrent_tenants_isolated(self, tmp_path):
        names = ["t0", "t1", "t2", "t3"]
        server = _server(
            tmp_path, _registry(*(TenantSpec(n) for n in names)), expect=4
        )
        results: dict[str, dict] = {}
        errors: list[Exception] = []

        def drive(name):
            try:
                results[name] = _run(server, name, steps=5)
            except Exception as exc:  # noqa: BLE001 -- surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(n,)) for n in names]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert server.wait(timeout=10), "server should see 4 completions"
        finally:
            server.stop()
        assert not errors, errors
        assert all(results[n]["steps_admitted"] == 5 for n in names)
        # Isolation: each tenant's histogram equals its own oracle and
        # differs from every other tenant's (distinct synthetic phases).
        docs = {}
        for n in names:
            run_workload_inproc(
                n, synthetic_steps(n, 5, SHAPE, 0),
                str(tmp_path / "oracle" / n),
            )
            served = (
                tmp_path / "out" / "tenants" / n / "histograms.json"
            ).read_bytes()
            oracle = (
                tmp_path / "oracle" / n / "histograms.json"
            ).read_bytes()
            assert served == oracle, f"tenant {n} diverged from its oracle"
            docs[n] = served
        assert len(set(docs.values())) == len(names)

    def test_clean_shutdown_no_socket_no_workers(self, tmp_path):
        server = _server(tmp_path, _registry(TenantSpec("alpha")))
        sock = tmp_path / "svc.sock"
        try:
            assert sock.exists()
            _run(server, "alpha", steps=2)
        finally:
            server.stop()
        assert not sock.exists(), "stop() must unlink the listening socket"
        leftovers = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith(("svc-worker", "svc-accept"))
        ]
        assert leftovers == [], f"orphaned service threads: {leftovers}"


# -- journal determinism under faults -----------------------------------------


class TestJournalDeterminism:
    def test_seeded_fault_run_replays_byte_identical_journal(self, tmp_path):
        plan = FaultPlan(
            seed=13,
            events=(
                FaultEvent(SITE_SERVICE_FRAME, "corrupt", rank=0, occurrence=2),
                FaultEvent(SITE_SERVICE_CLIENT, "disconnect", rank=1, step=3),
                FaultEvent(SITE_SERVICE_STEP, "analysis_fail", rank=0, step=1),
            ),
        )

        def run_once(sub):
            reg = _registry(TenantSpec("alpha"), TenantSpec("beta"))
            server = _server(
                tmp_path / sub, reg, seed=21,
                injector=FaultInjector(plan),
            )
            try:
                _run(
                    server, "alpha", steps=5,
                    injector=FaultInjector(plan),
                )
                with pytest.raises(ServiceDisconnected):
                    _run(
                        server, "beta", steps=5,
                        injector=FaultInjector(plan),
                    )
            finally:
                server.stop()
            return (
                tmp_path / sub / "out" / "decision_journal.json"
            ).read_bytes()

        assert run_once("a") == run_once("b")
