"""Bench-owned span recording: the traced run's only clock.

A span is ``(label, metric, t0, t1, parent, step, amount)``: ``label`` says
which call it wraps, ``metric`` names the per-layer metric its *self time*
(duration minus the durations of its direct children) is charged to,
``parent`` is the index of the enclosing span on the same rank, ``step`` the
simulation step it served and ``amount`` an optional byte count measured at
the same boundary.  Spans are kept in memory by one :class:`Tracer` per rank
and handed back through the rank program's return value.

Three sources feed a tracer, all from files under ``bench/``: ``with
tracer.span(...)`` around the calls the bench's own loops make,
:class:`TracedAnalysis` around every adaptor given to a bridge, and the
timing shims of :func:`install_shims` for public functions the adaptors
call.  The untraced run uses :data:`OFF`, whose ``span`` is a shared no-op
context manager, and installs no shim.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time

from repro.core.adaptors import AnalysisAdaptor

#: Span tuple field positions.
LABEL, METRIC, T0, T1, PARENT, STEP, AMOUNT = range(7)

#: Metric charged for time a rank spends in the bench's own loop (between
#: spans); reported as ``driver.unattributed_frac``.
UNATTRIBUTED = "driver.unattributed"

_active = threading.local()


class Tracer:
    """Spans of one rank; used only from that rank's thread."""

    enabled = True

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.spans: list[list] = []
        self._open: list[int] = []
        self.step = 0

    def begin(self, label: str, metric: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(
            [label, metric, time.perf_counter(), 0.0, parent, self.step, 0]
        )
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int, amount: int = 0) -> None:
        span = self.spans[idx]
        span[T1] = time.perf_counter()
        span[AMOUNT] = amount
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(
                f"span {span[LABEL]!r} closed out of order on rank {self.rank}"
            )

    @contextlib.contextmanager
    def span(self, label: str, metric: str):
        idx = self.begin(label, metric)
        try:
            yield
        finally:
            self.end(idx)

    def activate(self) -> None:
        """Make this the tracer the shims on the calling thread record to."""
        _active.tracer = self

    def dump(self) -> list[tuple]:
        """Closed spans as plain tuples (picklable across the process
        backend's address-space boundary)."""
        if self._open:
            raise RuntimeError(
                f"rank {self.rank} ended with open spans: "
                f"{[self.spans[i][LABEL] for i in self._open]}"
            )
        return [tuple(s) for s in self.spans]


class _Off:
    """The untraced run's tracer: records nothing."""

    enabled = False
    step = 0
    _null = contextlib.nullcontext()

    def span(self, label: str, metric: str):
        return self._null

    def activate(self) -> None:
        pass

    def dump(self) -> list[tuple]:
        return []


OFF = _Off()


def make_tracer(traced: bool, rank: int):
    """A live tracer, activated for the calling thread, or :data:`OFF`."""
    if not traced:
        return OFF
    tracer = Tracer(rank)
    tracer.activate()
    return tracer


class TracedAnalysis(AnalysisAdaptor):
    """Delegating adaptor that spans ``initialize``/``execute``/``finalize``
    of the adaptor it wraps.

    It reports the wrapped adaptor's ``name``, so the bridge's own timers
    keep the names they would have without the wrapper.  With
    ``carry=tracer`` (the FlexPath endpoint, whose return value the bench
    does not own) ``finalize`` returns ``{"result": ..., "spans": ...}`` so
    that rank's spans still travel through the program's return value.
    """

    def __init__(
        self, inner: AnalysisAdaptor, tracer, metric: str, carry=None
    ) -> None:
        super().__init__()
        self.inner = inner
        self.tracer = tracer
        self.metric = metric
        self.carry = carry
        self.mutates_data = inner.mutates_data

    @property
    def name(self) -> str:
        return self.inner.name

    def set_instrumentation(self, timers, memory) -> None:
        super().set_instrumentation(timers, memory)
        self.inner.set_instrumentation(timers, memory)

    def initialize(self, comm) -> None:
        with self.tracer.span(f"initialize:{self.name}", self.metric):
            self.inner.initialize(comm)

    def execute(self, data) -> bool:
        with self.tracer.span(f"execute:{self.name}", self.metric):
            return self.inner.execute(data)

    def finalize(self):
        with self.tracer.span(f"finalize:{self.name}", self.metric):
            result = self.inner.finalize()
        if self.carry is not None:
            carry, self.carry = self.carry, None
            carry.close_root()
            return {"result": result, "spans": carry.tracer.dump()}
        return result


def wrap_analysis(inner: AnalysisAdaptor, tracer, metric: str, carry=None):
    """``inner`` under :class:`TracedAnalysis` in a traced run, else bare."""
    if not tracer.enabled:
        return inner
    return TracedAnalysis(inner, tracer, metric, carry)


class RootSpan:
    """The span covering one rank's whole program; its self time is the
    rank's unattributed wall."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self._idx = (
            tracer.begin("rank.program", UNATTRIBUTED) if tracer.enabled else None
        )

    def close_root(self) -> None:
        if self._idx is not None:
            self.tracer.end(self._idx)
            self._idx = None


# -- timing shims --------------------------------------------------------------

#: ``(module, attribute path, label, metric, amount)``: where a shim goes.
#: ``amount`` picks the byte count recorded with the span: ``"result_len"``
#: (``len`` of the return value), ``"result_nbytes"`` or ``"result_int"``.
#: Names are patched on the *caller's* module, so code that imported the
#: function elsewhere is untouched.
_RENDER = "repro.infrastructure.catalyst"
_LIBSIM = "repro.infrastructure.libsim"
_PARTICLES = "repro.analysis.particles"
_POSTHOC = "repro.posthoc.pipeline"
_COLLECTIVES = (
    "barrier", "allgather", "gather", "bcast", "scatter", "reduce",
    "allreduce", "alltoall", "allreduce_minmax", "exscan",
)
_P2P = ("send", "recv", "recv_with_status", "sendrecv")

SHIMS: list[tuple[str, str, str, str, str | None]] = [
    (_RENDER, "rasterize_slice", "rasterize_slice", "render.rasterize_s", None),
    (_RENDER, "composite_over_into", "composite_over_into", "render.composite_s", None),
    (_RENDER, "binary_swap", "binary_swap", "render.composite_s", None),
    (_RENDER, "encode_png", "encode_png", "render.png_encode_s", "result_len"),
    (_LIBSIM, "rasterize_slice", "rasterize_slice", "render.rasterize_s", None),
    (_LIBSIM, "composite_over", "composite_over", "render.composite_s", None),
    (_LIBSIM, "direct_send", "direct_send", "render.composite_s", None),
    (_LIBSIM, "encode_png", "encode_png", "render.png_encode_s", "result_len"),
    (_PARTICLES, "encode_png", "encode_png", "render.png_encode_s", "result_len"),
    (_PARTICLES, "friends_of_friends", "friends_of_friends", "analysis.fof_s", None),
    ("repro.analysis.histogram", "parallel_histogram", "parallel_histogram",
     "analysis.histogram_s", None),
    (_POSTHOC, "read_subextent", "read_subextent", "storage.vtk_read_s",
     "result_nbytes"),
    (_POSTHOC, "parallel_histogram", "posthoc.parallel_histogram",
     "posthoc.process_s", None),
    ("repro.storage.bp", "BPWriter.write", "BPWriter.write", "storage.bp_write_s",
     "result_int"),
]
for _cls in ("repro.mpi.communicator:Communicator",
             "repro.mpi.process_backend:ProcessCommunicator"):
    _mod, _name = _cls.split(":")
    SHIMS += [(_mod, f"{_name}.{m}", f"mpi.{m}", "mpi.collective_s", None)
              for m in _COLLECTIVES]
    SHIMS += [(_mod, f"{_name}.{m}", f"mpi.{m}", "mpi.p2p_s", None) for m in _P2P]

_AMOUNT = {
    None: lambda result: 0,
    "result_len": len,
    "result_nbytes": lambda result: result.nbytes,
    "result_int": int,
}


def _shim(fn, label: str, metric: str, amount: str | None):
    measure = _AMOUNT[amount]

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        tracer = getattr(_active, "tracer", None)
        if tracer is None:
            # A thread the bench did not start (codec pool, drainer).
            return fn(*args, **kwargs)
        idx = tracer.begin(label, metric)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx)
            raise
        tracer.end(idx, measure(result))
        return result

    return timed


def install_shims() -> None:
    """Patch every :data:`SHIMS` entry that exists; traced run only, before
    ``run_spmd`` so forked ranks inherit the patched names.

    A method a subclass does not itself define is skipped: the base class's
    shim already covers it.
    """
    # Import everything first: a module imported after a patch would bind
    # the patched name, and its own shim would then wrap a shim.
    for module_name in {entry[0] for entry in SHIMS}:
        importlib.import_module(module_name)
    for module_name, path, label, metric, amount in SHIMS:
        owner = sys.modules[module_name]
        *holders, attr = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder)
        if attr not in vars(owner):
            continue
        setattr(owner, attr, _shim(vars(owner)[attr], label, metric, amount))


# -- attribution ----------------------------------------------------------------


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    out = [s[T1] - s[T0] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[T1] - s[T0]
    return out


def by_metric(spans: list[tuple]) -> dict[str, float]:
    """Self time summed per metric for one rank's spans."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[s[METRIC]] = out.get(s[METRIC], 0.0) + own
    return out


def by_label(spans: list[tuple]) -> dict[str, tuple[float, int, int]]:
    """``label -> (inclusive seconds, calls, amount)`` for one rank, counting
    only outermost calls: a subclass method calling its base class's shimmed
    method, or ``sendrecv`` calling ``send``, is one call, not two."""
    out: dict[str, tuple[float, int, int]] = {}
    for s in spans:
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if parent is not None and (
            parent[LABEL] == s[LABEL]
            or (parent[LABEL].startswith("mpi.") and s[LABEL].startswith("mpi."))
        ):
            continue
        total, calls, amount = out.get(s[LABEL], (0.0, 0, 0))
        out[s[LABEL]] = (total + s[T1] - s[T0], calls + 1, amount + s[AMOUNT])
    return out
