"""Zero-copy write/retention sanitizer for the SENSEI bridge.

The paper's headline overhead results (Figs. 3-4) depend on analyses
consuming simulation memory *in place* without mutating or retaining it:

- **No writes.**  Zero-copy mapped arrays are simulation-owned; an analysis
  that writes through a mapped view corrupts the simulation state feeding
  every later step (and every sibling analysis this step).
- **No retention.**  "The pointers to the ... grid data structures are
  passed every time in situ is accessed" (Sec. 4.2.1): after
  ``release_data()`` the per-step mappings are stale, so a retained array or
  mesh silently aliases memory the simulation is free to reuse.

:class:`GuardedDataAdaptor` turns both rules into machine-checked contracts.
It wraps a concrete :class:`~repro.core.adaptors.DataAdaptor` and, per step:

1. hands each analysis *write-protected* views
   (:meth:`~repro.data.DataArray.readonly_view`) -- in-place writes raise at
   the write site;
2. fingerprints the underlying buffers and re-verifies after each
   analysis's ``execute`` -- the backstop for writes that bypass the
   read-only flag (raises :class:`WriteViolation` naming the analysis);
3. takes weakrefs to every handed-out array view and mesh, and after
   ``release_data()`` garbage-collects and checks they died -- anything
   still alive is a retention-contract violation (raises
   :class:`RetentionViolation` naming the requesting analyses).

Analyses that legitimately transform data in place declare
``mutates_data = True`` (see :class:`~repro.core.adaptors.AnalysisAdaptor`)
and receive a private deep copy instead, keeping simulation memory protected
without false positives.

Enabled via ``Bridge(..., sanitize=True)``; off by default and entirely out
of the hot path when disabled.
"""

from __future__ import annotations

import gc
import weakref

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.data import Association, DataArray, Dataset


class SanitizerError(RuntimeError):
    """Base class for sanitizer contract violations."""


class WriteViolation(SanitizerError):
    """An analysis mutated a zero-copy mapped, simulation-owned array."""


class RetentionViolation(SanitizerError):
    """A mapped array or mesh outlived ``release_data()``."""


class _ArrayLease:
    """Per-step bookkeeping for one handed-out array."""

    __slots__ = ("key", "inner", "guarded", "fingerprint", "requesters", "refs")

    def __init__(self, key: tuple, inner: DataArray, guarded: DataArray) -> None:
        self.key = key
        self.inner = inner
        self.guarded = guarded
        self.fingerprint = inner.fingerprint()
        self.requesters: set[str] = set()
        # Weakrefs to the wrapper and each handed-out component view: a
        # retained sub-view keeps its parent view alive through ``.base``,
        # so retention is visible even if only a slice was kept.
        self.refs: list[weakref.ref] = [weakref.ref(guarded)] + [
            weakref.ref(c) for c in guarded.as_soa()
        ]


class GuardedDataAdaptor(DataAdaptor):
    """Debug-mode proxy enforcing the zero-copy write/retention contract.

    Drop-in :class:`DataAdaptor`: the bridge passes it to analyses in place
    of the real adaptor.  All metadata calls delegate to the wrapped
    adaptor; ``get_array`` interposes the write guard.
    """

    def __init__(self, inner: DataAdaptor) -> None:
        super().__init__(inner.comm)
        self._inner = inner
        self._leases: dict[tuple, _ArrayLease] = {}
        self._mesh_leases: list[tuple[weakref.ref, frozenset[str]]] = []
        self._mesh_requesters: set[str] = set()
        self._current: str = "<no analysis>"
        self._current_mutates = False

    # -- per-analysis bracketing (driven by the Bridge) ---------------------
    def begin_analysis(self, analysis: AnalysisAdaptor) -> None:
        self._current = analysis.name
        self._current_mutates = bool(getattr(analysis, "mutates_data", False))

    def verify_analysis(self, analysis: AnalysisAdaptor) -> None:
        """Fingerprint check after one analysis's ``execute``."""
        for lease in self._leases.values():
            if lease.inner.fingerprint() != lease.fingerprint:
                association, name = lease.key
                raise WriteViolation(
                    f"analysis {analysis.name!r} mutated zero-copy mapped "
                    f"array {name!r} ({association.value} data) at step "
                    f"{self._inner.get_data_time_step()}: content fingerprint "
                    "changed during execute().  Zero-copy views are "
                    "simulation-owned; declare `mutates_data = True` on the "
                    "analysis to receive a private copy instead."
                )
        self._current = "<no analysis>"
        self._current_mutates = False

    def release_and_check(self) -> None:
        """Release per-step data, then verify nothing was retained."""
        self._inner.release_data()
        pending: list[tuple[str, str, list[weakref.ref], frozenset[str]]] = [
            (
                "array",
                lease.key[1],
                lease.refs,
                frozenset(lease.requesters),
            )
            for lease in self._leases.values()
        ]
        pending.extend(
            ("mesh", "<mesh>", [ref], requesters)
            for ref, requesters in self._mesh_leases
        )
        # Drop every strong reference the guard itself holds before probing.
        self._leases.clear()
        self._mesh_leases.clear()
        self._mesh_requesters = set()
        gc.collect()
        retained = [
            (kind, name, requesters)
            for kind, name, refs, requesters in pending
            if any(ref() is not None for ref in refs)
        ]
        if retained:
            step = self._inner.get_data_time_step()
            lines = "\n".join(
                f"  {kind} {name!r}, requested by: "
                f"{', '.join(sorted(requesters)) or '<unknown>'}"
                for kind, name, requesters in retained
            )
            raise RetentionViolation(
                f"zero-copy mapping(s) outlived release_data() at step {step}:\n"
                f"{lines}\n"
                "Per-step mappings are stale once release_data() runs "
                "(Sec. 4.2.1); analyses must deep-copy anything they keep.  "
                "If no listed analysis retains it, the data adaptor itself "
                "violates its release contract."
            )

    # -- DataAdaptor contract (delegating) ----------------------------------
    def set_data_time(self, time: float, step: int) -> None:
        super().set_data_time(time, step)
        self._inner.set_data_time(time, step)

    def get_data_time(self) -> float:
        return self._inner.get_data_time()

    def get_data_time_step(self) -> int:
        return self._inner.get_data_time_step()

    def get_mesh(self) -> Dataset:
        mesh = self._inner.get_mesh()
        self._mesh_requesters.add(self._current)
        tracked = any(ref() is mesh for ref, _ in self._mesh_leases)
        if not tracked:
            self._mesh_leases.append(
                (weakref.ref(mesh), frozenset())
            )
        # Refresh requester attribution for the live mesh lease(s).
        self._mesh_leases = [
            (ref, frozenset(self._mesh_requesters)) for ref, _ in self._mesh_leases
        ]
        return mesh

    def get_array(self, association: Association, name: str) -> DataArray:
        inner_arr = self._inner.get_array(association, name)
        if self._current_mutates:
            # Mutating analyses get a private writable copy; simulation
            # memory stays untouched and untracked for them.
            return inner_arr.deep_copy()
        key = (association, name)
        lease = self._leases.get(key)
        if lease is None:
            lease = _ArrayLease(key, inner_arr, inner_arr.readonly_view())
            self._leases[key] = lease
        lease.requesters.add(self._current)
        return lease.guarded

    def get_number_of_arrays(self, association: Association) -> int:
        return self._inner.get_number_of_arrays(association)

    def get_array_name(self, association: Association, index: int) -> str:
        return self._inner.get_array_name(association, index)

    def available_arrays(self, association: Association) -> list[str]:
        return self._inner.available_arrays(association)

    def release_data(self) -> None:
        """Direct calls route through the full release-and-check cycle."""
        self.release_and_check()
