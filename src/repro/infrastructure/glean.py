"""GLEAN emulation: topology-aware aggregation + accelerated I/O.

GLEAN "takes application, analysis, and system characteristics into account
to facilitate simulation-time data analysis and I/O acceleration ...
providing a flexible interface to the fastest path for their data" with
"zero or minimal modifications to the existing application code base"
(Sec. 2.2.3).  The emulation implements GLEAN's signature mechanism:
many-to-few *aggregation* -- compute ranks forward their blocks to a small
set of aggregator ranks (one per simulated "node"), which write few large
files instead of many small ones, optionally on a background thread so the
simulation continues (asynchronous staging).
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.core.configurable import register_analysis
from repro.data import Association, ImageData
from repro.util.decomp import Extent
from repro.util.timers import timed

#: Longest wait for one drain write, in seconds (a communicator's default
#: wait); past it the step's write is declared hung.
_DRAIN_TIMEOUT_S = 120.0


@register_analysis("glean")
def _make_glean(config) -> "GleanAdaptor":
    return GleanAdaptor(
        output_dir=config.require("output_dir"),
        array=config.get("array", "data"),
        ranks_per_aggregator=config.get_int("ranks_per_aggregator", 4),
        asynchronous=config.get_bool("asynchronous", False),
    )


class GleanAdaptor(AnalysisAdaptor):
    """Aggregated (many-to-few) staging writer.

    Every ``ranks_per_aggregator`` consecutive ranks share one aggregator
    (the lowest rank of the group, standing in for "one rank per node"
    topology awareness).  Compute ranks send their block to the aggregator;
    the aggregator appends all blocks to one file per step.  With
    ``asynchronous=True`` the aggregator's file write happens on a drain
    thread, so ``execute`` returns as soon as the data is staged --
    GLEAN's I/O acceleration mode.
    """

    def __init__(
        self,
        output_dir,
        array: str = "data",
        ranks_per_aggregator: int = 4,
        asynchronous: bool = False,
    ) -> None:
        super().__init__()
        if ranks_per_aggregator <= 0:
            raise ValueError("ranks_per_aggregator must be positive")
        self.output_dir = str(output_dir)
        self.array = array
        self.ranks_per_aggregator = ranks_per_aggregator
        self.asynchronous = asynchronous
        self._comm = None
        self._is_aggregator = False
        self._group: list[int] = []
        self._drain: threading.Thread | None = None
        self._drain_step = -1
        self._drain_error: BaseException | None = None
        self.steps_staged = 0

    def initialize(self, comm) -> None:
        self._comm = comm
        base = (comm.rank // self.ranks_per_aggregator) * self.ranks_per_aggregator
        self._is_aggregator = comm.rank == base
        self._group = [
            r
            for r in range(base, min(base + self.ranks_per_aggregator, comm.size))
        ]
        if comm.rank == 0:
            os.makedirs(self.output_dir, exist_ok=True)
        comm.barrier()

    @property
    def aggregator_rank(self) -> int:
        return self._group[0]

    def _write_aggregate(self, step: int, blocks: list[tuple[int, Extent, np.ndarray]]):
        path = os.path.join(
            self.output_dir, f"glean_step{step:06d}_agg{self.aggregator_rank:06d}.dat"
        )
        index = []
        with open(path, "wb") as fh:
            offset = 0
            payloads = []
            for rank, extent, data in blocks:
                raw = data.tobytes()
                index.append(
                    {
                        "rank": rank,
                        "extent": [extent.i0, extent.i1, extent.j0, extent.j1, extent.k0, extent.k1],
                        "dtype": str(data.dtype),
                        "offset": offset,
                        "nbytes": len(raw),
                    }
                )
                payloads.append(raw)
                offset += len(raw)
            header = json.dumps(index).encode()
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for raw in payloads:
                fh.write(raw)

    def _write_in_background(self, step: int, blocks) -> None:
        try:
            self._write_aggregate(step, blocks)
        except Exception as exc:  # noqa: BLE001 -- re-raised by _join_drain
            self._drain_error = exc

    def _join_drain(self) -> None:
        """Wait out the drain thread and re-raise what it raised: a step
        whose aggregate never reached the disk must not count as staged."""
        if self._drain is not None:
            self._drain.join(timeout=_DRAIN_TIMEOUT_S)
            if self._drain.is_alive():
                raise TimeoutError(
                    f"GLEAN aggregator rank {self.aggregator_rank}: the drain "
                    f"write of step {self._drain_step} did not finish within "
                    f"{_DRAIN_TIMEOUT_S:g} s"
                )
            self._drain = None
        if self._drain_error is not None:
            exc, self._drain_error = self._drain_error, None
            raise exc

    def execute(self, data: DataAdaptor) -> bool:
        mesh = data.get_mesh()
        if not isinstance(mesh, ImageData):
            raise TypeError("GleanAdaptor requires an ImageData mesh")
        arr = data.get_array(Association.POINT, self.array)
        step = data.get_data_time_step()
        block = arr.values.reshape(mesh.dims)
        with timed(self.timers, "glean::stage"):
            if not self._is_aggregator:
                self._comm.send(
                    (self._comm.rank, mesh.extent, block), dest=self.aggregator_rank,
                    tag=2000 + step % 100,
                )
            else:
                blocks = [(self._comm.rank, mesh.extent, block.copy())]
                for _ in self._group[1:]:
                    blocks.append(
                        self._comm.recv(tag=2000 + step % 100)
                    )
                blocks.sort(key=lambda b: b[0])
                rec = self.timers.trace if self.timers is not None else None
                if rec is not None:
                    rec.count(
                        "glean::bytes_staged", sum(b[2].nbytes for b in blocks)
                    )
                if self.memory is not None:
                    # The aggregator holds every group member's block until
                    # the file write drains; charge the staging footprint
                    # into the high-water mark then release (Fig. 4 idiom).
                    staged = sum(b[2].nbytes for b in blocks)
                    self.memory.allocate(staged, label="glean::staged")
                    self.memory.free(staged, label="glean::staged")
                if self.asynchronous:
                    # Wait out any previous drain, then write in background.
                    if self._drain is not None:
                        with timed(self.timers, "glean::drain_wait"):
                            self._join_drain()
                    # Daemon: a drain that hangs past the bounded join must
                    # not also hold the interpreter open at exit.
                    self._drain = threading.Thread(
                        target=self._write_in_background, args=(step, blocks),
                        daemon=True,
                    )
                    self._drain_step = step
                    self._drain.start()
                else:
                    with timed(self.timers, "glean::write"):
                        self._write_aggregate(step, blocks)
        self.steps_staged += 1
        return True

    def finalize(self):
        self._join_drain()
        return {"steps_staged": self.steps_staged, "aggregator": self._is_aggregator}
