"""An ADIOS-BP-style self-describing container.

ADIOS "marshals the memory and metadata to make such code self-describing"
(Sec. 2.2.3); its BP format stores per-writer data subfiles plus a global
metadata index.  :class:`BPWriter` reproduces that layout (a ``<name>.bp``
directory with ``data.<rank>`` subfiles and a root-written
``md.idx`` JSON index); :class:`BPReader` reads any variable's global or
sub-selected box back with any number of reader ranks.  The SENSEI ADIOS
analysis adaptor uses this for its "save the data out to an ADIOS BP file"
mode; the FlexPath staging transport shares the variable/metadata model but
moves buffers memory-to-memory instead.

A block goes out as a byte view of the array itself and comes back by one
``preadv`` per stored block, straight into the result wherever the block
lies wholly inside the selection with its own dtype: no intermediate
``bytes`` object on either side.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.faults.injector import InjectedWriteError
from repro.storage.checks import (
    StorageFormatError,
    read_block_into,
    stored_dims,
    stored_dtype,
    stored_extent,
    stored_object,
)
from repro.util.decomp import Extent


@dataclass(frozen=True)
class BPBlockRecord:
    """Metadata for one writer's block of one variable at one step."""

    var: str
    step: int
    rank: int
    extent: Extent
    dtype: str
    offset: int  # byte offset in the writer's data subfile
    nbytes: int


class BPFile:
    """Path helpers for the on-disk BP layout."""

    def __init__(self, path) -> None:
        self.root = str(path)
        if not self.root.endswith(".bp"):
            self.root += ".bp"

    def subfile(self, rank: int) -> str:
        return os.path.join(self.root, f"data.{rank}")

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "md.idx")


class BPWriter:
    """Collective, step-oriented writer.

    Usage per step (mirrors the ADIOS write API): ``begin_step`` ...
    ``write(var, block, extent)`` ... ``end_step``; ``close`` writes the
    metadata index from rank 0.
    """

    def __init__(self, comm, path, global_dims: tuple[int, int, int]) -> None:
        self.comm = comm
        self.file = BPFile(path)
        self.global_dims = global_dims
        self._step: int | None = None
        self._next_step = 0
        self._local_records: list[BPBlockRecord] = []
        self._offset = 0
        if comm.rank == 0:
            os.makedirs(self.file.root, exist_ok=True)
        comm.barrier()
        self._fh = open(self.file.subfile(comm.rank), "wb")
        self._closed = False

    def begin_step(self) -> int:
        if self._step is not None:
            raise RuntimeError("begin_step inside an open step")
        self._step = self._next_step
        return self._step

    def write(self, var: str, block: np.ndarray, extent: Extent) -> int:
        """Write this rank's block of ``var``; returns bytes written."""
        if self._step is None:
            raise RuntimeError("write outside begin_step/end_step")
        data = np.ascontiguousarray(block)
        if data.shape != extent.shape:
            raise ValueError("block shape must match extent")
        raw = data.reshape(-1).view(np.uint8)
        inj = getattr(self.comm, "fault_injector", None)
        if inj is not None:
            self._consult_injector(inj, raw)
        self._fh.write(raw)
        self._local_records.append(
            BPBlockRecord(
                var=var,
                step=self._step,
                rank=self.comm.rank,
                extent=extent,
                dtype=str(data.dtype),
                offset=self._offset,
                nbytes=len(raw),
            )
        )
        self._offset += len(raw)
        return len(raw)

    def _consult_injector(self, inj, raw: np.ndarray) -> None:
        """Resolve an injected filesystem fault for this write call.

        A partial write puts real bytes in the subfile before failing, then
        rewinds and truncates the handle back to the record's start offset
        -- so retrying the same ``write`` is idempotent (the block record
        and ``_offset`` only advance on success).
        """
        action = inj.draw(
            "storage.write",
            self.comm._draw_rank(),
            step=self._step,
            trace=getattr(self.comm, "trace_recorder", None),
        )
        if action is None:
            return
        if action.kind == "write_fail":
            raise InjectedWriteError(
                f"injected write failure (rank {self.comm.rank}, "
                f"step {self._step})"
            )
        if action.kind == "write_partial":
            fraction = float(action.params.get("fraction", 0.5))
            self._fh.write(raw[: int(len(raw) * fraction)])
            self._fh.flush()
            self._fh.seek(self._offset)
            self._fh.truncate()
            raise InjectedWriteError(
                f"injected partial write (rank {self.comm.rank}, "
                f"step {self._step})"
            )
        if action.kind == "write_slow":
            time.sleep(float(action.params.get("seconds", 0.002)))

    def end_step(self) -> None:
        """Advance: exchange metadata so the step is globally visible.

        This is the ``adios::advance`` boundary whose cost Fig. 8 reports.
        """
        if self._step is None:
            raise RuntimeError("end_step without begin_step")
        self._step = None
        self._next_step += 1
        self.comm.barrier()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fh.flush()
        self._fh.close()
        all_records = self.comm.gather(
            [
                {
                    "var": r.var,
                    "step": r.step,
                    "rank": r.rank,
                    "extent": [r.extent.i0, r.extent.i1, r.extent.j0, r.extent.j1, r.extent.k0, r.extent.k1],
                    "dtype": r.dtype,
                    "offset": r.offset,
                    "nbytes": r.nbytes,
                }
                for r in self._local_records
            ],
            root=0,
        )
        if self.comm.rank == 0:
            index = {
                "global_dims": list(self.global_dims),
                "num_writers": self.comm.size,
                "num_steps": self._next_step,
                "blocks": [rec for per_rank in all_records for rec in per_rank],
            }
            with open(self.file.index_path, "w", encoding="utf-8") as fh:
                json.dump(index, fh)
        self.comm.barrier()


def _index_int(node, key: str, where: str, minimum: int = 0) -> int:
    v = node.get(key)
    if type(v) is not int or v < minimum:
        raise StorageFormatError(f"{where}.{key} must be an integer >= {minimum}: {v!r}")
    return v


def _block_record(b, n: int, global_dims, num_writers: int) -> BPBlockRecord:
    """One index entry, checked against the container it claims to be in."""
    where = f"blocks[{n}]"
    if not isinstance(b, dict):
        raise StorageFormatError(f"{where} is not an object: {b!r}")
    var = b.get("var")
    if not isinstance(var, str):
        raise StorageFormatError(f"{where}.var must be a string: {var!r}")
    rank = _index_int(b, "rank", where)
    if rank >= num_writers:
        # The rank names the subfile: out of range would read another file.
        raise StorageFormatError(f"{where}.rank {rank} is not one of {num_writers} writers")
    nx, ny, nz = global_dims
    whole = Extent(0, nx - 1, 0, ny - 1, 0, nz - 1)
    extent = stored_extent(b.get("extent"), f"{where}.extent", within=whole)
    dtype = stored_dtype(b.get("dtype"), f"{where}.dtype")
    nbytes = _index_int(b, "nbytes", where)
    if nbytes != extent.num_points * dtype.itemsize:
        raise StorageFormatError(
            f"{where}.nbytes {nbytes} is not {extent.shape} x {dtype.itemsize} bytes"
        )
    return BPBlockRecord(
        var=var,
        step=_index_int(b, "step", where),
        rank=rank,
        extent=extent,
        dtype=b["dtype"],
        offset=_index_int(b, "offset", where),
        nbytes=nbytes,
    )


class BPReader:
    """Reads variables back, with sub-extent selection; works with any
    number of reader ranks (each reader opens only the subfiles it needs).

    The index is validated as it is opened and every subfile read is
    length-checked; a container that fails raises
    :class:`StorageFormatError`.
    """

    def __init__(self, path) -> None:
        self.file = BPFile(path)
        with open(self.file.index_path, "rb") as fh:
            raw = stored_object(fh.read(), self.file.index_path)
        if not isinstance(raw.get("blocks"), list):
            raise StorageFormatError("BP index must have a 'blocks' list")
        self.global_dims = stored_dims(raw.get("global_dims"), "global_dims")
        self.num_writers = _index_int(raw, "num_writers", "index", minimum=1)
        self.num_steps = _index_int(raw, "num_steps", "index")
        self._blocks = [
            _block_record(b, n, self.global_dims, self.num_writers)
            for n, b in enumerate(raw["blocks"])
        ]

    def variables(self) -> list[str]:
        return sorted({b.var for b in self._blocks})

    def read(self, var: str, step: int, selection: Extent | None = None) -> np.ndarray:
        """Read ``var`` at ``step``, optionally restricted to ``selection``."""
        records = [b for b in self._blocks if b.var == var and b.step == step]
        if not records:
            raise KeyError(f"no blocks for var {var!r} at step {step}")
        if selection is None:
            nx, ny, nz = self.global_dims
            selection = Extent(0, nx - 1, 0, ny - 1, 0, nz - 1)
        out = np.zeros(selection.shape, dtype=np.dtype(records[0].dtype))
        for rec in records:
            if rec.extent.intersect(selection) is None:
                continue
            path = self.file.subfile(rec.rank)
            fd = os.open(path, os.O_RDONLY)
            try:
                read_block_into(
                    fd, path, rec.offset, np.dtype(rec.dtype), rec.extent,
                    out, selection,
                )
            finally:
                os.close(fd)
        return out
