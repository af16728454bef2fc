"""Collective shared-file I/O in the MPI-IO style.

The paper's MPI-IO comparison point (Table 1) uses
``MPI_Type_create_subarray`` + ``MPI_File_set_view`` + ``MPI_File_write_all``
to store the global multi-dimensional array in canonical order in one shared
file.  We emulate that faithfully: every rank writes its block into the
shared file at the offsets the subarray filetype would dictate, coalescing
adjacent pieces into one request the way ROMIO's contiguous fast path does.
What is contiguous in the canonical C-order layout depends on the block:

- a block spanning all of ``ny`` and ``nz`` (an i-slab) is one run;
- a block spanning ``nz`` only is one run per i-plane;
- any other block is *strided*: one run per (i, j) row -- the access
  pattern that makes shared-file I/O slower than file-per-process in Table 1.

Each run is one ``os.pwrite`` / ``os.preadv`` at an absolute offset, on a
view of the block's own memory.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.faults.injector import InjectedWriteError
from repro.storage.checks import StorageFormatError, read_header, stored_dims, stored_dtype
from repro.util.decomp import Extent

_HEADER_BYTES = 512


def _header(global_dims: tuple[int, int, int], dtype: np.dtype) -> bytes:
    meta = json.dumps({"dims": list(global_dims), "dtype": str(dtype)}).encode()
    if len(meta) > _HEADER_BYTES - 8:
        raise ValueError("header too large")
    return len(meta).to_bytes(8, "little") + meta.ljust(_HEADER_BYTES - 8, b"\x00")


def mpiio_write_collective(
    comm,
    path,
    block: np.ndarray,
    extent: Extent,
    global_dims: tuple[int, int, int],
) -> int:
    """Collectively write per-rank blocks into one canonical shared file.

    Returns the bytes this rank wrote.  Rank 0 pre-sizes the file and writes
    the header; all ranks then write their subarray's runs at computed
    offsets.  A barrier separates the two phases, standing in for the
    synchronization inside ``MPI_File_write_all``.

    Injected storage faults (``storage.write`` site) hit the per-rank data
    phase only, and propagate.
    """
    data = np.ascontiguousarray(block)
    if data.shape != extent.shape:
        raise ValueError("block shape must match extent")
    nx, ny, nz = global_dims
    itemsize = data.dtype.itemsize
    total = _HEADER_BYTES + nx * ny * nz * itemsize
    if comm.rank == 0:
        with open(path, "wb") as fh:
            fh.write(_header(global_dims, data.dtype))
            fh.truncate(total)
    comm.barrier()
    inj = getattr(comm, "fault_injector", None)
    if inj is not None:
        _consult_injector(comm, inj)
    flat = memoryview(data.reshape(-1).view(np.uint8))  # cast("B") refuses size 0
    fd = os.open(path, os.O_WRONLY)
    try:
        for offset, lo, hi in _runs(extent, ny, nz, itemsize):
            while lo < hi:  # pwrite may write short; resume where it stopped
                n = os.pwrite(fd, flat[lo:hi], offset)
                lo += n
                offset += n
    finally:
        os.close(fd)
    comm.barrier()
    return data.nbytes


def _consult_injector(comm, inj) -> None:
    """Resolve an injected fault before a rank's shared-file data phase."""
    action = inj.draw(
        "storage.write",
        comm._draw_rank(),
        trace=getattr(comm, "trace_recorder", None),
    )
    if action is None:
        return
    if action.kind in ("write_fail", "write_partial"):
        # Partial and failed writes are equivalent here: the fault is drawn
        # before any run is written.
        raise InjectedWriteError(
            f"injected {action.kind} in shared-file data phase (rank {comm.rank})"
        )
    if action.kind == "write_slow":
        time.sleep(float(action.params.get("seconds", 0.002)))


def mpiio_read_block(path, extent: Extent) -> np.ndarray:
    """Read one sub-block back from a canonical shared file.

    The header and the file's size are checked before any of it is
    trusted; a file that fails raises :class:`StorageFormatError`.
    """
    with open(path, "rb") as fh:
        meta, _ = read_header(fh.fileno(), path, 0, _HEADER_BYTES - 8)
        nx, ny, nz = stored_dims(meta.get("dims"), f"{path}: dims")
        dtype = stored_dtype(meta.get("dtype"), f"{path}: dtype")
        if os.fstat(fh.fileno()).st_size < file_size_for((nx, ny, nz), dtype):
            raise StorageFormatError(f"{path}: truncated data section")
        if not (
            0 <= extent.i0 <= extent.i1 < nx
            and 0 <= extent.j0 <= extent.j1 < ny
            and 0 <= extent.k0 <= extent.k1 < nz
        ):
            raise ValueError("requested extent outside the stored array")
        out = np.empty(extent.shape, dtype=dtype)
        flat = memoryview(out.reshape(-1).view(np.uint8))
        for offset, lo, hi in _runs(extent, ny, nz, dtype.itemsize):
            if os.preadv(fh.fileno(), [flat[lo:hi]], offset) != hi - lo:
                raise StorageFormatError(f"{path}: short read at byte {offset}")
    return out


def _runs(extent: Extent, ny: int, nz: int, itemsize: int):
    """Yield ``(file_offset, lo, hi)`` per contiguous run of ``extent``: one
    per i-slab, i-plane or (i, j) row, with ``lo:hi`` in block bytes."""
    ni, nj, nk = extent.shape
    start = _HEADER_BYTES + ((extent.i0 * ny + extent.j0) * nz + extent.k0) * itemsize
    if nk == nz and nj == ny:
        ni, nj, nk = 1, 1, ni * nj * nk
    elif nk == nz:
        nj, nk = 1, nj * nk
    run = nk * itemsize
    for li in range(ni):
        for lj in range(nj):
            lo = (li * nj + lj) * run
            yield start + (li * ny + lj) * nz * itemsize, lo, lo + run


def file_size_for(global_dims: tuple[int, int, int], dtype) -> int:
    nx, ny, nz = global_dims
    return _HEADER_BYTES + nx * ny * nz * np.dtype(dtype).itemsize
