"""The per-row shared-file I/O the coalesced runs replaced.

Kept verbatim as the reference ``repro.storage.mpiio`` is compared against:
one ``seek`` + ``tobytes()`` + ``write`` per (i, j) row of a block on the way
out, one ``seek`` + ``read`` per row on the way back.  Both address the same
canonical layout, so the coalesced writer's shared file must come out
byte-equal to this one's and its reads ``np.array_equal``.  Fault injection
and retry are left out: they wrap the data phase and do not touch the bytes.
"""

import json
import os

import numpy as np

from repro.storage.checks import StorageFormatError, stored_dims, stored_dtype
from repro.storage.mpiio import _HEADER_BYTES, _header, file_size_for
from repro.util.decomp import Extent


def mpiio_write_collective(
    comm,
    path,
    block: np.ndarray,
    extent: Extent,
    global_dims: tuple[int, int, int],
) -> int:
    """Collectively write per-rank blocks, one seek+write per (i, j) row."""
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
    written = 0
    with open(path, "r+b") as fh:
        for li, gi in enumerate(range(extent.i0, extent.i1 + 1)):
            for lj, gj in enumerate(range(extent.j0, extent.j1 + 1)):
                offset = _HEADER_BYTES + ((gi * ny + gj) * nz + extent.k0) * itemsize
                fh.seek(offset)
                row = data[li, lj].tobytes()
                fh.write(row)
                written += len(row)
    comm.barrier()
    return written


def mpiio_read_block(path, extent: Extent) -> np.ndarray:
    """Read one sub-block back, one seek+read per (i, j) row."""
    with open(path, "rb") as fh:
        hlen = int.from_bytes(fh.read(8), "little")
        if not 0 < hlen <= _HEADER_BYTES - 8:
            raise StorageFormatError(f"{path}: header length {hlen} out of range")
        try:
            meta = json.loads(fh.read(hlen).decode())
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise StorageFormatError(f"{path}: unreadable header: {exc}") from exc
        if not isinstance(meta, dict):
            raise StorageFormatError(f"{path}: header is not an object")
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
        nk = extent.k1 - extent.k0 + 1
        for li, gi in enumerate(range(extent.i0, extent.i1 + 1)):
            for lj, gj in enumerate(range(extent.j0, extent.j1 + 1)):
                offset = _HEADER_BYTES + ((gi * ny + gj) * nz + extent.k0) * dtype.itemsize
                fh.seek(offset)
                out[li, lj] = np.frombuffer(
                    fh.read(nk * dtype.itemsize), dtype=dtype
                )
    return out
