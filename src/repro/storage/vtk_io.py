"""File-per-process structured I/O with a parallel index.

Mirrors VTK's ``.vti`` piece + ``.pvti`` index pattern: every rank writes its
block (header + raw little-endian array) to its own file; rank 0 writes one
JSON index describing the whole extent and the pieces.  The reader side can
run on any number of ranks -- each reader claims a subset of pieces or a
sub-extent, which is how the post hoc study reads 45K-core data with 10% of
the cores.

Blocks are written from a byte view of the array, and read by one
``preadv`` each, straight into the reader's array when the piece lies wholly
inside its sub-extent with the index's dtype: no ``bytes`` copy either way.
Index and headers are validated first (:class:`StorageFormatError`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from repro.data import Association, ImageData
from repro.storage.checks import (
    StorageFormatError, read_block_into, read_header, stored_dtype,
    stored_extent, stored_name, stored_object, stored_point,
)
from repro.util.decomp import Extent, block_decompose_1d

_MAGIC = b"RVI1"


@dataclass(frozen=True)
class VTKPiece:
    """One piece (rank block) recorded in an index."""

    filename: str
    extent: Extent


@dataclass
class VTKIndex:
    """The root-written index for one time step."""

    whole_extent: Extent
    field: str
    dtype: str
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    time: float
    step: int
    pieces: list[VTKPiece]


def _extent_to_list(e: Extent) -> list[int]:
    return [e.i0, e.i1, e.j0, e.j1, e.k0, e.k1]


def write_block(path, image: ImageData, field: str) -> int:
    """Write one block file; returns bytes written.

    Layout: magic, 8-byte little-endian header length, JSON header, raw
    C-order array bytes.
    """
    arr = image.get_array(Association.POINT, field)
    data = np.ascontiguousarray(arr.values.reshape(image.dims))
    header = json.dumps(
        {
            "extent": _extent_to_list(image.extent),
            "whole_extent": _extent_to_list(image.whole_extent),
            "spacing": list(image.spacing),
            "origin": list(image.origin),
            "field": field,
            "dtype": str(data.dtype),
        }
    ).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC + len(header).to_bytes(8, "little") + header)
        fh.write(data.reshape(-1).view(np.uint8))
    return len(_MAGIC) + 8 + len(header) + data.nbytes


def _piece_header(fd: int, path) -> tuple[np.dtype, Extent, int]:
    """Validate a block file's header and size; returns its dtype, extent
    and data offset."""
    if os.pread(fd, len(_MAGIC), 0) != _MAGIC:
        raise StorageFormatError(f"{path}: not a block file (bad magic)")
    size = os.fstat(fd).st_size
    header, offset = read_header(fd, path, len(_MAGIC), size - len(_MAGIC) - 8)
    dtype = stored_dtype(header.get("dtype"), f"{path}: dtype")
    whole = stored_extent(header.get("whole_extent"), f"{path}: whole_extent")
    extent = stored_extent(header.get("extent"), f"{path}: extent", within=whole)
    if size < offset + extent.num_points * dtype.itemsize:
        raise StorageFormatError(f"{path}: truncated data section")
    return dtype, extent, offset


def write_timestep(
    comm, directory, step: int, time: float, image: ImageData, field: str
) -> int:
    """File-per-process write of one time step; returns local bytes written.

    Rank 0 additionally writes ``step_<n>.index.json``.  The per-rank piece
    name encodes the rank, matching the file-per-core layout whose write
    cost Fig. 10 charges per time step.
    """
    os.makedirs(directory, exist_ok=True)
    piece_name = f"step_{step:06d}.rank_{comm.rank:06d}.rvi"
    nbytes = write_block(os.path.join(directory, piece_name), image, field)
    entries = comm.gather((piece_name, _extent_to_list(image.extent)), root=0)
    if comm.rank == 0:
        arr = image.get_array(Association.POINT, field)
        index = {
            "whole_extent": _extent_to_list(image.whole_extent),
            "field": field,
            "dtype": str(arr.dtype),
            "spacing": list(image.spacing),
            "origin": list(image.origin),
            "time": time,
            "step": step,
            "pieces": entries,
        }
        with open(
            os.path.join(directory, f"step_{step:06d}.index.json"), "w"
        ) as fh:
            json.dump(index, fh)
    return nbytes


def read_index(directory, step: int) -> VTKIndex:
    """Read and validate the index of ``step``: every piece is a plain file
    name beside the index with an extent inside the whole extent."""
    path = os.path.join(directory, f"step_{step:06d}.index.json")
    with open(path, "rb") as fh:
        raw = stored_object(fh.read(), path)
    whole = stored_extent(raw.get("whole_extent"), f"{path}: whole_extent")
    stored_dtype(raw.get("dtype"), f"{path}: dtype")
    field, t, n, pieces = (raw.get(k) for k in ("field", "time", "step", "pieces"))
    if (
        not isinstance(field, str)
        or type(t) not in (int, float)
        or type(n) is not int
        or not isinstance(pieces, list)
        or not all(isinstance(p, list) and len(p) == 2 for p in pieces)
    ):
        raise StorageFormatError(f"{path}: malformed field, time, step or pieces")
    return VTKIndex(
        whole_extent=whole,
        field=field,
        dtype=raw["dtype"],
        spacing=stored_point(raw.get("spacing"), f"{path}: spacing", above=0.0),
        origin=stored_point(raw.get("origin"), f"{path}: origin"),
        time=t,
        step=n,
        pieces=[
            VTKPiece(stored_name(f, f"{path}: piece"), stored_extent(e, f"{path}: piece", whole))
            for f, e in pieces
        ],
    )


def read_subextent(directory, step: int, want: Extent | None = None) -> np.ndarray:
    """Read just the pieces overlapping ``want`` (default: the whole
    extent) and assemble that region.

    This is the post hoc reader path: a reader rank owns a sub-extent of
    the global grid (typically much larger than any single writer's piece,
    since readers are ~10% of writers) and touches only the piece files
    that intersect it.  A piece header must agree with its index entry.
    """
    index = read_index(directory, step)
    want = index.whole_extent if want is None else want
    out = np.zeros(want.shape, dtype=np.dtype(index.dtype))
    for piece in index.pieces:
        if piece.extent.intersect(want) is None:
            continue
        path = os.path.join(directory, piece.filename)
        fd = os.open(path, os.O_RDONLY)
        try:
            dtype, extent, offset = _piece_header(fd, path)
            if extent != piece.extent:
                raise StorageFormatError(f"{path}: extent {extent} is not the index's")
            read_block_into(fd, path, offset, dtype, extent, out, want)
        finally:
            os.close(fd)
    return out


def reader_extent(whole: Extent, nreaders: int, reader: int) -> Extent:
    """Sub-extent assignment for post hoc readers (split along i)."""
    ni = whole.i1 - whole.i0 + 1
    lo, hi = block_decompose_1d(ni, nreaders, reader)
    return Extent(whole.i0 + lo, whole.i0 + hi - 1, whole.j0, whole.j1, whole.k0, whole.k1)
