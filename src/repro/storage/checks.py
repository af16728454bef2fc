"""What the readers check before trusting a file they did not write, and
the length-checked read they all land their bytes with."""

from __future__ import annotations

import json
import math
import os

import numpy as np

from repro.util.decomp import Extent


class StorageFormatError(ValueError):
    """A stored file's header, index or body is malformed, truncated, or
    points outside its container."""


def stored_object(text, what: str) -> dict:
    """``text`` (bytes or str) parsed as a JSON object."""
    try:
        value = json.loads(text)
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise StorageFormatError(f"{what}: unreadable: {exc}") from exc
    if not isinstance(value, dict):
        raise StorageFormatError(f"{what} is not an object")
    return value


def read_header(fd: int, path, at: int, limit: int) -> tuple[dict, int]:
    """The JSON object whose 8-byte little-endian length is at ``at`` and
    must lie in ``(0, limit]``; returns it and the offset just past it."""
    hlen = int.from_bytes(os.pread(fd, 8, at), "little")
    if not 0 < hlen <= limit:
        raise StorageFormatError(f"{path}: header length {hlen} out of range")
    return stored_object(os.pread(fd, hlen, at + 8), f"{path}: header"), at + 8 + hlen


def stored_dims(value, what: str) -> tuple[int, int, int]:
    """``value`` as global point dimensions: three positive integers."""
    if (
        not isinstance(value, list)
        or len(value) != 3
        or not all(type(v) is int and v > 0 for v in value)
    ):
        raise StorageFormatError(f"{what} must be three positive integers: {value!r}")
    return (value[0], value[1], value[2])


def stored_point(value, what: str, above: float = -math.inf) -> tuple[float, float, float]:
    """``value`` as three finite numbers, each greater than ``above``."""
    if (
        not isinstance(value, list)
        or len(value) != 3
        or not all(type(v) in (int, float) and above < v < math.inf for v in value)
    ):
        raise StorageFormatError(f"{what} must be three finite numbers > {above}: {value!r}")
    return (float(value[0]), float(value[1]), float(value[2]))


def stored_dtype(name, what: str) -> np.dtype:
    """``name`` as a fixed-size numeric dtype (never object or void, which
    would have a read interpret file bytes as pointers or nothing)."""
    try:
        # np.dtype(None) is float64, so a missing name must not reach it.
        dtype = np.dtype(name) if isinstance(name, str) else None
    except TypeError:
        dtype = None
    if dtype is None or dtype.kind not in "biufc":
        raise StorageFormatError(f"{what} is not a numeric dtype: {name!r}")
    return dtype


def stored_extent(value, what: str, within: Extent | None = None) -> Extent:
    """``value`` as an extent: six non-negative integers with each
    ``lo <= hi + 1`` (one past is the empty block an over-decomposed writer
    records), lying inside ``within`` when it is given."""
    if (
        not isinstance(value, list)
        or len(value) != 6
        or not all(type(v) is int for v in value)
        or not all(0 <= value[2 * a] <= value[2 * a + 1] + 1 for a in range(3))
    ):
        raise StorageFormatError(f"{what} is not an extent: {value!r}")
    e = Extent(*value)
    if within is not None and not (
        within.i0 <= e.i0 and e.i1 <= within.i1
        and within.j0 <= e.j0 and e.j1 <= within.j1
        and within.k0 <= e.k0 and e.k1 <= within.k1
    ):
        raise StorageFormatError(f"{what} {value!r} is not inside {within}")
    return e


def stored_name(value, what: str) -> str:
    """``value`` as a plain file name: no directory part, so a path built
    from it stays beside the file that named it."""
    if (
        not isinstance(value, str)
        or value in ("", ".", "..")
        or os.path.basename(value) != value
        or "\0" in value
    ):
        raise StorageFormatError(f"{what} is not a plain file name: {value!r}")
    return value


def read_exact(fd: int, dest: np.ndarray, offset: int, path) -> None:
    """Fill C-contiguous ``dest`` with one ``preadv`` of its bytes at
    ``offset``.  A short read is an error, never uninitialised memory."""
    n = os.preadv(fd, [memoryview(dest.reshape(-1).view(np.uint8))], offset)
    if n != dest.nbytes:
        raise StorageFormatError(
            f"{path}: short read, {n} of {dest.nbytes} bytes at offset {offset}"
        )


def _box(e: Extent, origin: Extent) -> tuple[slice, slice, slice]:
    """``e`` as slices of an array whose first point is ``origin``'s."""
    return (
        slice(e.i0 - origin.i0, e.i1 - origin.i0 + 1),
        slice(e.j0 - origin.j0, e.j1 - origin.j0 + 1),
        slice(e.k0 - origin.k0, e.k1 - origin.k0 + 1),
    )


def read_block_into(
    fd: int, path, offset: int, dtype: np.dtype, extent: Extent,
    out: np.ndarray, selection: Extent,
) -> None:
    """Put the part of the stored C-order block ``extent`` (``dtype``, at
    ``offset`` in ``fd``) that overlaps ``selection`` into ``out``, the
    array of ``selection``.

    A block wholly inside the selection whose destination is C-contiguous
    and of its own dtype is read straight into ``out``; any other is read
    into one block buffer and its overlap copied (and cast) from there.
    """
    overlap = extent.intersect(selection)
    if overlap is None:
        return
    dst = out[_box(overlap, selection)]
    if overlap == extent and dst.flags.c_contiguous and dtype == out.dtype:
        read_exact(fd, dst, offset, path)
        return
    block = np.empty(extent.shape, dtype=dtype)
    read_exact(fd, block, offset, path)
    dst[...] = block[_box(overlap, extent)]
