"""Thread-banded PNG deflate, kept as the byte-exact oracle for
:func:`repro.render.png.sort_last_png`.

This is the encoder ``encode_png(workers=N)`` ran before sort-last
replaced it, with the band bounds made explicit: each band one raw-deflate
member primed with the 32 KiB before it and ended with ``Z_SYNC_FLUSH``,
the last one finishing the stream, compressed on a thread pool.
``TestGoldenBytes`` pins its output to the CRCs recorded for that encoder,
so a sort-last PNG equal to :func:`encode_banded` over the same leaves is
equal to what the thread encoder wrote.
"""

from __future__ import annotations

import struct
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.render.compositing import band_rows
from repro.render.png import (
    _SIGNATURE,
    _WINDOW,
    _chunk,
    _zlib_header,
    encode_png,
    leaf_depth,
)


def deflate_bands(raw: bytes, bounds: list[tuple[int, int]], level: int, workers: int) -> bytes:
    """One zlib stream of ``raw`` cut at the byte ``bounds``."""
    last = len(bounds) - 1

    def compress(item: tuple[int, tuple[int, int]]) -> bytes:
        i, (b0, b1) = item
        zdict = raw[max(0, b0 - _WINDOW) : b0]
        co = zlib.compressobj(
            level, zlib.DEFLATED, -15, 9, zlib.Z_DEFAULT_STRATEGY, zdict
        )
        body = co.compress(raw[b0:b1])
        return body + co.flush(zlib.Z_FINISH if i == last else zlib.Z_SYNC_FLUSH)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(compress, enumerate(bounds)))
    adler = zlib.adler32(raw) & 0xFFFFFFFF
    return _zlib_header(level) + b"".join(parts) + struct.pack(">I", adler)


def encode_banded(image: np.ndarray, level: int, row_bounds, workers: int = 2) -> bytes:
    """PNG of ``image`` with its IDAT cut at the ``(first, end)`` rows."""
    a = np.asarray(image)
    h, w = a.shape[:2]
    channels = 1 if a.ndim == 2 else 3
    row_bytes = w * channels + 1
    buf = np.zeros((h, row_bytes), dtype=np.uint8)
    buf[:, 1:] = a.reshape(h, row_bytes - 1)
    bounds = [(r0 * row_bytes, r1 * row_bytes) for r0, r1 in row_bounds]
    idat = deflate_bands(buf.tobytes(), bounds, level, workers)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if channels == 1 else 2, 0, 0, 0)
    return _SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def chunk_bounds(h: int, workers: int, chunk_rows: int | None = None) -> list[tuple[int, int]]:
    """The thread encoder's default bands: ~4 per worker, or ``chunk_rows``."""
    if chunk_rows is None:
        chunk_rows = max(1, -(-h // (workers * 4)))
    starts = list(range(0, h, chunk_rows))
    return list(zip(starts, starts[1:] + [h]))


def leaf_bounds(image: np.ndarray) -> list[tuple[int, int]]:
    """Sort-last's leaves of ``image``, top to bottom."""
    a = np.asarray(image)
    h, w = a.shape[:2]
    depth = leaf_depth(h, w * (1 if a.ndim == 2 else 3) + 1)
    return sorted(band_rows(h, path, depth) for path in range(1 << depth))


def expected_png(image: np.ndarray, level: int) -> bytes:
    """What :func:`~repro.render.png.sort_last_png` must write for ``image``
    at any rank count: the serial encoder's bytes for a one-leaf frame,
    else the thread encoder's over the leaves."""
    leaves = leaf_bounds(image)
    if len(leaves) == 1:
        return encode_png(image, level)
    return encode_banded(image, level, leaves)
