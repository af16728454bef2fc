"""PNG encode/decode on stdlib ``zlib``.

The paper traces PHASTA's surprising per-step in situ cost to "the ZLIB
compression time in generating the PNG file ... a serial process only
computed on rank 0" (Sec. 4.2.1, Table 2 discussion: 4.03 s -> 0.518 s per
step when skipping compression).  A real encoder keeps that effect
measurable here: ``compression_level=0`` reproduces the "skip compression"
ablation, and the opt-in ``workers`` parameter makes the *parallel-encoder*
ablation a first-class measurable config: pigz-style row-band chunking,
each band raw-deflated in parallel, stitched into a single valid zlib
stream in one IDAT chunk.  Each band's compressor is primed (``zdict``)
with the 32 KiB of raw data preceding the band, so back-references across
band boundaries resolve exactly as they would in a serial stream and any
standard inflater decodes the result.

Bands compress on a :class:`ThreadPoolExecutor`: zlib releases the GIL
inside ``compress()``, the per-band Python bookkeeping (slicing, dict
priming, stitching) does not.  Band compression is deterministic, so the
stream depends only on (image, level, workers, chunk_rows); the serial
(``workers=0``) single-stream output is byte-different but decodes to the
identical pixels.

Supported: 8-bit grayscale (color type 0) and 8-bit RGB (color type 2),
which covers every image the infrastructures write.  The decoder implements
all five PNG row filters so it can read PNGs produced by other tools in
these formats.
"""

from __future__ import annotations

import struct
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

#: Raw-deflate window size; how far back a chunk's compressor may reference.
_WINDOW = 32768


class PNGError(ValueError):
    """Malformed or unsupported PNG data."""


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def _raw_scanlines(a: np.ndarray, h: int, stride: int) -> np.ndarray:
    """``(h, 1 + stride)`` uint8 scanline buffer: filter byte 0 + row bytes.

    Built in one vectorized shot rather than a per-row Python loop; the
    bytes are identical either way, so serial-encoder output is unchanged.
    """
    buf = np.zeros((h, stride + 1), dtype=np.uint8)
    buf[:, 1:] = a.reshape(h, stride)
    return buf


def _zlib_header(level: int) -> bytes:
    """A standard 2-byte zlib header (CMF/FLG) advertising ``level``.

    Inflaters ignore the FLEVEL hint; the check bits must make
    ``CMF*256 + FLG`` divisible by 31 (RFC 1950).
    """
    cmf = 0x78  # deflate, 32K window
    if level >= 7:
        flevel = 3
    elif level == 6:
        flevel = 2
    elif level >= 2:
        flevel = 1
    else:
        flevel = 0
    flg = flevel << 6
    flg += (31 - (cmf * 256 + flg) % 31) % 31
    return bytes((cmf, flg))


def _deflate_parallel(
    raw: bytes,
    row_bytes: int,
    level: int,
    workers: int,
    chunk_rows: int | None,
) -> bytes:
    """pigz-style chunked deflate of ``raw`` into one valid zlib stream.

    ``raw`` is split at scanline boundaries into row bands; each band is
    compressed as an independent *raw* deflate member and terminated with
    ``Z_SYNC_FLUSH`` (byte-aligned, no final block), except the last band
    which finishes the stream.  Because band ``i``'s compressor is primed
    with the 32 KiB of raw input immediately preceding it, its
    back-references point at bytes the inflater has already reconstructed
    -- so the concatenation, wrapped with a zlib header and the adler32 of
    the whole raw buffer, inflates to exactly ``raw``.
    """
    n_rows = len(raw) // row_bytes
    if chunk_rows is None:
        # ~4 bands per worker for load balance, pigz-style.
        chunk_rows = max(1, -(-n_rows // (workers * 4)))
    if chunk_rows <= 0:
        raise PNGError("chunk_rows must be positive")
    starts = [r * row_bytes for r in range(0, n_rows, chunk_rows)]
    bounds = list(zip(starts, starts[1:] + [len(raw)]))
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


def encode_png(
    image: np.ndarray,
    compression_level: int = 6,
    workers: int | None = None,
    chunk_rows: int | None = None,
) -> bytes:
    """Encode ``(h, w)`` grayscale or ``(h, w, 3)`` RGB uint8 to PNG bytes.

    ``compression_level`` maps straight to zlib (0 = store, 9 = max); the
    Table 2 ablation sweeps it.  ``workers=None``/``0`` is the paper's
    serial rank-0 encoder; ``workers >= 1`` opts into the thread-banded
    chunked deflate (``chunk_rows`` rows per band, default ~4 bands per
    worker).  Both paths decode to identical pixels.
    """
    a = np.asarray(image)
    if a.dtype != np.uint8:
        raise PNGError(f"image must be uint8, got {a.dtype}")
    if a.ndim == 2:
        color_type = 0
        channels = 1
    elif a.ndim == 3 and a.shape[2] == 3:
        color_type = 2
        channels = 3
    else:
        raise PNGError(f"unsupported image shape {a.shape}")
    if not 0 <= compression_level <= 9:
        raise PNGError("compression_level must be in 0..9")
    if workers is not None and workers < 0:
        raise PNGError("workers must be non-negative")
    h, w = a.shape[:2]
    if h == 0 or w == 0:
        raise PNGError("image must be non-empty")
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    # Raw scanlines, each prefixed with filter type 0 (None).
    raw = _raw_scanlines(a, h, w * channels).tobytes()
    if workers:
        idat = _deflate_parallel(
            raw, w * channels + 1, compression_level, workers, chunk_rows
        )
    else:
        idat = zlib.compress(raw, compression_level)
    return (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a.astype(np.int32) + b.astype(np.int32) - c.astype(np.int32)
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def _defilter(
    filtered: np.ndarray, h: int, stride: int, bpp: int
) -> np.ndarray:
    """Undo PNG row filters; ``filtered`` is (h, 1 + stride) uint8."""
    out = np.zeros((h, stride), dtype=np.uint8)
    for r in range(h):
        ftype = int(filtered[r, 0])
        line = filtered[r, 1:].astype(np.int32)
        prev = out[r - 1].astype(np.int32) if r > 0 else np.zeros(stride, np.int32)
        cur = np.zeros(stride, dtype=np.int32)
        if ftype == 0:  # None
            cur = line
        elif ftype == 2:  # Up
            cur = (line + prev) & 0xFF
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth need left neighbors
            for x in range(stride):
                left = cur[x - bpp] if x >= bpp else 0
                up = prev[x]
                ul = prev[x - bpp] if x >= bpp else 0
                if ftype == 1:
                    cur[x] = (line[x] + left) & 0xFF
                elif ftype == 3:
                    cur[x] = (line[x] + ((left + up) // 2)) & 0xFF
                else:
                    pa = abs(up - ul)
                    pb = abs(left - ul)
                    pc = abs(left + up - 2 * ul)
                    pred = left if pa <= pb and pa <= pc else (up if pb <= pc else ul)
                    cur[x] = (line[x] + pred) & 0xFF
        else:
            raise PNGError(f"unknown filter type {ftype}")
        out[r] = cur.astype(np.uint8)
    return out


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNG bytes to a ``(h, w)`` or ``(h, w, 3)`` uint8 array."""
    if data[:8] != _SIGNATURE:
        raise PNGError("not a PNG: bad signature")
    pos = 8
    width = height = None
    color_type = None
    idat = bytearray()
    while pos < len(data):
        if pos + 8 > len(data):
            raise PNGError("truncated chunk header")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        crc_field = data[pos + 8 + length : pos + 12 + length]
        if len(payload) != length or len(crc_field) != 4:
            raise PNGError("truncated chunk payload")
        if struct.unpack(">I", crc_field)[0] != (zlib.crc32(tag + payload) & 0xFFFFFFFF):
            raise PNGError(f"bad CRC in {tag!r} chunk")
        if tag == b"IHDR":
            if length != 13:
                raise PNGError(f"IHDR payload must be 13 bytes, got {length}")
            width, height, depth, color_type, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if depth != 8:
                raise PNGError(f"unsupported bit depth {depth}")
            if color_type not in (0, 2):
                raise PNGError(f"unsupported color type {color_type}")
            if comp != 0 or filt != 0:
                raise PNGError("unsupported compression/filter method")
            if interlace != 0:
                raise PNGError("interlaced PNGs not supported")
            if width == 0 or height == 0:
                raise PNGError("zero image dimension")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + length
    if width is None or color_type is None:
        raise PNGError("missing IHDR")
    channels = 1 if color_type == 0 else 3
    stride = width * channels
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise PNGError(f"corrupt IDAT stream: {exc}") from exc
    if len(raw) != height * (stride + 1):
        raise PNGError("decompressed size mismatch")
    filtered = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    out = _defilter(filtered, height, stride, channels)
    if channels == 1:
        return out.reshape(height, width)
    return out.reshape(height, width, 3)
