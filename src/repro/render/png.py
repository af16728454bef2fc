"""PNG encode/decode on stdlib ``zlib``.

The paper traces PHASTA's surprising per-step in situ cost to "the ZLIB
compression time in generating the PNG file ... a serial process only
computed on rank 0" (Sec. 4.2.1, Table 2 discussion: 4.03 s -> 0.518 s per
step when skipping compression).  A real encoder keeps that effect
measurable here: :func:`encode_png` is that serial encoder, and
``compression_level=0`` reproduces the "skip compression" ablation.

:func:`sort_last_png` is the one parallel encoder.  Binary swap leaves
every rank holding a finished row band of the frame, and the PNG uses
filter type 0 only, so rows do not depend on each other: each rank
deflates its own rows and the root gathers compressed bytes, not pixels.
The frame is cut into *leaves* -- row bands of about :data:`_LEAF_BYTES`
raw bytes or more, nested the way binary swap halves a frame --
and each leaf is one raw-deflate member, primed (``zdict``) with the
32 KiB of scanlines above it and ended with ``Z_SYNC_FLUSH``; the last
leaf finishes the stream.  Back-references across leaf boundaries
therefore resolve exactly as in a serial stream, any standard inflater
decodes the result, and the bytes depend only on the frame and the
level: every rank count, on either backend, writes the same file.  A
frame under two leaves is one leaf, encoded by :func:`encode_png` itself.

Supported: 8-bit grayscale (color type 0) and 8-bit RGB (color type 2),
which covers every image the infrastructures write.  The decoder implements
all five PNG row filters so it can read PNGs produced by other tools in
these formats.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.render.compositing import band_rows

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

#: Raw-deflate window size; how far back a leaf's compressor may reference.
_WINDOW = 32768

#: Raw bytes per sort-last leaf, about or more (a frame under twice this
#: is one leaf).  A 1920x1080 RGB frame is 5.9 MiB of scanlines: 8 leaves.
_LEAF_BYTES = 1 << 19

#: Point-to-point tags of :func:`sort_last_png` (binary swap uses 900-901).
_SHIP_TAG = 902
_WINDOW_TAG = 903


class PNGError(ValueError):
    """Malformed or unsupported PNG data."""


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def _png(width: int, height: int, color_type: int, idat: bytes) -> bytes:
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def _color_type(a: np.ndarray, compression_level: int) -> tuple[int, int]:
    """``(PNG color type, channels)`` of a uint8 ``(h, w)``/``(h, w, 3)``
    array; validates the array and the level."""
    if a.dtype != np.uint8:
        raise PNGError(f"image must be uint8, got {a.dtype}")
    if not 0 <= compression_level <= 9:
        raise PNGError("compression_level must be in 0..9")
    if a.ndim == 2:
        return 0, 1
    if a.ndim == 3 and a.shape[2] == 3:
        return 2, 3
    raise PNGError(f"unsupported image shape {a.shape}")


def _raw_scanlines(stride: int, *blocks: np.ndarray) -> np.ndarray:
    """``(rows, 1 + stride)`` uint8 scanline buffer of the row ``blocks``
    stacked in order: filter byte 0 (None) + row bytes.

    Built one vectorized block at a time rather than by a per-row Python
    loop; the bytes are identical either way.
    """
    buf = np.zeros((sum(len(b) for b in blocks), stride + 1), dtype=np.uint8)
    r = 0
    for b in blocks:
        buf[r : r + len(b), 1:] = b.reshape(len(b), stride)
        r += len(b)
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


def adler32_combine(adler1: int, adler2: int, len2: int) -> int:
    """Adler-32 of ``A + B`` from ``adler32(A)``, ``adler32(B)`` and
    ``len(B)`` (zlib's ``adler32_combine``, which Python's ``zlib`` lacks).

    With ``a = 1 + sum(bytes)`` and ``b = sum of the running a``s, both mod
    65521: ``a = a1 + a2 - 1`` and ``b = b1 + b2 + len2 * (a1 - 1)``.
    """
    base = 65521
    a1, b1 = adler1 & 0xFFFF, adler1 >> 16
    a2, b2 = adler2 & 0xFFFF, adler2 >> 16
    a = (a1 + a2 - 1) % base
    b = (b1 + b2 + len2 * (a1 - 1)) % base
    return (b << 16) | a


def leaf_depth(height: int, row_bytes: int) -> int:
    """How many times :func:`sort_last_png` halves a frame into leaves:
    each leaf holds about :data:`_LEAF_BYTES` raw bytes or more, and at
    least one row."""
    depth = (height * row_bytes // _LEAF_BYTES).bit_length() - 1
    return max(0, min(depth, height.bit_length() - 1))


def _deflate_leaf(raw, b0: int, b1: int, level: int, last: bool) -> bytes:
    """``raw[b0:b1]`` as one raw-deflate member primed with the 32 KiB
    before it: ended by ``Z_SYNC_FLUSH`` (byte-aligned, no final block), or
    by ``Z_FINISH`` for the ``last`` member of the stream."""
    zdict = raw[max(0, b0 - _WINDOW) : b0]
    co = zlib.compressobj(level, zlib.DEFLATED, -15, 9, zlib.Z_DEFAULT_STRATEGY, zdict)
    body = co.compress(raw[b0:b1])
    return body + co.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH)


def encode_png(image: np.ndarray, compression_level: int = 6) -> bytes:
    """Encode ``(h, w)`` grayscale or ``(h, w, 3)`` RGB uint8 to PNG bytes
    on the calling rank: the paper's serial encoder.

    ``compression_level`` maps straight to zlib (0 = store, 9 = max); the
    Table 2 ablation sweeps it.
    """
    a = np.asarray(image)
    color_type, channels = _color_type(a, compression_level)
    h, w = a.shape[:2]
    if h == 0 or w == 0:
        raise PNGError("image must be non-empty")
    raw = _raw_scanlines(w * channels, a).tobytes()
    return _png(w, h, color_type, zlib.compress(raw, compression_level))


def sort_last_png(
    comm, rows: np.ndarray | None, row0: int, height: int, compression_level: int = 6
) -> bytes | None:
    """PNG of a ``height``-row frame left spread over ``comm`` by binary
    swap (:func:`~repro.render.compositing.swap_band`); bytes on rank 0,
    ``None`` elsewhere.

    ``rows`` are this rank's finished frame rows starting at ``row0``
    (``None`` on a rank binary swap folded away).  The leaves under each
    rank's band are deflated by that rank; with more active ranks than
    leaves, the ranks sharing a leaf ship their rows to the one holding its
    first row.  Each leaf-owning rank receives the scanlines that prime its
    first leaf from the owner above (one message on a real frame), and
    rank 0 gathers one
    ``(first row, members, adler32, length)`` per owner, combines the
    checksums and writes IHDR/IDAT/IEND.  The bytes equal a serial encode
    of the same leaves at every rank count; a frame of one leaf is rank 0's
    :func:`encode_png`, after a gather of the rows.
    """
    if rows is None:
        # Every rank reaches the gather below; a folded rank brings nothing.
        comm.gather(None, root=0)
        return None
    a = np.asarray(rows)
    color_type, channels = _color_type(a, compression_level)
    width = a.shape[1]
    if height <= 0 or width == 0:
        raise PNGError("image must be non-empty")
    row_bytes = width * channels + 1
    rounds = comm.size.bit_length() - 1  # log2 of binary swap's active set
    depth = leaf_depth(height, row_bytes)
    if depth == 0:
        pieces = comm.gather((row0, a), root=0)
        if comm.rank != 0:
            return None
        frame = np.empty((height, *a.shape[1:]), dtype=np.uint8)
        for piece in pieces:
            if piece is not None:
                r0, band = piece
                frame[r0 : r0 + len(band)] = band
        return encode_png(frame, compression_level)

    owned = min(rounds, depth)  # leaf owners hold the bands of this depth
    owners = 1 << owned
    rank = comm.rank
    if rank >= owners:
        comm.send((row0, a), dest=rank % owners, tag=_SHIP_TAG)
        comm.gather(None, root=0)
        return None
    lo, hi = band_rows(height, rank, owned)
    region = a
    if rounds > owned:
        region = np.empty((hi - lo, *a.shape[1:]), dtype=np.uint8)
        region[row0 - lo : row0 - lo + len(a)] = a
        for src in range(rank + owners, 1 << rounds, owners):
            r0, band = comm.recv(source=src, tag=_SHIP_TAG)
            region[r0 - lo : r0 - lo + len(band)] = band

    # Each owner sends the owners below it the rows that prime their first
    # leaf: the window's worth of rows above their band, which for a real
    # frame (leaves far longer than the window) is one message to one
    # neighbour.
    window_rows = -(-_WINDOW // row_bytes)
    bands = [band_rows(height, p, owned) for p in range(owners)]
    for p, (b0, _) in enumerate(bands):
        if hi <= b0 < hi + window_rows:
            comm.send(region[max(0, b0 - window_rows - lo) :], dest=p, tag=_WINDOW_TAG)
    above = sorted(
        (b0, p) for p, (b0, b1) in enumerate(bands) if lo - window_rows < b1 <= lo
    )
    prime = np.concatenate(
        [region[:0]] + [comm.recv(source=p, tag=_WINDOW_TAG) for _, p in above]
    )

    raw = memoryview(_raw_scanlines(row_bytes - 1, prime, region)).cast("B")
    skip = len(prime) * row_bytes  # raw offset of row ``lo``
    leaves = sorted(
        band_rows(height, rank + (j << owned), depth)
        for j in range(1 << (depth - owned))
    )
    members = b"".join(
        _deflate_leaf(
            raw,
            skip + (l0 - lo) * row_bytes,
            skip + (l1 - lo) * row_bytes,
            compression_level,
            last=l1 == height,
        )
        for l0, l1 in leaves
    )
    own = raw[skip:]
    pieces = comm.gather((lo, members, zlib.adler32(own), len(own)), root=0)
    if rank != 0:
        return None
    adler, body = 1, []
    for _, part, part_adler, part_len in sorted(
        (p for p in pieces if p is not None), key=lambda p: p[0]
    ):
        adler = adler32_combine(adler, part_adler, part_len)
        body.append(part)
    idat = (
        _zlib_header(compression_level) + b"".join(body) + struct.pack(">I", adler)
    )
    return _png(width, height, color_type, idat)


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
