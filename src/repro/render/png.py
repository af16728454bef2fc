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
raw bytes or more, nested the way binary swap halves a frame -- and each
leaf is deflated on its own (:func:`_deflate_leaf`).  A run of
scanlines equal to the one above, at least the 32 KiB window long, is one
hand-built *copy block* (:func:`_copy_blocks`: matches of 258 bytes, one
pixel back where the row is flat and one row back elsewhere, 2 and 13
bits each on a 1920-pixel row), because a frame stretched from a small
slice repeats most rows and zlib would hash every byte of every copy.
The rows between runs are raw-deflate members, primed (``zdict``) with
the 32 KiB of scanlines above them -- after a copy block, with one row
and one 258-byte match, which writes the same bytes -- and ended with
``Z_SYNC_FLUSH``.  Every piece ends on a byte and the last one finishes
the stream.  Each leaf's Adler-32 hashes its members' bytes and composes
each run's from its one row, and rank 0 combines the leaves'.
Back-references across leaf boundaries therefore resolve exactly as in a
serial stream, any standard inflater decodes the result, and the bytes
depend only on the frame and the level: every rank count, on either
backend, writes the same file.  A frame under two leaves is one leaf,
encoded by :func:`encode_png` itself; level 0 and rows wider than the
window write no copy blocks.

Supported: 8-bit grayscale (color type 0) and 8-bit RGB (color type 2),
which covers every image the infrastructures write.  The decoder implements
all five PNG row filters so it can read PNGs produced by other tools in
these formats.
"""

from __future__ import annotations

import functools
import struct
import zlib
from bisect import bisect_right

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


def adler32_combine(adler1: int, adler2: int, len2: int, count: int = 1) -> int:
    """Adler-32 of ``A + B * count`` from ``adler32(A)``, ``adler32(B)`` and
    ``len(B)`` (zlib's ``adler32_combine``, which Python's ``zlib`` lacks,
    in closed form over ``count`` copies of ``B``).

    With ``a = 1 + sum(bytes)`` and ``b = sum of the running a``s, both mod
    65521: each copy adds ``a2 - 1`` to ``a``, and to ``b`` its own ``b2``
    plus ``len2`` times the ``a - 1`` before it.
    """
    base = 65521
    a1, b1 = adler1 & 0xFFFF, adler1 >> 16
    a2, b2 = adler2 & 0xFFFF, adler2 >> 16
    a = (a1 + count * (a2 - 1)) % base
    before = count * (a1 - 1) + count * (count - 1) // 2 * (a2 - 1)
    b = (b1 + count * b2 + len2 * before) % base
    return (b << 16) | a


def leaf_depth(height: int, row_bytes: int) -> int:
    """How many times :func:`sort_last_png` halves a frame into leaves:
    each leaf holds about :data:`_LEAF_BYTES` raw bytes or more, and at
    least one row."""
    depth = (height * row_bytes // _LEAF_BYTES).bit_length() - 1
    return max(0, min(depth, height.bit_length() - 1))


def _member(raw, b0: int, b1: int, level: int, last: bool, prime: int) -> bytes:
    """``raw[b0:b1]`` as one raw-deflate member primed with the ``prime``
    bytes before it (the window, or less where :func:`_deflate_leaf` shows
    that writes the same bytes): ended by ``Z_SYNC_FLUSH`` (byte-aligned,
    no final block), or by ``Z_FINISH`` for the ``last`` member of the
    stream."""
    zdict = raw[max(0, b0 - prime) : b0]
    co = zlib.compressobj(level, zlib.DEFLATED, -15, 9, zlib.Z_DEFAULT_STRATEGY, zdict)
    body = co.compress(raw[b0:b1])
    return body + co.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH)


def _code_bases(extra: list[int], first: int) -> list[int]:
    """The first value of each of a run of codes with these extra bits."""
    bases = [first]
    for e in extra[:-1]:
        bases.append(bases[-1] + (1 << e))
    return bases


#: RFC 1951 length symbols 257..285 (extra bits, base length); 285 is 258
#: exactly, not 284's range continued.
_LEN_EXTRA = [0] * 8 + [e for e in range(1, 6) for _ in range(4)] + [0]
_LEN_BASE = _code_bases(_LEN_EXTRA, 3)[:-1] + [258]
#: Distance codes 0..29.
_DIST_EXTRA = [max(0, c // 2 - 1) for c in range(30)]
_DIST_BASE = _code_bases(_DIST_EXTRA, 1)

#: Order in which a dynamic block lists the code-length code's lengths.
_CLEN_ORDER = (16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15)


def _canonical(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """``{symbol: (code, bits)}`` of the canonical Huffman code with these
    code lengths, each code bit-reversed so it can be written LSB first."""
    codes, code, prev = {}, 0, 0
    for bits, sym in sorted((b, s) for s, b in lengths.items()):
        code <<= bits - prev
        prev = bits
        codes[sym] = (int(f"{code:0{bits}b}"[::-1], 2), bits)
        code += 1
    return codes


#: The copy block's code-length code: its code lengths are 0, 1 and 2,
#: runs of zeros are 17 (3-10) and 18 (11-138).
_CLEN_CODE = _canonical({0: 3, 1: 2, 2: 2, 17: 3, 18: 2})


@functools.lru_cache(maxsize=None)
def _copy_header(
    near: int, far: int, rsym: int, pad: int = 0
) -> tuple[int, int, dict[int, tuple[int, int]]]:
    """A copy block's header as ``(bits, nbits)`` with BFINAL clear, and
    its literal/length code: 285 (length 258) in 1 bit, end-of-block and
    ``rsym`` in 2.  The distance codes ``near < far`` take 1 bit each,
    ``near`` the code 0.  The first ``pad`` code lengths are written as
    single zeros (3 bits each) rather than inside a run, which moves where
    the block ends.  Keys are bounded: 4 x 30 x 28 x 8."""
    lit = _canonical({285: 1, 256: 2, rsym: 2})
    bits = nbits = 0

    def put(value: int, width: int) -> None:
        nonlocal bits, nbits
        bits |= value << nbits
        nbits += width

    # BFINAL, BTYPE=2, HLIT=286-257, HDIST=far, HCLEN=18-4.
    put(0, 1)
    put(2, 2)
    put(286 - 257, 5)
    put(far, 5)
    put(18 - 4, 4)
    for sym in _CLEN_ORDER[:18]:
        put(_CLEN_CODE[sym][1] if sym in _CLEN_CODE else 0, 3)
    # Literal/length then distance code lengths: the zeros between the
    # coded symbols as runs of 18 (11-138) and 17 (3-10), else single 0s.
    for _ in range(pad):
        put(*_CLEN_CODE[0])
    pos = pad
    nonzero = {sym: width for sym, (_, width) in lit.items()}
    nonzero[286 + near] = nonzero[286 + far] = 1
    for sym, width in sorted(nonzero.items()):
        zeros = sym - pos
        while zeros:
            if zeros >= 11:
                run = min(zeros, 138)
                put(*_CLEN_CODE[18])
                put(run - 11, 7)
            elif zeros >= 3:
                run = zeros
                put(*_CLEN_CODE[17])
                put(run - 3, 3)
            else:
                run = 1
                put(*_CLEN_CODE[0])
            zeros -= run
        put(*_CLEN_CODE[width])
        pos = sym + 1
    return bits, nbits, lit


def _copy_blocks(
    rows: np.ndarray, nbytes: list[int], pixel: int, final: bool
) -> list[bytes]:
    """One dynamic-Huffman deflate block per run ``j``: ``nbytes[j]``
    output bytes that repeat ``rows[j]``, the row just before them.  All
    rows are ``distance`` bytes; the last block is ``final`` if asked.

    Each 258 bytes is one match: ``pixel`` bytes back when every one of
    them equals the byte a pixel before it (a flat stretch: 2 bits), else
    one row back (2 bits plus the distance's extra bits: 13 one 1920-pixel
    RGB row back).  The remainder ``r`` is one more match one row back
    (3..257) or, for ``r`` of 1 or 2, the last 258 + ``r`` is two of
    129-130, so every match is at least 3.  A non-final block ends on a
    byte boundary, as a ``Z_SYNC_FLUSH`` ends a member, so the next piece
    starts on a byte: its header writes 0-7 leading zero code lengths one
    by one, which moves the end-of-block code by 3 bits each, in place of
    the 35-42 bits of an empty stored block.  A final block sets BFINAL
    and pads the stream to a byte.  A block's bytes depend on its own run
    only; the runs are one batch so that the per-chunk work is a few array
    operations per call, not per run.

    Each block starts on a byte boundary; needs ``nbytes[j] >= 258`` and
    ``1 <= pixel <= 4`` (a distance code without extra bits) ``< distance
    <= 32768``.
    """
    count, distance = rows.shape
    near = bisect_right(_DIST_BASE, pixel) - 1
    far = bisect_right(_DIST_BASE, distance) - 1
    extra, value = _DIST_EXTRA[far], distance - _DIST_BASE[far]
    chunks, tails = [], []
    for n in nbytes:
        q, r = divmod(n, 258)
        tail = [r] if r > 2 else []
        if r in (1, 2):
            q, tail = q - 1, [128 + r, 130]
        chunks.append(q)
        tails.append(tail)
    # Chunk ``k`` of run ``j`` starts at row offset ``o = 258 k % distance``
    # and is flat when its 258 bytes each equal the byte a pixel back: when
    # the next *break* (a byte that does not), in run ``j``'s row repeated
    # to cover ``o + 258``, is 258 or more bytes on.  The runs' repeated
    # rows are laid end to end, so one sorted search serves every chunk.
    # A sentinel break after the last row ends every search.
    span = distance * (2 + 258 // distance)
    breaks = np.empty(count * span + 1, dtype=bool)
    tiled = breaks[:-1].reshape(count, -1, distance)
    np.not_equal(rows[:, pixel:], rows[:, :-pixel], out=tiled[:, 0, pixel:])
    np.not_equal(rows[:, :pixel], rows[:, -pixel:], out=tiled[:, 0, :pixel])
    tiled[:, 1:] = tiled[:, :1]
    breaks[-1] = True
    breaks = np.flatnonzero(breaks)
    q = np.array(chunks, dtype=np.int64)
    run = np.repeat(np.arange(count), q)
    k = np.arange(q.sum()) - np.repeat(np.cumsum(q) - q, q)
    at = run * span + k * 258 % distance
    far_chunks = breaks[breaks.searchsorted(at)] - at < 258
    # A flat chunk is 2 zero bits (285, then ``near``); the others are a
    # zero bit (285), a one (``far``), then the extra bits: one pattern,
    # so a run's match bits are that pattern times an integer with a bit
    # at the start of each far chunk.  Each run's starts are laid out
    # from a byte boundary of one bit array.
    width = 2 + extra * far_chunks
    run_bits = np.bincount(run, weights=width, minlength=count).astype(np.int64)
    run_bytes = (run_bits + 7) // 8
    shift = 8 * (np.cumsum(run_bytes) - run_bytes) - (np.cumsum(run_bits) - run_bits)
    starts = np.zeros(8 * int(run_bytes.sum()), dtype=bool)
    starts[(np.cumsum(width) - width + shift[run])[far_chunks]] = True
    packed = np.packbits(starts, bitorder="little").tobytes()
    far_match = 2 | value << 2

    blocks = []
    byte0 = 0
    for j, tail in enumerate(tails):
        # The remainder's length symbol; 280, unused, when there is none.
        rsym = 256 + bisect_right(_LEN_BASE, tail[-1]) if tail else 280
        _, head, lit = _copy_header(near, far, rsym)
        fields = []  # ``(pattern, width)`` after the 258-byte matches
        for length in tail:
            lsym = bisect_right(_LEN_BASE, length) - 1
            code, bits = lit[257 + lsym]
            pattern = code | (length - _LEN_BASE[lsym]) << bits
            bits += _LEN_EXTRA[lsym]
            fields.append((pattern | (1 | value << 1) << bits, bits + 1 + extra))
        fields.append(lit[256])  # end-of-block
        last = final and j == count - 1
        body = int(run_bits[j]) + sum(bits for _, bits in fields)
        # 3 is its own inverse mod 8: ``pad`` single zeros byte-align the end.
        pad = 0 if last else -3 * (head + body) % 8
        out, nbits, _ = _copy_header(near, far, rsym, pad)
        out |= int(last)
        byte1 = byte0 + int(run_bytes[j])
        out |= int.from_bytes(packed[byte0:byte1], "little") * far_match << nbits
        nbits += int(run_bits[j])
        byte0 = byte1
        for pattern, bits in fields:
            out |= pattern << nbits
            nbits += bits
        blocks.append(out.to_bytes(-(-nbits // 8), "little"))
    return blocks


def _repeat_runs(raw, b0: int, b1: int, row_bytes: int) -> list[tuple[int, int]]:
    """``(start, end)`` raw offsets of each maximal run of scanlines in
    ``raw[b0:b1]`` that equal the scanline above them and span at least
    :data:`_WINDOW` bytes.  The row above ``b0`` is in ``raw`` unless
    ``b0`` is the frame's first row; one row's bytes at a time are held."""
    runs: list[tuple[int, int]] = []
    prev = raw[b0 - row_bytes : b0].tobytes() if b0 else None
    start = None
    for r in range(b0, b1 + 1, row_bytes):
        row = raw[r : r + row_bytes].tobytes() if r < b1 else None
        if row is not None and row == prev:
            start = r if start is None else start
        else:
            if start is not None and r - start >= _WINDOW:
                runs.append((start, r))
            start = None
        prev = row
    return runs


def _deflate_leaf(
    raw, b0: int, b1: int, row_bytes: int, pixel: int, level: int, last: bool
) -> tuple[bytes, int]:
    """``raw[b0:b1]`` (whole scanlines of ``row_bytes``, ``pixel`` bytes a
    pixel) as byte-aligned deflate pieces that end the stream if ``last``,
    and their Adler-32: the repeated-row runs of :func:`_repeat_runs` one
    copy block each (one :func:`_copy_blocks` batch per leaf, which bounds
    its arrays), the rows around them one :func:`_member` each.  A leaf
    with no such run is one member.

    A member right after a copy block is primed with only the last row
    and one longest match (258 bytes) before it.  The 32 KiB before it is
    one row repeated, so any match further back recurs one row nearer,
    ending before the member, at the same length; zlib walks candidates
    nearest first and keeps a farther one only if it is longer, so the
    bytes are those of a 32 KiB prime.  Members hash their own bytes into
    the checksum; a run's is composed from its one row.
    """
    runs = []
    if level and row_bytes <= _WINDOW:
        runs = _repeat_runs(raw, b0, b1, row_bytes)
    blocks = []
    if runs:
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, row_bytes)
        blocks = _copy_blocks(
            rows[[start // row_bytes - 1 for start, _ in runs]],
            [end - start for start, end in runs],
            pixel,
            last and runs[-1][1] == b1,
        )
    pieces, pos, adler, prime = [], b0, 1, _WINDOW
    for (start, end), block in zip(runs + [(b1, b1)], blocks + [b""]):
        if pos < start:
            pieces.append(_member(raw, pos, start, level, last and start == b1, prime))
            adler = zlib.adler32(raw[pos:start], adler)
        if block:
            pieces.append(block)
            row_adler = zlib.adler32(raw[start - row_bytes : start])
            adler = adler32_combine(adler, row_adler, row_bytes, (end - start) // row_bytes)
            prime = min(_WINDOW, row_bytes + 258)
        pos = end
    return b"".join(pieces), adler


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
    ``(first row, deflated leaves, adler32, length)`` per owner, combines
    the checksums and writes IHDR/IDAT/IEND.  The bytes are those of
    :func:`_deflate_leaf` over the same leaves at every rank count; a frame
    of one leaf is rank 0's :func:`encode_png`, after a gather of the rows.
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
    deflated, adler = [], 1
    for l0, l1 in leaves:
        part, part_adler = _deflate_leaf(
            raw,
            skip + (l0 - lo) * row_bytes,
            skip + (l1 - lo) * row_bytes,
            row_bytes,
            channels,
            compression_level,
            last=l1 == height,
        )
        deflated.append(part)
        adler = adler32_combine(adler, part_adler, (l1 - l0) * row_bytes)
    own = (hi - lo) * row_bytes
    pieces = comm.gather((lo, b"".join(deflated), adler, own), root=0)
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
    """Decode PNG bytes to a ``(h, w)`` or ``(h, w, 3)`` uint8 array.

    The IDAT stream must inflate to exactly the IHDR's scanlines and end
    there; it is never inflated more than one byte past them, so a small
    stream cannot expand without bound.
    """
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
    # Inflate at most one byte past the scanlines, so a small IDAT cannot
    # expand without bound.
    size = height * (stride + 1)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(bytes(idat), size + 1)
    except zlib.error as exc:
        raise PNGError(f"corrupt IDAT stream: {exc}") from exc
    if len(raw) > size:
        raise PNGError(f"IDAT inflates past the {size} bytes of scanlines")
    if not inflater.eof:
        raise PNGError("truncated IDAT stream")
    if inflater.unused_data:
        raise PNGError("trailing bytes after the IDAT stream")
    if len(raw) != size:
        raise PNGError("decompressed size mismatch")
    filtered = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    out = _defilter(filtered, height, stride, channels)
    if channels == 1:
        return out.reshape(height, width)
    return out.reshape(height, width, 3)
