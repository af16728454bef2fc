"""Tests for the PNG codec and colormaps."""

import contextlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import Communicator, run_spmd
from repro.render import COOL_WARM, GRAY, VIRIDIS, Colormap, decode_png, encode_png
from repro.render import png as png_module
from repro.render.compositing import band_rows
from repro.render.png import (
    _SIGNATURE,
    _WINDOW,
    PNGError,
    _chunk,
    _copy_blocks,
    _deflate_leaf,
    adler32_combine,
    sort_last_png,
)

from tests._png_oracle import chunk_bounds, encode_banded, expected_png, leaf_bounds


def _reseal_crcs(blob: bytes) -> bytes:
    """Recompute every well-framed chunk's CRC; leave a ragged tail as is."""
    out, pos = bytearray(blob[:8]), 8
    while pos + 12 <= len(blob):
        (length,) = struct.unpack(">I", blob[pos : pos + 4])
        end = pos + 12 + length
        if end > len(blob):
            break
        out += _chunk(blob[pos + 4 : pos + 8], blob[pos + 8 : pos + 8 + length])
        pos = end
    return bytes(out + blob[pos:])


def _idat(blob: bytes) -> bytes:
    """The concatenated IDAT payloads of a PNG."""
    out, pos = b"", 8
    while pos < len(blob):
        (length,) = struct.unpack(">I", blob[pos : pos + 4])
        if blob[pos + 4 : pos + 8] == b"IDAT":
            out += blob[pos + 8 : pos + 8 + length]
        pos += 12 + length
    return out


def _gray_png(width: int, height: int, idat: bytes) -> bytes:
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    return (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


class TestColormap:
    def test_endpoints(self):
        rgb = GRAY.map(np.array([0.0, 1.0]))
        assert rgb[0].tolist() == [0, 0, 0]
        assert rgb[1].tolist() == [255, 255, 255]

    def test_midpoint_interpolated(self):
        rgb = GRAY.map(np.array([0.0, 0.5, 1.0]))
        assert 120 <= rgb[1][0] <= 135

    def test_explicit_range_clamps(self):
        rgb = GRAY.map(np.array([-10.0, 20.0]), vmin=0.0, vmax=1.0)
        assert rgb[0].tolist() == [0, 0, 0]
        assert rgb[1].tolist() == [255, 255, 255]

    def test_degenerate_range(self):
        rgb = VIRIDIS.map(np.full(3, 7.0))
        assert (rgb == rgb[0]).all()

    def test_nan_maps_to_black(self):
        rgb = VIRIDIS.map(np.array([0.0, np.nan, 1.0]))
        assert rgb[1].tolist() == [0, 0, 0]

    def test_shape_preserved(self):
        rgb = COOL_WARM.map(np.zeros((4, 5)))
        assert rgb.shape == (4, 5, 3)

    def test_monotone_perceptual_ordering(self):
        """VIRIDIS luminance increases monotonically with value."""
        vals = np.linspace(0, 1, 64)
        rgb = VIRIDIS.map(vals).astype(float)
        lum = 0.2126 * rgb[:, 0] + 0.7152 * rgb[:, 1] + 0.0722 * rgb[:, 2]
        assert np.all(np.diff(lum) > -1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Colormap("bad", [(0.0, (0, 0, 0))])
        with pytest.raises(ValueError):
            Colormap("bad", [(0.1, (0, 0, 0)), (1.0, (255, 255, 255))])


class TestPNGCodec:
    def test_rgb_roundtrip(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (13, 17, 3), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(img)), img)

    def test_gray_roundtrip(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (9, 21), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(img)), img)

    def test_compression_levels_all_decode(self):
        img = np.zeros((32, 32, 3), dtype=np.uint8)
        img[8:24, 8:24] = 200
        sizes = {}
        for level in (0, 1, 6, 9):
            blob = encode_png(img, compression_level=level)
            assert np.array_equal(decode_png(blob), img)
            sizes[level] = len(blob)
        # Store (level 0) must be bigger than compressed for structured data.
        assert sizes[0] > sizes[6]

    def test_signature_enforced(self):
        with pytest.raises(PNGError):
            decode_png(b"GIF89a" + b"\x00" * 30)

    def test_crc_checked(self):
        blob = bytearray(encode_png(np.zeros((4, 4), dtype=np.uint8)))
        blob[20] ^= 0xFF  # corrupt inside IHDR payload
        with pytest.raises(PNGError):
            decode_png(bytes(blob))

    def test_truncated_crc_field_rejected(self):
        blob = encode_png(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(PNGError):
            decode_png(blob[:-2])  # IEND chunk with a 2-byte CRC field

    def test_short_ihdr_payload_rejected(self):
        with pytest.raises(PNGError):
            decode_png(_SIGNATURE + _chunk(b"IHDR", b"\x00" * 5))

    def test_corrupt_idat_stream_rejected(self):
        ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 0, 0, 0, 0)
        blob = (
            _SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", b"not a zlib stream")
            + _chunk(b"IEND", b"")
        )
        with pytest.raises(PNGError):
            decode_png(blob)

    def test_idat_inflating_past_the_scanlines_rejected(self):
        """A decompression bomb: 64 MiB of zeros behind a 4x4 header inflate
        no further than one byte past the 20 bytes of scanlines."""
        co = zlib.compressobj(9)
        chunk = bytes(1 << 20)
        idat = b"".join(co.compress(chunk) for _ in range(64)) + co.flush()
        assert len(idat) < 128 << 10
        tracemalloc.start()
        try:
            with pytest.raises(PNGError, match="inflates past"):
                decode_png(_gray_png(4, 4, idat))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # what the bomb holds is 64 MiB

    def test_truncated_idat_stream_rejected(self):
        """The scanlines are all there but the stream never ends."""
        co = zlib.compressobj(6)
        idat = co.compress(bytes(20)) + co.flush(zlib.Z_SYNC_FLUSH)
        assert zlib.decompressobj().decompress(idat) == bytes(20)
        with pytest.raises(PNGError, match="truncated"):
            decode_png(_gray_png(4, 4, idat))

    def test_bytes_after_the_idat_stream_rejected(self):
        idat = zlib.compress(bytes(20)) + b"\x00"
        with pytest.raises(PNGError, match="trailing"):
            decode_png(_gray_png(4, 4, idat))
        assert decode_png(_gray_png(4, 4, idat[:-1])).shape == (4, 4)

    def test_short_idat_stream_rejected(self):
        with pytest.raises(PNGError, match="size mismatch"):
            decode_png(_gray_png(4, 4, zlib.compress(bytes(19))))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_bytes_raise_pngerror_or_decode(self, data):
        """Outside bytes: a mutated or truncated PNG either raises
        ``PNGError`` or decodes to an image that round-trips -- never any
        other exception.  Chunk CRCs are optionally re-sealed so mutations
        reach the IHDR/IDAT parsers rather than all dying at the CRC."""
        rng = np.random.default_rng(data.draw(st.integers(0, 50)))
        shape = data.draw(st.sampled_from([(5, 7), (6, 4, 3)]))
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        blob = bytearray(encode_png(img, data.draw(st.sampled_from([0, 6]))))
        for _ in range(data.draw(st.integers(1, 4))):
            pos = data.draw(st.integers(0, len(blob) - 1))
            blob[pos] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            blob = _reseal_crcs(bytes(blob))
        blob = bytes(blob[: data.draw(st.integers(0, len(blob)))])
        try:
            out = decode_png(blob)
        except PNGError:
            return
        assert out.dtype == np.uint8 and out.ndim in (2, 3)
        assert np.array_equal(decode_png(encode_png(out)), out)

    def test_bad_inputs_rejected(self):
        with pytest.raises(PNGError):
            encode_png(np.zeros((4, 4), dtype=np.float64))
        with pytest.raises(PNGError):
            encode_png(np.zeros((4, 4, 2), dtype=np.uint8))
        with pytest.raises(PNGError):
            encode_png(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(PNGError):
            encode_png(np.zeros((4, 4), dtype=np.uint8), compression_level=11)

    def test_defilter_sub_up_average_paeth(self):
        """Hand-built PNGs using filters 1-4 decode correctly."""
        # 3x4 grayscale image rows; apply each filter manually.
        rows = np.array(
            [[10, 20, 30, 40], [15, 25, 35, 45], [100, 90, 80, 70]],
            dtype=np.uint8,
        )

        def encode_with_filters(ftypes):
            raw = bytearray()
            prev = np.zeros(4, dtype=np.int32)
            for r, ftype in enumerate(ftypes):
                line = rows[r].astype(np.int32)
                raw.append(ftype)
                if ftype == 0:
                    enc = line
                elif ftype == 1:  # Sub
                    enc = line.copy()
                    enc[1:] = (line[1:] - line[:-1]) & 0xFF
                elif ftype == 2:  # Up
                    enc = (line - prev) & 0xFF
                elif ftype == 3:  # Average
                    enc = line.copy()
                    for x in range(4):
                        left = line[x - 1] if x else 0
                        enc[x] = (line[x] - (left + prev[x]) // 2) & 0xFF
                else:  # Paeth
                    enc = line.copy()
                    for x in range(4):
                        a = line[x - 1] if x else 0
                        b = prev[x]
                        c = prev[x - 1] if x else 0
                        p = a + b - c
                        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                        pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                        enc[x] = (line[x] - pred) & 0xFF
                raw += bytes(enc.astype(np.uint8))
                prev = line
            ihdr = struct.pack(">IIBBBBB", 4, 3, 8, 0, 0, 0, 0)
            return (
                _SIGNATURE
                + _chunk(b"IHDR", ihdr)
                + _chunk(b"IDAT", zlib.compress(bytes(raw)))
                + _chunk(b"IEND", b"")
            )

        for ftypes in ([1, 1, 1], [2, 2, 2], [3, 3, 3], [4, 4, 4], [0, 1, 2]):
            out = decode_png(encode_with_filters(ftypes))
            assert np.array_equal(out, rows), f"filters {ftypes}"

    def test_compression_monotone_on_compressible_data(self):
        """Higher zlib levels never enlarge highly structured images much;
        level 0 is strictly largest -- the Table 2 ablation's premise."""
        img = np.tile(np.arange(256, dtype=np.uint8), (64, 4)).reshape(64, 1024)
        s0 = len(encode_png(img, 0))
        s9 = len(encode_png(img, 9))
        assert s9 < s0 / 2

    @settings(max_examples=15, deadline=None)
    @given(
        h=st.integers(1, 16),
        w=st.integers(1, 16),
        seed=st.integers(0, 1000),
        level=st.integers(0, 9),
    )
    def test_roundtrip_property(self, h, w, seed, level):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(img, level)), img)


@contextlib.contextmanager
def _leaf_bytes(n):
    """Shrink sort-last's leaves so small test images have several."""
    saved, png_module._LEAF_BYTES = png_module._LEAF_BYTES, n
    try:
        yield
    finally:
        png_module._LEAF_BYTES = saved


def _sort_last(img, level, nranks, backend="thread"):
    """Rank 0's :func:`sort_last_png` of ``img`` on ``nranks`` ranks, each
    holding the rows binary swap leaves it (a folded rank holds none)."""
    h = img.shape[0]

    def prog(comm):
        rounds = comm.size.bit_length() - 1
        if comm.rank >= 1 << rounds:
            return sort_last_png(comm, None, 0, h, level)
        lo, hi = band_rows(h, comm.rank, rounds)
        return sort_last_png(comm, img[lo:hi], lo, h, level)

    out = run_spmd(nranks, prog, backend=backend)
    assert all(blob is None for blob in out[1:])
    return out[0]


class TestParallelDeflate:
    """The sort-last encoder: every rank deflates its own rows, and the PNG
    decodes to the serial encoder's pixels with the bytes of the thread
    encoder over the same leaves (``tests/_png_oracle.py``)."""

    def _structured(self, h, w, channels=3):
        y, x = np.mgrid[0:h, 0:w]
        v = ((np.sin(x / 9.0) + np.cos(y / 7.0) + 2) * 60).astype(np.uint8)
        if channels == 1:
            return v
        return np.stack([v, 255 - v, v // 2], axis=-1)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("level", [0, 1, 6, 9])
    def test_rgb_decodes_identically_to_serial(self, workers, level):
        img = self._structured(64, 48)
        serial = decode_png(encode_png(img, level))
        with _leaf_bytes(1024):  # 8 leaves
            blob = _sort_last(img, level, workers)
            assert blob == expected_png(img, level)
        parallel = decode_png(blob)
        assert np.array_equal(parallel, serial)
        assert np.array_equal(parallel, img)

    def test_grayscale_roundtrip(self):
        img = self._structured(37, 61, channels=1)
        with _leaf_bytes(256):
            blob = _sort_last(img, 6, 3)
            assert blob == expected_png(img, 6)
        assert np.array_equal(decode_png(blob), img)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 7, 1000])
    def test_chunk_rows_sweep(self, chunk_rows):
        """Any leaf size works, from one row to more than the image (one
        leaf: the serial stream)."""
        img = self._structured(23, 31)
        with _leaf_bytes(chunk_rows * (31 * 3 + 1)):
            blob = _sort_last(img, 6, 4)
            assert blob == expected_png(img, 6)
        assert np.array_equal(decode_png(blob), img)
        if chunk_rows == 1000:
            assert blob == encode_png(img, 6)

    def test_cross_band_references_stay_valid(self):
        """Each leaf is one row of random bytes, incompressible on its own;
        the image only deflates well if matches reach the identical row in
        the *previous* leaf -- held by another rank -- through the primed
        window."""
        rng = np.random.default_rng(5)
        row = rng.integers(0, 256, 300, dtype=np.uint8)
        img = np.tile(row, (64, 1))
        with _leaf_bytes(301):
            blob = _sort_last(img, 6, 4)
        assert np.array_equal(decode_png(blob), img)
        # Without cross-leaf references this would be ~img.nbytes; with
        # them every leaf after the first is a back-reference.
        assert len(blob) < 0.15 * img.nbytes
        # At realistic leaf sizes the cut costs little.
        with _leaf_bytes(16 * 301):
            big = _sort_last(img, 9, 4)
        assert np.array_equal(decode_png(big), img)
        assert len(big) < 1.10 * len(encode_png(img, 9))

    def test_default_banding_costs_under_two_percent_on_a_noisy_frame(self):
        """At the default leaves (8 on a 1920x1080 frame), on a frame whose
        rows do not repeat, cutting + priming is marginal in output size."""
        rng = np.random.default_rng(0)
        y, x = np.mgrid[0:1080, 0:1920]
        field = np.sin(x / 40.0) * np.cos(y / 25.0)
        frame = VIRIDIS.map(field + 0.1 * rng.standard_normal(field.shape))
        assert len(leaf_bounds(frame)) == 8
        serial = encode_png(frame, 6)
        banded = _sort_last(frame, 6, 4)
        assert banded == expected_png(frame, 6)
        assert np.array_equal(decode_png(banded), decode_png(serial))
        assert len(banded) < 1.02 * len(serial)

    def test_single_row_image(self):
        """Four ranks, three of them with no rows."""
        img = self._structured(1, 17)
        with _leaf_bytes(1):
            blob = _sort_last(img, 6, 4)
        assert blob == encode_png(img, 6)

    def test_one_leaf_frame_is_the_serial_encoder(self):
        """Under two leaves of scanlines, every rank count writes
        :func:`encode_png`'s bytes (what the golden artifacts pin)."""
        img = self._structured(90, 160)
        assert len(leaf_bounds(img)) == 1
        for nranks in (1, 2, 3, 4):
            assert _sort_last(img, 6, nranks) == encode_png(img, 6)

    def test_bad_input_rejected(self):
        comm = Communicator.single_rank()
        rows = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(PNGError):
            sort_last_png(comm, rows, 0, 4, compression_level=10)
        with pytest.raises(PNGError):
            sort_last_png(comm, rows.astype(np.int16), 0, 4)
        with pytest.raises(PNGError):
            sort_last_png(comm, rows[:, :0], 0, 4)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("nranks", [5, 16])
    def test_more_ranks_than_leaves_ship_rows_to_the_leaf(self, nranks, backend):
        """16 ranks, 4 leaves: each leaf's four bands go to the rank that
        holds its first row.  5 ranks: one rank is folded away."""
        img = self._structured(64, 48)
        with _leaf_bytes(2048):
            assert len(leaf_bounds(img)) == 4
            blob = _sort_last(img, 6, nranks, backend)
            assert blob == expected_png(img, 6)

    @staticmethod
    def _runs_of(repeats, width=200, rows=12, seed=3):
        """``rows`` random RGB rows, each followed by ``repeats`` copies."""
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, 256, (rows, width, 3), dtype=np.uint8)
        return np.repeat(distinct, repeats + 1, axis=0)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_repeated_rows_over_the_window_are_copy_blocks(self, backend):
        """601-byte rows repeated 59 times (35 459 bytes, over the window):
        each run is one copy block, at every rank count, in a file that
        decodes to the image; level 0 stays stored (the skip-compression
        ablation)."""
        img = self._runs_of(59)
        with _leaf_bytes(img.shape[0] * 601 // 4):
            assert len(leaf_bounds(img)) == 4
            blobs = {_sort_last(img, 6, n, backend) for n in (1, 2, 3, 4)}
            assert _sort_last(img, 0, 2, backend) == expected_png(img, 0)
            banded = expected_png(img, 6)
        (blob,) = blobs
        assert blob != banded
        scanline = np.concatenate(([0], img[0].ravel())).astype(np.uint8)
        assert _copy_blocks(scanline[None], [59 * 601], 3, False)[0] in blob
        assert np.array_equal(decode_png(blob), img)
        assert len(blob) <= 1.02 * len(banded)

    def test_runs_under_the_window_keep_the_zlib_bytes(self):
        """54 repeats of a 601-byte row are 32 454 bytes, one row short of
        the window: the file is the thread-banded encoder's, byte for byte;
        55 repeats make a copy block."""
        assert 54 * 601 < _WINDOW <= 55 * 601
        short, long = self._runs_of(54), self._runs_of(55)
        with _leaf_bytes(short.shape[0] * 601 // 4):
            assert _sort_last(short, 6, 2) == expected_png(short, 6)
            assert _sort_last(long, 6, 2) != expected_png(long, 6)

    def test_rows_wider_than_the_window_stay_on_zlib(self):
        img = self._runs_of(7, width=11_000, rows=3)
        assert img.shape[1] * 3 + 1 > _WINDOW
        with _leaf_bytes(2 * img.shape[1] * 3):
            blob = _sort_last(img, 6, 2)
            assert blob == expected_png(img, 6)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_planted_runs_property(self, data):
        """Random rows with planted repeats shorter and longer than the
        window, at random leaf sizes: the file decodes to the image, its
        IDAT inflates to the raw scanlines, and 1-5 thread ranks and 2-5
        process ranks write the same bytes."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        channels = data.draw(st.sampled_from([1, 3]), label="channels")
        width = data.draw(st.integers(8, 48), label="width")
        row_bytes = width * channels + 1
        window_rows = -(-_WINDOW // row_bytes)
        repeats = data.draw(
            st.lists(
                st.one_of(
                    st.integers(0, window_rows - 1),
                    st.integers(window_rows, 2 * window_rows),
                ),
                min_size=2,
                max_size=6,
            ),
            label="repeats",
        )
        shape = (len(repeats), width) + ((3,) if channels == 3 else ())
        distinct = rng.integers(0, 256, shape, dtype=np.uint8)
        img = np.repeat(distinct, [n + 1 for n in repeats], axis=0)
        raw = np.zeros((len(img), row_bytes), dtype=np.uint8)
        raw[:, 1:] = img.reshape(len(img), -1)
        level = data.draw(st.integers(0, 9), label="level")
        leaves = data.draw(st.integers(2, 8), label="leaves")
        nprocess = data.draw(st.integers(2, 5), label="process ranks")
        with _leaf_bytes(max(1, raw.nbytes // leaves)):
            blobs = {_sort_last(img, level, n) for n in range(1, 6)}
            blobs.add(_sort_last(img, level, nprocess, "process"))
        assert len(blobs) == 1
        blob = blobs.pop()
        assert np.array_equal(decode_png(blob), img)
        assert zlib.decompress(_idat(blob)) == raw.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(
        h=st.integers(1, 24),
        w=st.integers(1, 16),
        seed=st.integers(0, 1000),
        level=st.integers(0, 9),
        workers=st.integers(1, 4),
    )
    def test_parallel_roundtrip_property(self, h, w, seed, level, workers):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        with _leaf_bytes(3 * w + 1):  # one-row leaves
            blob = _sort_last(img, level, workers)
            assert blob == expected_png(img, level)
        assert np.array_equal(decode_png(blob), img)


class TestCopyBlock:
    """The hand-built deflate blocks for runs of repeated rows, each
    inflated on its own after the row it repeats."""

    @staticmethod
    def _rows(distance, pixel):
        """A noisy row, a row of one repeated pixel, and a row of 100-pixel
        stretches: no, all and some 258-byte chunks copy a pixel back."""
        rng = np.random.default_rng(distance)
        noise = rng.integers(0, 256, distance, dtype=np.uint8)
        one = np.tile(rng.integers(0, 256, pixel, dtype=np.uint8), distance)
        stretches = np.repeat(rng.integers(0, 256, (distance // 100 + 1, pixel)), 100, axis=0)
        return np.stack([noise, one[:distance], stretches.ravel()[:distance]]).astype(np.uint8)

    @pytest.mark.parametrize("final", [False, True])
    @pytest.mark.parametrize(
        "distance,pixel", [(4, 3), (258, 1), (4096, 3), (4097, 3), (5761, 3), (32768, 1)]
    )
    @pytest.mark.parametrize("remainder", [0, 1, 2, 3, 257])
    def test_inflates_to_the_periodic_bytes(self, remainder, distance, pixel, final):
        nbytes = 258 * 130 + remainder  # over the 32 KiB window
        rows = self._rows(distance, pixel)
        blocks = _copy_blocks(rows, [nbytes] * 3, pixel, final)
        for j, (row, block) in enumerate(zip(rows, blocks)):
            last = final and j == 2
            # A block depends on its own run only, not on the batch.
            assert block == _copy_blocks(row[None], [nbytes], pixel, last)[0]
            history = row.tobytes()
            inflater = zlib.decompressobj(-15, zdict=history)
            out = inflater.decompress(block)
            assert out == (history * (nbytes // distance + 1))[:nbytes]
            assert inflater.eof == last
            assert inflater.unused_data == b""
            if not last:
                # It ends on a byte, so a final empty stored block can follow.
                assert inflater.decompress(b"\x01\x00\x00\xff\xff") == b""
                assert inflater.eof and inflater.unused_data == b""

    def test_match_costs_one_paper_row_back_and_one_pixel_back(self):
        """One 1920-pixel RGB row back (distance 5761: 11 extra bits) a
        258-byte match is 13 bits, and one pixel back it is 2; the header
        and ending are a few dozen bytes."""
        matches = 1000
        noise = self._rows(5761, 3)[0]
        grey = np.full_like(noise, 128)
        far, near = _copy_blocks(np.stack([noise, grey]), [258 * matches] * 2, 3, False)
        assert 0 < len(far) - matches * 13 / 8 < 32
        assert 0 < len(near) - matches * 2 / 8 < 32

    def test_continues_a_zlib_member(self):
        """Spliced after a ``Z_SYNC_FLUSH``-ended member, the block copies
        the member's last row; a member primed with the run then ends the
        stream."""
        rng = np.random.default_rng(2)
        row = rng.integers(0, 256, 700, dtype=np.uint8)
        tail = rng.integers(0, 256, 900, dtype=np.uint8).tobytes()
        raw = row.tobytes() * 60 + tail
        co = zlib.compressobj(6, zlib.DEFLATED, -15)
        head = co.compress(row.tobytes()) + co.flush(zlib.Z_SYNC_FLUSH)
        (run,) = _copy_blocks(row[None], [59 * len(row)], 1, False)
        co = zlib.compressobj(
            6, zlib.DEFLATED, -15, 9, zlib.Z_DEFAULT_STRATEGY, raw[-900 - _WINDOW : -900]
        )
        end = co.compress(tail) + co.flush()
        assert zlib.decompress(head + run + end, -15) == raw


class TestAdler32Combine:
    @settings(max_examples=50, deadline=None)
    @given(a=st.binary(max_size=300), b=st.binary(max_size=300))
    def test_equals_adler_of_concatenation(self, a, b):
        combined = adler32_combine(zlib.adler32(a), zlib.adler32(b), len(b))
        assert combined == zlib.adler32(a + b)

    def test_long_second_part(self):
        a, b = b"\xff" * 70_000, b"\xfe" * 200_000
        combined = adler32_combine(zlib.adler32(a), zlib.adler32(b), len(b))
        assert combined == zlib.adler32(a + b)

    @pytest.mark.parametrize("row_bytes", [2, 181, 5761, 70_000])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 17, 1080])
    def test_repeated_part_in_closed_form(self, count, row_bytes):
        """``A + B * count`` for rows short and long, and past the modulus
        65 521, against zlib hashing every copy."""
        rng = np.random.default_rng(row_bytes)
        a, b = rng.bytes(5), rng.bytes(row_bytes)
        expected = zlib.adler32(a)
        for _ in range(count):
            expected = zlib.adler32(b, expected)
        combined = adler32_combine(zlib.adler32(a), zlib.adler32(b), row_bytes, count)
        assert combined == expected

    @pytest.mark.parametrize("row_bytes", [2, 181, 5761])
    @pytest.mark.parametrize("count", [1, 2, 3, 17, 1080])
    def test_leaf_checksum_is_zlibs(self, count, row_bytes):
        """A row, another repeated ``count`` times (a copy block once it
        spans the window), and a last row: the leaf's composed Adler-32 is
        zlib's over its raw bytes, and the leaf inflates to them."""
        rng = np.random.default_rng(count)
        rows = rng.integers(0, 256, (3, row_bytes), dtype=np.uint8)
        rows[:, 0] = 0
        raw = np.repeat(rows, [1, count + 1, 1], axis=0).tobytes()
        leaf, adler = _deflate_leaf(memoryview(raw), 0, len(raw), row_bytes, 1, 6, True)
        assert adler == zlib.adler32(raw)
        assert zlib.decompress(leaf, -15) == raw

    def test_leaf_without_a_run(self):
        raw = np.random.default_rng(9).integers(0, 256, 40_000, dtype=np.uint8).tobytes()
        leaf, adler = _deflate_leaf(memoryview(raw), 4000, 36_000, 400, 1, 6, True)
        assert adler == zlib.adler32(raw[4000:36_000])
        assert zlib.decompress(leaf, -15) == raw[4000:36_000]


class TestGoldenBytes:
    """Encoder output is pinned byte-for-byte: the CRCs below were recorded
    at the commit that still carried the thread/process/auto codecs (all
    three agreed), so any change to banding, priming or the zlib framing
    shows up here rather than as silently different artifacts."""

    GOLDEN = {
        (0, 0): 0x9641DF81,
        (0, 2): 0xCCCA1DC2,
        (0, 4): 0xC44C38F1,
        (6, 0): 0xB15FF9D2,
        (6, 2): 0x51B7CD53,
        (6, 4): 0x55609C97,
    }

    @staticmethod
    def _frame():
        rng = np.random.default_rng(16)
        yy, xx = np.mgrid[0:120, 0:160]
        img = np.stack(
            [xx * 255 // 159, yy * 255 // 119, ((xx + yy) % 64) * 4], axis=-1
        ).astype(np.uint8)
        img[::3] ^= rng.integers(0, 32, (40, 160, 3), dtype=np.uint8)
        return img

    #: Sort-last's bytes of :meth:`_narrow_runs`, recorded before members
    #: after a copy block were primed with one row and one match.
    NARROW_RUNS_GOLDEN = {1: 0x965698A7, 6: 0x13AE4AE3, 9: 0xB19AC4DB}

    @staticmethod
    def _narrow_runs():
        """60 px RGB x 6000 rows (181-byte scanlines, two leaves): 60 rows,
        smooth and noisy in turn, each repeated 1-399 times, so a member
        after a copy block is primed with under 258 bytes plus one row."""
        rng = np.random.default_rng(47)
        x = np.arange(60)
        distinct = np.empty((60, 60, 3), dtype=np.uint8)
        for k in range(60):
            if k % 2:
                distinct[k] = rng.integers(0, 256, (60, 3))
            else:
                v = (np.sin(x / (k + 3.0)) + 1) * 127
                distinct[k] = np.stack([v, 255 - v, v // 2], axis=-1)
        img = np.repeat(distinct, rng.integers(1, 400, 60), axis=0)[:6000]
        assert len(img) == 6000 and len(leaf_bounds(img)) == 2
        return img

    @pytest.mark.parametrize("level", sorted(NARROW_RUNS_GOLDEN))
    def test_narrow_rows_with_runs_match_recorded_crc(self, level):
        img = self._narrow_runs()
        blobs = {_sort_last(img, level, n) for n in (1, 2, 3)}
        assert [zlib.crc32(blob) for blob in blobs] == [self.NARROW_RUNS_GOLDEN[level]]
        assert np.array_equal(decode_png(blobs.pop()), img)

    @pytest.mark.parametrize("level,workers", sorted(GOLDEN))
    def test_encoded_bytes_match_recorded_crc(self, level, workers):
        """``workers=0`` is :func:`encode_png`; ``workers > 0`` is the
        thread encoder, now the test oracle, at its default bands."""
        img = self._frame()
        if workers:
            blob = encode_banded(img, level, chunk_bounds(len(img), workers), workers)
        else:
            blob = encode_png(img, level)
        assert zlib.crc32(blob) == self.GOLDEN[(level, workers)]
        assert np.array_equal(decode_png(blob), img)
