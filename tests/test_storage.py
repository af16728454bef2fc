"""Tests for the storage substrate: VTK-style I/O, MPI-IO, and BP files."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DataArray, ImageData
from repro.mpi import run_spmd
from repro.storage import (
    BPReader,
    BPWriter,
    StorageFormatError,
    mpiio_read_block,
    mpiio_write_collective,
    read_index,
    read_subextent,
    write_timestep,
)
from repro.storage.mpiio import _header, _runs
from repro.storage.vtk_io import reader_extent
from repro.util import Extent
from repro.util.decomp import regular_decompose_3d
from tests import _mpiio_oracle as oracle


def _block_image(extent, whole, seed=0):
    img = ImageData(extent, whole_extent=whole)
    rng = np.random.default_rng(seed)
    data = rng.random(extent.shape)
    img.add_point_array(DataArray.from_numpy("data", data))
    return img, data


class TestBlockFiles:
    def _step(self, tmp_path, ext, whole):
        img, data = _block_image(ext, whole)
        n = run_spmd(1, lambda comm: write_timestep(comm, tmp_path, 0, 0.0, img, "data"))[0]
        [piece] = read_index(tmp_path, 0).pieces
        return tmp_path / piece.filename, n, data

    def test_write_read_roundtrip(self, tmp_path):
        ext = Extent(2, 5, 0, 3, 1, 4)
        whole = Extent(0, 9, 0, 9, 0, 9)
        p, n, data = self._step(tmp_path, ext, whole)
        assert p.stat().st_size == n
        assert read_index(tmp_path, 0).whole_extent == whole
        np.testing.assert_array_equal(read_subextent(tmp_path, 0, ext), data)

    def test_bad_magic_rejected(self, tmp_path):
        ext = Extent(0, 3, 0, 3, 0, 3)
        p, _, _ = self._step(tmp_path, ext, ext)
        p.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ValueError):
            read_subextent(tmp_path, 0)

    def test_truncated_rejected(self, tmp_path):
        ext = Extent(0, 3, 0, 3, 0, 3)
        p, _, _ = self._step(tmp_path, ext, ext)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(ValueError):
            read_subextent(tmp_path, 0)


class TestParallelTimestep:
    def _write(self, tmp_path, nranks, dims=(8, 6, 4)):
        def prog(comm):
            ext, _, _ = regular_decompose_3d(dims, comm.size, comm.rank)
            whole = Extent(0, dims[0] - 1, 0, dims[1] - 1, 0, dims[2] - 1)
            img, data = _block_image(ext, whole, seed=comm.rank)
            write_timestep(comm, tmp_path, step=3, time=0.3, image=img, field="data")
            return ext, data

        return run_spmd(nranks, prog), dims

    def test_index_lists_all_pieces(self, tmp_path):
        out, dims = self._write(tmp_path, 4)
        idx = read_index(tmp_path, 3)
        assert len(idx.pieces) == 4
        assert idx.whole_extent.shape == dims
        assert idx.step == 3 and idx.time == 0.3

    def test_global_reassembly(self, tmp_path):
        out, dims = self._write(tmp_path, 4)
        expected = np.zeros(dims)
        for ext, data in out:
            expected[
                ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1
            ] = data
        got = read_subextent(tmp_path, 3)
        np.testing.assert_array_equal(got, expected)

    def test_subextent_read_with_fewer_readers(self, tmp_path):
        """The 10%-cores post hoc pattern: write with 8, read with 2."""
        out, dims = self._write(tmp_path, 8)
        expected = np.zeros(dims)
        for ext, data in out:
            expected[
                ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1
            ] = data
        whole = Extent(0, dims[0] - 1, 0, dims[1] - 1, 0, dims[2] - 1)

        def reader(comm):
            want = reader_extent(whole, comm.size, comm.rank)
            return want, read_subextent(tmp_path, 3, want)

        pieces = run_spmd(2, reader)
        got = np.zeros(dims)
        for want, block in pieces:
            got[want.i0 : want.i1 + 1] = block
        np.testing.assert_array_equal(got, expected)

    def test_reader_extents_tile(self):
        whole = Extent(0, 10, 0, 4, 0, 4)
        exts = [reader_extent(whole, 3, r) for r in range(3)]
        assert exts[0].i0 == 0 and exts[-1].i1 == 10
        total = sum(e.num_points for e in exts)
        assert total == whole.num_points


class TestReadPaths:
    """Every writer layout against every reader split, both formats and
    both backends: the read-back equals the field.  On (6, 5, 4) points, 1
    and 2 writers give i-slabs, 4 i-planes and 8 strided blocks; 2 and 3
    readers cut through writer blocks, so direct and buffered reads mix."""

    DIMS = (6, 5, 4)
    FIELD = np.random.default_rng(5).random(DIMS)
    WHOLE = Extent(0, DIMS[0] - 1, 0, DIMS[1] - 1, 0, DIMS[2] - 1)

    @classmethod
    def _write(cls, directory, nwriters, backend):
        def prog(comm):
            ext, _, _ = regular_decompose_3d(cls.DIMS, comm.size, comm.rank)
            block = cls.FIELD[ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1]
            img = ImageData(ext, whole_extent=cls.WHOLE)
            img.add_point_array(DataArray.from_numpy("data", block))
            write_timestep(comm, directory, step=0, time=0.0, image=img, field="data")
            w = BPWriter(comm, os.path.join(directory, "f"), cls.DIMS)
            w.begin_step()
            w.write("data", block, ext)
            w.end_step()
            w.close()

        run_spmd(nwriters, prog, backend=backend)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("nwriters", [1, 2, 4, 8])
    def test_every_split_reads_the_field(self, tmp_path, nwriters, backend):
        self._write(str(tmp_path), nwriters, backend)
        np.testing.assert_array_equal(read_subextent(tmp_path, 0), self.FIELD)
        np.testing.assert_array_equal(BPReader(tmp_path / "f").read("data", 0), self.FIELD)

        def reader(comm):
            want = reader_extent(self.WHOLE, comm.size, comm.rank)
            return (
                want,
                read_subextent(tmp_path, 0, want),
                BPReader(tmp_path / "f").read("data", 0, selection=want),
            )

        for nreaders in (1, 2, 3):
            for want, vtk, bp in run_spmd(nreaders, reader, backend=backend):
                expected = self.FIELD[want.i0 : want.i1 + 1]
                np.testing.assert_array_equal(vtk, expected)
                np.testing.assert_array_equal(bp, expected)

    def test_slab_pieces_land_in_the_result(self, tmp_path, monkeypatch):
        """With i-slab writers and one reader, every piece is one
        ``preadv`` into the returned array itself (no staging buffer)."""
        self._write(str(tmp_path), 2, "thread")
        real, targets = os.preadv, []

        def spy(fd, bufs, off):
            targets.append(bufs[0].obj)
            return real(fd, bufs, off)

        monkeypatch.setattr(os, "preadv", spy)
        for read in (
            lambda: read_subextent(tmp_path, 0, self.WHOLE),
            lambda: BPReader(tmp_path / "f").read("data", 0),
        ):
            targets.clear()
            got = read()
            np.testing.assert_array_equal(got, self.FIELD)
            assert len(targets) == 2
            assert all(np.shares_memory(t, got) for t in targets)

    def test_mixed_dtypes_read_back_cast(self, tmp_path):
        """A BP index whose records disagree in dtype, and a VTK piece whose
        dtype differs from its index, read back cast to the first record's
        (the index's) dtype."""

        def prog(comm):
            ext, _, _ = regular_decompose_3d(self.DIMS, comm.size, comm.rank)
            block = self.FIELD[ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1]
            block = block.astype(np.float32 if comm.rank else np.float64)
            img = ImageData(ext, whole_extent=self.WHOLE)
            img.add_point_array(DataArray.from_numpy("data", block))
            write_timestep(comm, tmp_path, step=0, time=0.0, image=img, field="data")
            w = BPWriter(comm, tmp_path / "f", self.DIMS)
            w.begin_step()
            w.write("data", block, ext)
            w.end_step()
            w.close()
            return ext

        exts = run_spmd(2, prog)
        expected = self.FIELD.copy()
        e = exts[1]
        expected[e.i0 : e.i1 + 1] = expected[e.i0 : e.i1 + 1].astype(np.float32)
        for got in (read_subextent(tmp_path, 0), BPReader(tmp_path / "f").read("data", 0)):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("fmt", ["vtk", "bp"])
    def test_short_read_rejected(self, tmp_path, monkeypatch, fmt):
        """A piece that comes back short is an error naming the file and
        offset, never uninitialised memory, and the file is closed."""
        self._write(str(tmp_path), 2, "thread")
        real = os.preadv
        monkeypatch.setattr(
            os, "preadv", lambda fd, bufs, off: real(fd, [bufs[0][: len(bufs[0]) // 2]], off)
        )
        before = _open_fds()
        with pytest.raises(StorageFormatError, match="short read.* at offset"):
            if fmt == "vtk":
                read_subextent(tmp_path, 0, self.WHOLE)
            else:
                BPReader(tmp_path / "f").read("data", 0)
        assert _open_fds() == before


def _forge_header(raw: bytes, header: bytes, hlen: int | None = None) -> bytes:
    """A block file's bytes with its JSON header replaced."""
    old = int.from_bytes(raw[4:12], "little")
    n = len(header) if hlen is None else hlen
    return raw[:4] + n.to_bytes(8, "little") + header + raw[12 + old :]


def _piece_doc(**change):
    doc = {
        "extent": [0, 3, 0, 2, 0, 1],
        "whole_extent": [0, 7, 0, 2, 0, 1],
        "spacing": [1.0, 1.0, 1.0],
        "origin": [0.0, 0.0, 0.0],
        "field": "data",
        "dtype": "float64",
    }
    doc.update(change)
    return json.dumps(doc).encode()


class TestVTKHostile:
    """The VTK readers validate the index and every piece header before a
    number in them places a byte: a forgery is a typed error, never a read
    outside the step's directory or into the wrong place."""

    WHOLE = Extent(0, 7, 0, 2, 0, 1)

    @classmethod
    def _step(cls, tmp_path):
        """Step 0 of an (8, 3, 2) field from 2 writers, in ``tmp_path/d``."""
        directory = tmp_path / "d"

        def prog(comm):
            ext, _, _ = regular_decompose_3d((8, 3, 2), comm.size, comm.rank)
            img = ImageData(ext, whole_extent=cls.WHOLE)
            img.add_point_array(DataArray.from_numpy("data", np.full(ext.shape, comm.rank + 1.0)))
            write_timestep(comm, directory, step=0, time=0.0, image=img, field="data")

        run_spmd(2, prog)
        index = directory / "step_000000.index.json"
        return directory, index, json.loads(index.read_text())

    HEADERS = {
        "length-huge": (_piece_doc(), 2**62),
        "length-zero": (_piece_doc(), 0),
        "length-cuts-json": (_piece_doc(), 7),
        "not-utf8": (b"\xff\xfe not json", None),
        "not-an-object": (b"[0, 3, 0, 2, 0, 1]", None),
        "dtype-missing": (_piece_doc(dtype=None), None),
        "dtype-object": (_piece_doc(dtype="O"), None),
        "dtype-unknown": (_piece_doc(dtype="no-such-type"), None),
        "dtype-wider": (_piece_doc(dtype="complex128"), None),
        "extent-short": (_piece_doc(extent=[0, 3, 0, 2]), None),
        "extent-inverted": (_piece_doc(extent=[3, 0, 0, 2, 0, 1]), None),
        "extent-not-index": (_piece_doc(extent=[4, 7, 0, 2, 0, 1]), None),
        "extent-outside-whole": (_piece_doc(extent=[0, 3, 0, 2, 0, 9]), None),
        "extent-bigger": (_piece_doc(extent=[0, 7, 0, 2, 0, 1]), None),
        "whole-string": (_piece_doc(whole_extent="all"), None),
    }

    @pytest.mark.parametrize("forgery", sorted(HEADERS))
    def test_hostile_header_rejected(self, tmp_path, forgery):
        directory, _, doc = self._step(tmp_path)
        piece = directory / doc["pieces"][0][0]
        piece.write_bytes(_forge_header(piece.read_bytes(), *self.HEADERS[forgery]))
        with pytest.raises(StorageFormatError):
            read_subextent(directory, 0, self.WHOLE)

    @pytest.mark.parametrize("keep", [0, 3, 11, 40, -8])
    def test_truncated_piece_rejected(self, tmp_path, keep):
        directory, _, doc = self._step(tmp_path)
        piece = directory / doc["pieces"][1][0]
        piece.write_bytes(piece.read_bytes()[:keep])
        with pytest.raises(StorageFormatError):
            read_subextent(directory, 0, self.WHOLE)

    FORGERIES = {
        "name-is-a-path": lambda d: d["pieces"][1].__setitem__(0, "../evil.rvi"),
        "name-is-absolute": lambda d: d["pieces"][1].__setitem__(0, "/evil.rvi"),
        "name-is-dotdot": lambda d: d["pieces"][1].__setitem__(0, ".."),
        "name-empty": lambda d: d["pieces"][1].__setitem__(0, ""),
        "name-not-string": lambda d: d["pieces"][1].__setitem__(0, 7),
        "piece-not-pair": lambda d: d["pieces"].append("piece"),
        "pieces-not-list": lambda d: d.update(pieces={}),
        "extent-outside-whole": lambda d: d["pieces"][0].__setitem__(1, [0, 9, 0, 2, 0, 1]),
        "extent-short": lambda d: d["pieces"][0].__setitem__(1, [0, 3]),
        "extent-not-header": lambda d: d["pieces"][0].__setitem__(1, [0, 2, 0, 2, 0, 1]),
        "whole-short": lambda d: d.update(whole_extent=[0, 7, 0, 2]),
        "whole-bool": lambda d: d.update(whole_extent=[0, True, 0, 2, 0, 1]),
        "dtype-object": lambda d: d.update(dtype="O"),
        "dtype-missing": lambda d: d.pop("dtype"),
        "field-missing": lambda d: d.pop("field"),
        "spacing-zero": lambda d: d.update(spacing=[0, 1, 1]),
        "origin-string": lambda d: d.update(origin="here"),
        "step-string": lambda d: d.update(step="0"),
    }

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_hostile_index_rejected(self, tmp_path, forgery):
        directory, index, doc = self._step(tmp_path)
        # What "../evil.rvi" and "/evil.rvi" would reach: a valid piece.
        evil = tmp_path / "evil.rvi"
        evil.write_bytes((directory / doc["pieces"][1][0]).read_bytes())
        self.FORGERIES[forgery](doc)
        index.write_text(json.dumps(doc))
        with pytest.raises(StorageFormatError):
            read_subextent(directory, 0, self.WHOLE)

    @pytest.mark.parametrize("text", ["", "{", "[]", '"idx"', "\udcff"])
    def test_unreadable_index_rejected(self, tmp_path, text):
        directory, index, _ = self._step(tmp_path)
        index.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(StorageFormatError):
            read_index(directory, 0)


@st.composite
def _stored_sub_extents(draw):
    """A random stored field (dims, dtype) and a random sub-extent of it."""
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    lo = [draw(st.integers(0, n - 1)) for n in dims]
    hi = [draw(st.integers(a, n - 1)) for a, n in zip(lo, dims)]
    dtype = draw(st.sampled_from(["float64", "float32", ">f8", "int16", "complex64"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return dims, Extent(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]), dtype, seed


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestMPIIO:
    #: (6, 5, 4) points: 1-3 ranks split i only (one i-slab run per rank),
    #: 4 and 6 ranks split i and j (one run per i-plane), 8 ranks split k
    #: too (one run per (i, j) row: the strided case).
    DIMS = (6, 5, 4)
    RUN_SHAPE = {1: "slab", 2: "slab", 3: "slab", 4: "plane", 6: "plane", 8: "row"}

    @classmethod
    def _write(cls, write, path, nranks, backend=None):
        def prog(comm):
            ext, _, _ = regular_decompose_3d(cls.DIMS, comm.size, comm.rank)
            rng = np.random.default_rng(comm.rank + 100)
            block = rng.random(ext.shape)
            written = write(comm, path, block, ext, cls.DIMS)
            return ext, block, written

        return run_spmd(nranks, prog, backend=backend)

    @pytest.mark.parametrize("nranks", sorted(RUN_SHAPE))
    def test_collective_write_matches_blocks(self, tmp_path, nranks):
        """Every run shape, on both backends, gives the row-loop oracle's
        shared file byte for byte."""
        dims = self.DIMS
        reference = tmp_path / "oracle.dat"
        self._write(oracle.mpiio_write_collective, reference, nranks)
        for backend in ("thread", "process"):
            path = tmp_path / f"shared_{nranks}_{backend}.dat"
            out = self._write(mpiio_write_collective, path, nranks, backend)
            expected = np.zeros(dims)
            total_written = 0
            for ext, block, written in out:
                expected[
                    ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1
                ] = block
                total_written += written
            assert total_written == dims[0] * dims[1] * dims[2] * 8
            assert path.read_bytes() == reference.read_bytes(), backend
            whole = Extent(0, dims[0] - 1, 0, dims[1] - 1, 0, dims[2] - 1)
            got = mpiio_read_block(path, whole)
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("nranks", sorted(RUN_SHAPE))
    def test_runs_per_layout(self, nranks):
        """One run per i-slab, ``ni`` per plane layout, ``ni * nj`` when
        strided: the request count behind Table 1, held without timing.
        The runs tile the block in order, each at its first element's
        canonical file offset."""
        _, ny, nz = self.DIMS
        for rank in range(nranks):
            ext, _, _ = regular_decompose_3d(self.DIMS, nranks, rank)
            ni, nj, nk = ext.shape
            runs = list(_runs(ext, ny, nz, 8))
            expected = {"slab": 1, "plane": ni, "row": ni * nj}[self.RUN_SHAPE[nranks]]
            assert len(runs) == expected
            assert [lo for _, lo, _ in runs] == [0] + [hi for _, _, hi in runs[:-1]]
            assert runs[-1][2] == ext.num_points * 8
            for offset, lo, _ in runs:
                li, lj, lk = np.unravel_index(lo // 8, ext.shape)
                gi, gj, gk = ext.i0 + li, ext.j0 + lj, ext.k0 + lk
                assert offset == 512 + ((gi * ny + gj) * nz + gk) * 8

    @given(case=_stored_sub_extents())
    @settings(max_examples=80, deadline=None)
    def test_read_equals_oracle_and_slice(self, case):
        dims, ext, dtype, seed = case
        field = (np.random.default_rng(seed).random(dims) * 1000).astype(dtype)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "f.dat")
            with open(path, "wb") as fh:
                fh.write(_header(dims, field.dtype) + field.tobytes())
            got = mpiio_read_block(path, ext)
            np.testing.assert_array_equal(got, oracle.mpiio_read_block(path, ext))
        assert got.dtype == field.dtype
        np.testing.assert_array_equal(
            got, field[ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1]
        )

    @pytest.mark.parametrize("nranks", [1, 4, 8])
    def test_short_writes_resume(self, tmp_path, monkeypatch, nranks):
        """A ``pwrite`` that takes only half of every request still gives
        the oracle's file: the writer resumes each run where it stopped."""
        real = os.pwrite
        monkeypatch.setattr(
            os, "pwrite", lambda fd, buf, off: real(fd, buf[: (len(buf) + 1) // 2], off)
        )
        reference, path = tmp_path / "oracle.dat", tmp_path / "short.dat"
        self._write(oracle.mpiio_write_collective, reference, nranks)
        self._write(mpiio_write_collective, path, nranks)
        assert path.read_bytes() == reference.read_bytes()

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        """A run that comes back short is an error, never uninitialised
        memory in the returned block, and the file is closed."""
        path, whole, _ = self._shared_file(tmp_path)
        real = os.preadv
        monkeypatch.setattr(
            os, "preadv", lambda fd, bufs, off: real(fd, [bufs[0][: len(bufs[0]) // 2]], off)
        )
        before = _open_fds()
        with pytest.raises(StorageFormatError, match="short read"):
            mpiio_read_block(path, whole)
        assert _open_fds() == before

    def test_failed_data_phase_closes_its_fd(self, tmp_path, monkeypatch):
        """A write that raises mid-phase leaves no descriptor open."""

        def fail(fd, buf, off):
            raise OSError("device gone")

        monkeypatch.setattr(os, "pwrite", fail)
        whole = Extent(0, 3, 0, 2, 0, 1)
        block = np.ones((4, 3, 2))

        def prog(comm):
            before = _open_fds()
            with pytest.raises(OSError, match="device gone"):
                mpiio_write_collective(comm, tmp_path / "f.dat", block, whole, (4, 3, 2))
            return before, _open_fds()

        before, after = run_spmd(1, prog)[0]
        assert after == before

    def test_sub_block_read(self, tmp_path):
        dims = (4, 4, 4)
        path = tmp_path / "s.dat"

        def prog(comm):
            whole = Extent(0, 3, 0, 3, 0, 3)
            block = np.arange(64.0).reshape(4, 4, 4)
            mpiio_write_collective(comm, path, block, whole, dims)

        run_spmd(1, prog)
        sub = mpiio_read_block(path, Extent(1, 2, 1, 2, 1, 2))
        expected = np.arange(64.0).reshape(4, 4, 4)[1:3, 1:3, 1:3]
        np.testing.assert_array_equal(sub, expected)

    def test_out_of_range_read_rejected(self, tmp_path):
        path = tmp_path / "s.dat"

        def prog(comm):
            whole = Extent(0, 1, 0, 1, 0, 1)
            mpiio_write_collective(
                comm, path, np.zeros((2, 2, 2)), whole, (2, 2, 2)
            )

        run_spmd(1, prog)
        with pytest.raises(ValueError):
            mpiio_read_block(path, Extent(0, 5, 0, 1, 0, 1))

    def test_shape_mismatch_rejected(self, tmp_path):
        def prog(comm):
            with pytest.raises(ValueError):
                mpiio_write_collective(
                    comm,
                    tmp_path / "x.dat",
                    np.zeros((2, 2, 2)),
                    Extent(0, 3, 0, 1, 0, 1),
                    (4, 2, 2),
                )

        run_spmd(1, prog)

    @staticmethod
    def _shared_file(tmp_path):
        path = tmp_path / "h.dat"
        whole = Extent(0, 3, 0, 2, 0, 1)
        block = np.arange(24.0).reshape(4, 3, 2)
        run_spmd(1, lambda comm: mpiio_write_collective(comm, path, block, whole, (4, 3, 2)))
        return path, whole, block

    @staticmethod
    def _with_header(raw: bytes, meta: bytes, hlen: int | None = None) -> bytes:
        n = len(meta) if hlen is None else hlen
        return n.to_bytes(8, "little") + meta.ljust(504, b"\x00") + raw[512:]

    GOOD_META = b'{"dims": [4, 3, 2], "dtype": "float64"}'
    #: name -> (header JSON bytes, forged length field or None for the true one)
    HEADERS = {
        "length-huge": (GOOD_META, 2**62),
        "length-zero": (GOOD_META, 0),
        "length-cuts-json": (GOOD_META, 7),
        "not-utf8": (b"\xff\xfe not json", None),
        "not-an-object": (b"[4, 3, 2]", None),
        "dims-missing": (b'{"dtype": "float64"}', None),
        "dims-short": (b'{"dims": [4, 3], "dtype": "float64"}', None),
        "dims-negative": (b'{"dims": [4, -3, 2], "dtype": "float64"}', None),
        "dims-string": (b'{"dims": [4, "3", 2], "dtype": "float64"}', None),
        "dtype-missing": (b'{"dims": [4, 3, 2]}', None),
        "dtype-object": (b'{"dims": [4, 3, 2], "dtype": "O"}', None),
        "dtype-void": (b'{"dims": [4, 3, 2], "dtype": "V0"}', None),
        "dtype-unknown": (b'{"dims": [4, 3, 2], "dtype": "no-such-type"}', None),
        "dims-beyond-file": (b'{"dims": [4, 3, 200], "dtype": "float64"}', None),
    }

    @pytest.mark.parametrize("forgery", sorted(HEADERS))
    def test_hostile_header_rejected(self, tmp_path, forgery):
        meta, hlen = self.HEADERS[forgery]
        path, whole, _ = self._shared_file(tmp_path)
        path.write_bytes(self._with_header(path.read_bytes(), meta, hlen))
        with pytest.raises(StorageFormatError):
            mpiio_read_block(path, whole)

    @pytest.mark.parametrize("keep", [0, 4, 511, 512, -8])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path, whole, _ = self._shared_file(tmp_path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(StorageFormatError):
            mpiio_read_block(path, whole)


class TestBP:
    def test_multistep_multivar_roundtrip(self, tmp_path):
        dims = (6, 4, 4)
        path = tmp_path / "out"

        def prog(comm):
            ext, _, _ = regular_decompose_3d(dims, comm.size, comm.rank)
            writer = BPWriter(comm, path, dims)
            blocks = {}
            for step in range(3):
                writer.begin_step()
                rng = np.random.default_rng(comm.rank * 10 + step)
                a = rng.random(ext.shape)
                b = rng.random(ext.shape)
                writer.write("u", a, ext)
                writer.write("v", b, ext)
                writer.end_step()
                blocks[step] = (ext, a, b)
            writer.close()
            return blocks

        out = run_spmd(4, prog)
        reader = BPReader(path)
        assert reader.num_steps == 3
        for step in range(3):
            for vi, var in enumerate(("u", "v")):
                expected = np.zeros(dims)
                for blocks in out:
                    ext, a, b = blocks[step]
                    expected[
                        ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1
                    ] = (a, b)[vi]
                got = reader.read(var, step)
                np.testing.assert_array_equal(got, expected)

    def test_selection_read(self, tmp_path):
        dims = (8, 4, 4)
        path = tmp_path / "sel"

        def prog(comm):
            ext, _, _ = regular_decompose_3d(dims, comm.size, comm.rank)
            w = BPWriter(comm, path, dims)
            w.begin_step()
            block = np.full(ext.shape, float(comm.rank))
            w.write("data", block, ext)
            w.end_step()
            w.close()
            return ext

        exts = run_spmd(2, prog)
        reader = BPReader(path)
        sel = Extent(0, 3, 0, 3, 0, 3)
        got = reader.read("data", 0, selection=sel)
        assert got.shape == (4, 4, 4)
        # That selection is entirely inside rank 0's half (i in [0,3]).
        assert exts[0].i1 >= 3
        assert (got == 0.0).all()

    def test_protocol_misuse(self, tmp_path):
        def prog(comm):
            w = BPWriter(comm, tmp_path / "p", (2, 2, 2))
            with pytest.raises(RuntimeError):
                w.write("x", np.zeros((2, 2, 2)), Extent(0, 1, 0, 1, 0, 1))
            w.begin_step()
            with pytest.raises(RuntimeError):
                w.begin_step()
            w.end_step()
            with pytest.raises(RuntimeError):
                w.end_step()
            w.close()
            w.close()  # idempotent

        run_spmd(1, prog)

    def test_unknown_var_raises(self, tmp_path):
        def prog(comm):
            w = BPWriter(comm, tmp_path / "q", (2, 2, 2))
            w.begin_step()
            w.write("x", np.zeros((2, 2, 2)), Extent(0, 1, 0, 1, 0, 1))
            w.end_step()
            w.close()

        run_spmd(1, prog)
        r = BPReader(tmp_path / "q")
        with pytest.raises(KeyError):
            r.read("y", 0)
        with pytest.raises(KeyError):
            r.read("x", 5)

    @staticmethod
    def _container(tmp_path, dims=(4, 2, 2), nranks=2):
        """A one-step container of ``x`` = writer rank + 1, and its index."""
        path = tmp_path / "c"

        def prog(comm):
            ext, _, _ = regular_decompose_3d(dims, comm.size, comm.rank)
            w = BPWriter(comm, path, dims)
            w.begin_step()
            w.write("x", np.full(ext.shape, comm.rank + 1.0), ext)
            w.end_step()
            w.close()

        run_spmd(nranks, prog)
        index = tmp_path / "c.bp" / "md.idx"
        return path, index, json.loads(index.read_text())

    FORGERIES = {
        "rank-is-a-path": lambda d: d["blocks"][1].update(rank="../../x"),
        "rank-past-writers": lambda d: d["blocks"][1].update(rank=2),
        "rank-negative": lambda d: d["blocks"][1].update(rank=-1),
        "rank-bool": lambda d: d["blocks"][1].update(rank=True),
        "offset-missing": lambda d: d["blocks"][0].pop("offset"),
        "var-missing": lambda d: d["blocks"][0].pop("var"),
        "offset-negative": lambda d: d["blocks"][0].update(offset=-1),
        "offset-past-eof": lambda d: d["blocks"][0].update(offset=10**9),
        "nbytes-not-extent": lambda d: d["blocks"][0].update(nbytes=8),
        "extent-outside-dims": lambda d: d["blocks"][0].update(extent=[0, 9, 0, 1, 0, 1]),
        "extent-inverted": lambda d: d["blocks"][0].update(extent=[1, -1, 0, 1, 0, 1]),
        "extent-short": lambda d: d["blocks"][0].update(extent=[0, 1, 0, 1]),
        "dtype-object": lambda d: d["blocks"][0].update(dtype="O"),
        "step-string": lambda d: d["blocks"][0].update(step="0"),
        "block-not-object": lambda d: d["blocks"].append("block"),
        "blocks-not-list": lambda d: d.update(blocks={}),
        "dims-short": lambda d: d.update(global_dims=[4, 2]),
        "no-writers": lambda d: d.update(num_writers=0),
        "num-steps-missing": lambda d: d.pop("num_steps"),
    }

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_hostile_index_rejected(self, tmp_path, forgery):
        """A forged index entry is a typed error on open or on read: never
        a KeyError/OSError/reshape error, never a read outside the
        container."""
        path, index, doc = self._container(tmp_path)
        (tmp_path / "x").write_bytes(b"\x00" * 64)  # what "../../x" would reach
        self.FORGERIES[forgery](doc)
        index.write_text(json.dumps(doc))
        with pytest.raises(StorageFormatError):
            BPReader(path).read("x", 0)

    @pytest.mark.parametrize("text", ["", "{", "[]", '"md"'])
    def test_unreadable_index_rejected(self, tmp_path, text):
        path, index, _ = self._container(tmp_path)
        index.write_text(text)
        with pytest.raises(StorageFormatError):
            BPReader(path)

    def test_empty_blocks_of_an_over_decomposed_writer_read_back(self, tmp_path):
        path, _, _ = self._container(tmp_path, dims=(1, 1, 4), nranks=8)
        got = BPReader(path).read("x", 0)
        np.testing.assert_array_equal(got.reshape(-1), [1.0, 1.0, 5.0, 5.0])
