"""Property-based tests over the system's cross-cutting invariants.

Each property here underpins one of the paper's measured claims: if any of
these broke, the corresponding experiment would be measuring a bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import parallel_histogram
from repro.analysis.autocorrelation import AutocorrelationState
from repro.mpi import MAX, MIN, SUM, run_spmd
from repro.render import RenderedImage, binary_swap, blank_image, direct_send
from repro.storage import BPReader, BPWriter
from repro.util import Extent
from repro.util.decomp import regular_decompose_3d


class TestMPIProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        nranks=st.integers(1, 6),
        n=st.integers(1, 64),
        seed=st.integers(0, 1000),
    )
    def test_allreduce_array_invariant(self, nranks, n, seed):
        """allreduce(SUM) of per-rank arrays equals the numpy sum and is
        identical on every rank."""
        rng = np.random.default_rng(seed)
        data = [rng.standard_normal(n) for _ in range(nranks)]

        def prog(comm):
            return comm.allreduce(data[comm.rank], SUM)

        out = run_spmd(nranks, prog)
        expected = data[0].copy()
        for d in data[1:]:
            expected = expected + d
        for o in out:
            np.testing.assert_array_equal(o, expected)

    @settings(max_examples=15, deadline=None)
    @given(nranks=st.integers(2, 6), seed=st.integers(0, 1000))
    def test_alltoall_is_transpose(self, nranks, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 100, (nranks, nranks))

        def prog(comm):
            return comm.alltoall(list(matrix[comm.rank]))

        out = run_spmd(nranks, prog)
        for r, row in enumerate(out):
            assert row == list(matrix[:, r])

    @settings(max_examples=15, deadline=None)
    @given(nranks=st.integers(1, 6), seed=st.integers(0, 1000))
    def test_exscan_prefix_property(self, nranks, seed):
        rng = np.random.default_rng(seed)
        vals = [int(v) for v in rng.integers(0, 50, nranks)]

        def prog(comm):
            return comm.exscan(vals[comm.rank])

        out = run_spmd(nranks, prog)
        assert out[0] is None
        for r in range(1, nranks):
            assert out[r] == sum(vals[:r])


class TestHistogramProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        nranks=st.integers(1, 6),
        n=st.integers(1, 300),
        bins=st.integers(1, 32),
        seed=st.integers(0, 1000),
    )
    def test_distribution_invariance(self, nranks, n, bins, seed):
        """The global histogram never depends on how data is distributed."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=n)
        if data.min() == data.max():
            return  # degenerate range uses a documented non-numpy convention
        chunks = np.array_split(data, nranks)

        def prog(comm):
            return parallel_histogram(comm, chunks[comm.rank], bins)

        h = run_spmd(nranks, prog)[0]
        expected, _ = np.histogram(data, bins=bins, range=(data.min(), data.max()))
        assert h.counts.tolist() == expected.tolist()
        assert h.total == n


class TestAutocorrelationProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        window=st.integers(1, 6),
        steps=st.integers(1, 12),
        seed=st.integers(0, 1000),
    )
    def test_delay_zero_is_energy(self, window, steps, seed):
        """corr[0] == sum of squares of the signal -- for any window."""
        rng = np.random.default_rng(seed)
        state = AutocorrelationState(window, 5)
        signal = rng.standard_normal((steps, 5))
        for row in signal:
            state.update(row)
        np.testing.assert_allclose(state.corr[0], (signal**2).sum(axis=0))

    @settings(max_examples=15, deadline=None)
    @given(window=st.integers(2, 5), seed=st.integers(0, 1000))
    def test_cauchy_schwarz(self, window, seed):
        """|corr[d]| <= corr[0] for stationary-bounded signals (up to the
        truncation of the first d terms)."""
        rng = np.random.default_rng(seed)
        state = AutocorrelationState(window, 8)
        for _ in range(20):
            state.update(rng.uniform(-1, 1, 8))
        # Generous bound accounting for edge terms.
        assert np.all(np.abs(state.corr[1:]) <= state.corr[0][None, :] + 1e-9)


class TestCompositingProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        nranks=st.integers(1, 6),
        w=st.integers(4, 24),
        h=st.integers(4, 24),
        seed=st.integers(0, 1000),
    )
    def test_binary_swap_equals_direct_send(self, nranks, w, h, seed):
        """The two compositing algorithms agree on arbitrary partials."""
        rng = np.random.default_rng(seed)
        rgbs = rng.integers(0, 256, (nranks, h, w, 3), dtype=np.uint8)
        masks = rng.integers(0, 2, (nranks, h, w)).astype(np.uint8) * 255

        def prog(comm):
            img = RenderedImage(rgbs[comm.rank].copy(), masks[comm.rank].copy())
            ds = direct_send(comm, img.copy())
            bs = binary_swap(comm, img.copy())
            if comm.rank == 0:
                return ds.rgb, ds.alpha, bs.rgb, bs.alpha
            return None

        ds_rgb, ds_alpha, bs_rgb, bs_alpha = run_spmd(nranks, prog)[0]
        assert np.array_equal(ds_rgb * (ds_alpha[..., None] > 0), bs_rgb * (bs_alpha[..., None] > 0))
        assert np.array_equal(ds_alpha > 0, bs_alpha > 0)

    @settings(max_examples=10, deadline=None)
    @given(nranks=st.integers(1, 5), seed=st.integers(0, 1000))
    def test_coverage_is_union(self, nranks, seed):
        """Composited coverage equals the union of partial coverages."""
        rng = np.random.default_rng(seed)
        masks = rng.integers(0, 2, (nranks, 8, 8)).astype(np.uint8) * 255

        def prog(comm):
            img = blank_image(8, 8)
            img.alpha[:] = masks[comm.rank]
            img.rgb[:] = 7
            out = binary_swap(comm, img)
            return None if out is None else (out.alpha > 0)

        got = run_spmd(nranks, prog)[0]
        expected = (masks > 0).any(axis=0)
        assert np.array_equal(got, expected)


class TestStorageProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        nranks=st.integers(1, 4),
        dims=st.tuples(st.integers(4, 10), st.integers(4, 8), st.integers(4, 8)),
        seed=st.integers(0, 1000),
    )
    def test_bp_roundtrip_any_decomposition(self, nranks, dims, seed, tmp_path_factory):
        tmpdir = tmp_path_factory.mktemp("bp_prop")
        rng = np.random.default_rng(seed)
        field = rng.standard_normal(dims)

        def prog(comm):
            ext, _, _ = regular_decompose_3d(dims, comm.size, comm.rank)
            w = BPWriter(comm, tmpdir / "f", dims)
            w.begin_step()
            w.write(
                "v",
                field[ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1],
                ext,
            )
            w.end_step()
            w.close()

        run_spmd(nranks, prog)
        got = BPReader(tmpdir / "f").read("v", 0)
        np.testing.assert_array_equal(got, field)


class TestCrossBackendProperties:
    """Randomized (but fully seeded -- every draw comes from the shared
    ``seeded_rng`` fixture) invariants run through BOTH execution backends,
    asserting bit-identical results between them.  These are the paper's
    backend-invariance claims in miniature: reductions fold in rank order,
    so results are deterministic regardless of execution substrate."""

    DTYPES = (np.float64, np.float32, np.int64, np.int32)

    def _cases(self, rng, n_cases):
        for _ in range(n_cases):
            nranks = int(rng.integers(2, 6))
            shape = tuple(int(s) for s in rng.integers(1, 9, size=int(rng.integers(1, 3))))
            dtype = self.DTYPES[int(rng.integers(0, len(self.DTYPES)))]
            yield nranks, shape, dtype

    @staticmethod
    def _field(rng, shape, dtype):
        if np.issubdtype(dtype, np.integer):
            return rng.integers(-1000, 1000, size=shape).astype(dtype)
        return rng.standard_normal(shape).astype(dtype)

    def test_reductions_bit_identical_across_backends(self, seeded_rng):
        """reduce/allreduce/gather over randomized rank counts, shapes, and
        dtypes: both backends produce byte-identical buffers, equal to the
        rank-ordered reference fold."""
        for nranks, shape, dtype in self._cases(seeded_rng, 4):
            data = [self._field(seeded_rng, shape, dtype) for _ in range(nranks)]

            def prog(comm):
                a = comm.allreduce(data[comm.rank], SUM)
                r = comm.reduce(data[comm.rank], SUM, root=0)
                g = comm.gather(data[comm.rank], root=nranks - 1)
                lo = comm.allreduce(float(data[comm.rank].min()), MIN)
                hi = comm.allreduce(float(data[comm.rank].max()), MAX)
                return a, r, g, lo, hi

            by_backend = {
                b: run_spmd(nranks, prog, backend=b)
                for b in ("thread", "process")
            }
            # Rank-ordered left fold: the documented reduction order.
            expected = data[0].copy()
            for d in data[1:]:
                expected = expected + d
            for backend, out in by_backend.items():
                label = f"{backend} nranks={nranks} shape={shape} {np.dtype(dtype)}"
                for rank, (a, r, g, lo, hi) in enumerate(out):
                    assert a.tobytes() == expected.tobytes(), label
                    assert (r is None) == (rank != 0), label
                    if rank == 0:
                        assert r.tobytes() == expected.tobytes(), label
                    if rank == nranks - 1:
                        assert [x.tobytes() for x in g] == [
                            d.tobytes() for d in data
                        ], label
                    else:
                        assert g is None, label
                    assert lo == min(float(d.min()) for d in data), label
                    assert hi == max(float(d.max()) for d in data), label
            t, p = by_backend["thread"], by_backend["process"]
            for (at, *_), (ap, *_) in zip(t, p):
                assert at.tobytes() == ap.tobytes()

    def test_float_sum_associativity_tolerance(self, seeded_rng):
        """The rank-ordered fold may differ from numpy's pairwise sum only
        within the classic |err| <= n*eps*sum|x| associativity bound -- and
        the fold itself is bit-identical across backends (determinism is a
        stronger claim than accuracy, and both must hold)."""
        for nranks, shape, _ in self._cases(seeded_rng, 3):
            data = [seeded_rng.standard_normal(shape) for _ in range(nranks)]

            def prog(comm):
                return comm.allreduce(data[comm.rank], SUM)

            t = run_spmd(nranks, prog, backend="thread")
            p = run_spmd(nranks, prog, backend="process")
            for at, ap in zip(t, p):
                assert at.tobytes() == ap.tobytes()
            pairwise = np.sum(np.stack(data), axis=0)
            bound = (
                len(data)
                * np.finfo(np.float64).eps
                * np.sum(np.abs(np.stack(data)), axis=0)
            )
            assert np.all(np.abs(t[0] - pairwise) <= bound + 1e-300)


class TestDecompositionProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        dims=st.tuples(st.integers(2, 20), st.integers(2, 20), st.integers(2, 20)),
        nranks=st.integers(1, 24),
    )
    def test_extent_point_counts_sum(self, dims, nranks):
        total = sum(
            regular_decompose_3d(dims, nranks, r)[0].num_points
            for r in range(nranks)
        )
        assert total == dims[0] * dims[1] * dims[2]
