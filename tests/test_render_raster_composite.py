"""Tests for rasterization, compositing, and isosurface extraction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import run_spmd
from repro.render import (
    COOL_WARM,
    GRAY,
    RenderedImage,
    binary_swap,
    blank_image,
    composite_over,
    composite_over_into,
    direct_send,
    marching_tetrahedra,
    rasterize_slice,
    splat_points,
)
from repro.render.compositing import band_rows, swap_band
from repro.render.isosurface import isosurface_points
from tests._raster_oracle import rasterize_slice as gather_rasterize_slice


class TestBlankImage:
    def test_empty(self):
        img = blank_image(8, 4)
        assert img.shape == (4, 8)
        assert img.coverage() == 0.0
        assert img.depth is None

    def test_with_depth(self):
        img = blank_image(4, 4, with_depth=True)
        assert np.all(np.isinf(img.depth))

    def test_validation(self):
        with pytest.raises(ValueError):
            blank_image(0, 4)
        with pytest.raises(ValueError):
            RenderedImage(np.zeros((2, 2, 3), np.uint8), np.zeros((3, 3), np.uint8))

    def test_nbytes(self):
        img = blank_image(10, 10, with_depth=True)
        assert img.nbytes == 300 + 100 + 400


@st.composite
def _raster_cases(draw):
    """(values, extent2d, global_extent2d, width, height, (vmin, vmax) | None).

    Global extents down to zero nodes wide; fragments one node wide, partly
    or wholly outside the global extent; viewports from 1x1 to past the node
    count (runs longer than one) and below it (nodes owning no pixel); NaN
    and +-inf samples; degenerate, explicit and defaulted colour ranges.
    """
    gu0, gv0 = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    gnu, gnv = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    u0 = draw(st.integers(gu0 - 3, gu0 + gnu + 3))
    v0 = draw(st.integers(gv0 - 3, gv0 + gnv + 3))
    nu, nv = draw(st.integers(1, gnu + 4)), draw(st.integers(1, gnv + 4))
    width, height = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(nu, nv))
    special = draw(st.sampled_from(["finite", "sprinkled", "all_nan"]))
    if special == "sprinkled":
        kind = rng.integers(0, 12, size=values.shape)
        values[kind == 0] = np.nan
        values[kind == 1] = np.inf
        values[kind == 2] = -np.inf
    elif special == "all_nan":
        values[:] = np.nan
    vrange = draw(st.sampled_from([None, (0.25, 0.25), (-1.0, 2.0)]))
    return (
        values,
        (u0, u0 + nu - 1, v0, v0 + nv - 1),
        (gu0, gu0 + gnu, gv0, gv0 + gnv),
        width,
        height,
        vrange,
    )


class TestRasterizeSlice:
    def test_full_domain_fragment_covers_viewport(self):
        values = np.linspace(0, 1, 25).reshape(5, 5)
        img = rasterize_slice(values, (0, 4, 0, 4), (0, 4, 0, 4), 32, 24)
        assert img.coverage() == 1.0

    def test_partial_fragment_covers_its_region_only(self):
        values = np.ones((3, 5))
        # Fragment owns u in [0,2] of a global [0,9]: ~left third of pixels.
        img = rasterize_slice(values, (0, 2, 0, 4), (0, 9, 0, 4), 40, 20)
        cov = img.coverage()
        assert 0.15 < cov < 0.35
        # Coverage must be the left columns.
        assert img.alpha[:, 0].all()
        assert not img.alpha[:, -1].any()

    def test_disjoint_fragment_renders_nothing(self):
        values = np.ones((2, 2))
        img = rasterize_slice(values, (8, 9, 8, 9), (0, 4, 0, 4), 16, 16)
        assert img.coverage() == 0.0

    def test_value_gradient_monotone_along_axis(self):
        values = np.array([[0.0, 1.0], [0.0, 1.0]])
        img = rasterize_slice(values, (0, 1, 0, 1), (0, 1, 0, 1), 4, 64, colormap=GRAY)
        col = img.rgb[:, 0, 0].astype(int)
        assert col[0] < col[-1]
        assert np.all(np.diff(col) >= 0)

    def test_nearest_ownership_partitions_pixels(self):
        """Two abutting fragments cover every pixel exactly once."""
        vals_a = np.zeros((4, 5))
        vals_b = np.ones((5, 5))
        a = rasterize_slice(vals_a, (0, 3, 0, 4), (0, 8, 0, 4), 37, 23)
        b = rasterize_slice(vals_b, (4, 8, 0, 4), (0, 8, 0, 4), 37, 23)
        both = (a.alpha > 0).astype(int) + (b.alpha > 0).astype(int)
        assert (both == 1).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rasterize_slice(np.ones((2, 2)), (0, 4, 0, 4), (0, 4, 0, 4), 8, 8)
        with pytest.raises(ValueError):
            rasterize_slice(
                np.ones((5, 5)), (0, 4, 0, 4), (0, 4, 0, 4), 8, 8, out=blank_image(8, 9)
            )

    @given(case=_raster_cases())
    @settings(max_examples=300, deadline=None)
    def test_byte_equal_to_gather_oracle(self, case):
        """Run-length expansion of the colour-mapped owning nodes gives the
        bytes the per-pixel gather + colormap + ``np.ix_`` scatter gave."""
        values, extent, whole, width, height, vrange = case
        kwargs = {} if vrange is None else dict(vmin=vrange[0], vmax=vrange[1])
        with warnings.catch_warnings():
            # All-NaN fragments with a defaulted range: nanmin warns in both.
            warnings.simplefilter("ignore", RuntimeWarning)
            want = gather_rasterize_slice(
                values, extent, whole, width, height, colormap=COOL_WARM, **kwargs
            )
            got = rasterize_slice(
                values, extent, whole, width, height, colormap=COOL_WARM, **kwargs
            )
        assert got.rgb.dtype == np.uint8 and got.alpha.dtype == np.uint8
        assert np.array_equal(got.rgb, want.rgb)
        assert np.array_equal(got.alpha, want.alpha)

    @pytest.mark.parametrize("b_extent", [
        (4, 8, 0, 4),  # abutting: the decomposed-domain case
        (2, 6, 1, 3),  # overlapping A: A's pixels stay in front
        (0, 3, 0, 4),  # hidden entirely behind A
        (20, 21, 0, 4),  # outside the viewport's share
    ])
    def test_out_paints_behind_what_is_there(self, b_extent):
        """A then B painted into one framebuffer == A composited over B."""
        whole, size = (0, 8, 0, 4), (37, 23)
        rng = np.random.default_rng(5)
        a_extent = (0, 3, 0, 4)

        def values(extent):
            return rng.random((extent[1] - extent[0] + 1, extent[3] - extent[2] + 1))

        a_vals, b_vals = values(a_extent), values(b_extent)
        img_a = rasterize_slice(a_vals, a_extent, whole, *size, vmin=0.0, vmax=1.0)
        img_b = rasterize_slice(b_vals, b_extent, whole, *size, vmin=0.0, vmax=1.0)
        want = composite_over_into(img_a, img_b)
        buf = blank_image(*size)
        for vals, extent in ((a_vals, a_extent), (b_vals, b_extent)):
            got = rasterize_slice(vals, extent, whole, *size, vmin=0.0, vmax=1.0, out=buf)
            assert got is buf
        assert np.array_equal(buf.rgb, want.rgb)
        assert np.array_equal(buf.alpha, want.alpha)


class TestSplatPoints:
    def test_points_drawn(self):
        pts = np.array([[0.5, 0.5]])
        img = splat_points(
            pts, np.array([1.0]), np.array([[255, 0, 0]]), 9, 9, (0, 1, 0, 1), radius=1
        )
        assert img.alpha[4, 4] == 255
        assert img.rgb[4, 4].tolist() == [255, 0, 0]

    def test_depth_test_nearer_wins(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5]])
        depths = np.array([2.0, 1.0])
        colors = np.array([[255, 0, 0], [0, 255, 0]])
        img = splat_points(pts, depths, colors, 9, 9, (0, 1, 0, 1), radius=0)
        assert img.rgb[4, 4].tolist() == [0, 255, 0]

    def test_out_of_bounds_culled(self):
        pts = np.array([[5.0, 5.0]])
        img = splat_points(
            pts, np.array([1.0]), np.array([[1, 2, 3]]), 8, 8, (0, 1, 0, 1)
        )
        assert img.coverage() == 0.0

    def test_empty_input(self):
        img = splat_points(
            np.empty((0, 2)), np.empty(0), np.empty((0, 3)), 8, 8, (0, 1, 0, 1)
        )
        assert img.coverage() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            splat_points(np.ones((2, 3)), np.ones(2), np.ones((2, 3)), 4, 4, (0, 1, 0, 1))
        with pytest.raises(ValueError):
            splat_points(np.ones((1, 2)), np.ones(1), np.ones((1, 3)), 4, 4, (1, 1, 0, 1))

    def test_border_splat_does_not_smear(self):
        """A sprite centered on the border covers only its in-viewport
        pixels; clamped offsets must not re-paint the frame edge."""
        pts = np.array([[0.0, 0.5]])  # center on the left edge
        img = splat_points(
            pts, np.array([1.0]), np.array([[9, 9, 9]]), 9, 9, (0, 1, 0, 1), radius=1
        )
        # 2x3 footprint: columns 0..1, rows 3..5 -- nothing else.
        assert int((img.alpha > 0).sum()) == 6
        assert img.alpha[3:6, 0:2].all()

    def test_corner_splat_covers_quarter(self):
        pts = np.array([[0.0, 0.0]])
        img = splat_points(
            pts, np.array([1.0]), np.array([[7, 7, 7]]), 9, 9, (0, 1, 0, 1), radius=2
        )
        # Only the 3x3 in-bounds quarter of the 5x5 sprite is painted.
        assert int((img.alpha > 0).sum()) == 9
        assert img.alpha[0:3, 0:3].all()


class TestCompositeOver:
    def _img(self, val, mask, depth=None):
        rgb = np.full((2, 2, 3), val, dtype=np.uint8)
        alpha = (np.array(mask, dtype=np.uint8)) * 255
        d = None
        if depth is not None:
            d = np.where(np.array(mask, bool), np.float32(depth), np.inf).astype(
                np.float32
            )
        return RenderedImage(rgb, alpha, d)

    def test_alpha_priority(self):
        front = self._img(10, [[1, 0], [0, 0]])
        back = self._img(20, [[1, 1], [0, 1]])
        out = composite_over(front, back)
        assert out.rgb.dtype == np.uint8 and out.alpha.dtype == np.uint8
        assert out.rgb[0, 0, 0] == 10  # front wins where rendered
        assert out.rgb[0, 1, 0] == 20  # back fills
        assert out.alpha[1, 0] == 0  # both empty

    def test_depth_priority(self):
        near = self._img(10, [[1, 1], [1, 1]], depth=1.0)
        far = self._img(20, [[1, 1], [1, 1]], depth=5.0)
        out = composite_over(far, near)
        assert out.rgb.dtype == np.uint8 and out.alpha.dtype == np.uint8
        assert out.depth.dtype == np.float32
        assert (out.rgb[..., 0] == 10).all()

    def test_mixed_depth_presence_rejected(self):
        a = self._img(1, [[1, 1], [1, 1]], depth=1.0)
        b = self._img(2, [[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            composite_over(a, b)

    def test_shape_mismatch_rejected(self):
        a = self._img(1, [[1, 1], [1, 1]])
        b = RenderedImage(np.zeros((3, 3, 3), np.uint8), np.zeros((3, 3), np.uint8))
        with pytest.raises(ValueError):
            composite_over(a, b)


class TestCompositeOverInto:
    def _random_pair(self, seed, with_depth):
        rng = np.random.default_rng(seed)

        def mk():
            rgb = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
            alpha = (rng.random((5, 7)) < 0.6).astype(np.uint8) * 255
            depth = None
            if with_depth:
                depth = np.where(
                    alpha > 0, rng.random((5, 7)).astype(np.float32), np.inf
                ).astype(np.float32)
            return RenderedImage(rgb, alpha, depth)

        return mk(), mk()

    @pytest.mark.parametrize("with_depth", [False, True])
    @pytest.mark.parametrize("target", ["back", "front", "fresh"])
    def test_matches_composite_over(self, with_depth, target):
        """In-place result is pixel-identical to the allocating one for
        every legal aliasing of ``out``."""
        for seed in range(5):
            front, back = self._random_pair(seed, with_depth)
            expected = composite_over(front, back)
            f, b = front.copy(), back.copy()
            out = {"back": b, "front": f, "fresh": blank_image(7, 5, with_depth)}[
                target
            ]
            got = composite_over_into(f, b, out=out)
            assert got is out
            assert np.array_equal(got.rgb, expected.rgb)
            assert np.array_equal(got.alpha, expected.alpha)
            if with_depth:
                assert np.array_equal(got.depth, expected.depth)

    def test_default_out_is_back(self):
        front, back = self._random_pair(3, False)
        expected = composite_over(front, back)
        got = composite_over_into(front, back)
        assert got is back
        assert np.array_equal(got.rgb, expected.rgb)

    @pytest.mark.parametrize("with_depth", [False, True])
    @pytest.mark.parametrize("target", ["back", "front", "fresh"])
    @pytest.mark.parametrize("mask", ["empty", "full", "box", "ragged", "corners"])
    def test_box_limited_copies_match_composite_over(self, mask, target, with_depth):
        """Whatever the shape of front's coverage -- nothing, everything, one
        interior rectangle (the slice-assignment path), a ragged blob, two
        opposite corners (a box that is the whole frame but mostly
        unselected) -- only the result of :func:`composite_over` comes out."""
        rng = np.random.default_rng(11)
        h, w = 9, 13
        cover = np.zeros((h, w), dtype=bool)
        if mask == "full":
            cover[:] = True
        elif mask == "box":
            cover[2:6, 3:11] = True
        elif mask == "ragged":
            cover[1:8, 2:12] = rng.random((7, 10)) < 0.5
        elif mask == "corners":
            cover[0, 0] = cover[-1, -1] = True

        def image(covered):
            alpha = covered.astype(np.uint8) * 255
            depth = None
            if with_depth:
                depth = np.where(covered, rng.random((h, w)), np.inf).astype(np.float32)
            return RenderedImage(
                rng.integers(0, 256, (h, w, 3), dtype=np.uint8), alpha, depth
            )

        front, back = image(cover), image(rng.random((h, w)) < 0.7)
        want = composite_over(front, back)
        f, b = front.copy(), back.copy()
        out = {"back": b, "front": f, "fresh": blank_image(w, h, with_depth)}[target]
        got = composite_over_into(f, b, out=out)
        assert got is out
        assert np.array_equal(got.rgb, want.rgb)
        assert np.array_equal(got.alpha, want.alpha)
        if with_depth:
            assert np.array_equal(got.depth, want.depth)
        # The operand that is not the target is only read.
        if target != "front":
            assert np.array_equal(f.rgb, front.rgb)
        if target != "back":
            assert np.array_equal(b.rgb, back.rgb)

    def test_validation(self):
        front, back = self._random_pair(0, False)
        with pytest.raises(ValueError):
            composite_over_into(front, blank_image(3, 3))
        with pytest.raises(ValueError):
            composite_over_into(front, back, out=blank_image(7, 5, with_depth=True))
        with_d, _ = self._random_pair(0, True)
        with pytest.raises(ValueError):
            composite_over_into(with_d, back)


def _rank_band_image(comm, width=16, height=32, with_depth=False):
    """Each rank renders a horizontal band of rows with its own color."""
    img = blank_image(width, height, with_depth=with_depth)
    h0 = height * comm.rank // comm.size
    h1 = height * (comm.rank + 1) // comm.size
    img.rgb[h0:h1] = (comm.rank + 1) * 10
    img.alpha[h0:h1] = 255
    if with_depth:
        img.depth[h0:h1] = 1.0
    return img


class TestParallelCompositing:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 5, 8])
    def test_binary_swap_matches_direct_send(self, nranks):
        def prog(comm):
            img = _rank_band_image(comm)
            ds = direct_send(comm, img.copy())
            bs = binary_swap(comm, img.copy())
            if comm.rank == 0:
                return ds.rgb, ds.alpha, bs.rgb, bs.alpha
            assert ds is None and bs is None
            return None

        out = run_spmd(nranks, prog)[0]
        ds_rgb, ds_alpha, bs_rgb, bs_alpha = out
        assert np.array_equal(ds_rgb, bs_rgb)
        assert np.array_equal(ds_alpha, bs_alpha)

    def test_full_coverage_from_disjoint_bands(self):
        def prog(comm):
            out = binary_swap(comm, _rank_band_image(comm))
            return None if out is None else out.coverage()

        assert run_spmd(4, prog)[0] == 1.0

    @pytest.mark.parametrize("nranks", [2, 4, 6])
    def test_depth_composite_across_ranks(self, nranks):
        """Overlapping full-screen layers: nearest rank's color must win."""

        def prog(comm):
            img = blank_image(8, 8, with_depth=True)
            img.rgb[:] = (comm.rank + 1) * 10
            img.alpha[:] = 255
            # rank r at depth (r + 1): rank 0 is nearest.
            img.depth[:] = comm.rank + 1.0
            ds = direct_send(comm, img.copy())
            bs = binary_swap(comm, img.copy())
            if comm.rank == 0:
                return ds.rgb[0, 0, 0], bs.rgb[0, 0, 0]
            return None

        ds0, bs0 = run_spmd(nranks, prog)[0]
        assert ds0 == 10 and bs0 == 10

    def test_overlap_rank_priority_consistent(self):
        """Without depth, both algorithms resolve overlap to the lowest rank."""

        def prog(comm):
            img = blank_image(8, 8)
            img.rgb[:] = (comm.rank + 1) * 10
            img.alpha[:] = 255
            ds = direct_send(comm, img.copy())
            bs = binary_swap(comm, img.copy())
            if comm.rank == 0:
                return ds.rgb[0, 0, 0], bs.rgb[0, 0, 0]
            return None

        ds0, bs0 = run_spmd(4, prog)[0]
        assert ds0 == 10 and bs0 == 10

    @pytest.mark.parametrize("height", [32, 7, 2])
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 5, 8])
    def test_swap_band_holds_band_rows_of_the_stitched_frame(self, nranks, height):
        """Every active rank ends the rounds holding ``band_rows(height,
        rank, log2 active)`` of the frame binary swap stitches; a folded
        rank holds nothing.  Height 2 at 8 ranks leaves most bands empty."""

        def prog(comm):
            img = _rank_band_image(comm, height=height)
            stitched = binary_swap(comm, img.copy())
            got = swap_band(comm, img.copy())
            frame = comm.bcast(None if stitched is None else stitched.rgb)
            rounds = comm.size.bit_length() - 1
            if comm.rank >= 1 << rounds:
                return got is None
            row0, band = got
            lo, hi = band_rows(height, comm.rank, rounds)
            return row0 == lo and np.array_equal(band.rgb, frame[lo:hi])

        assert all(run_spmd(nranks, prog))

    def test_band_rows_nest_and_tile(self):
        for height in (1, 2, 7, 1080):
            for depth in range(5):
                bands = sorted(band_rows(height, p, depth) for p in range(1 << depth))
                assert bands[0][0] == 0 and bands[-1][1] == height
                assert all(a[1] == b[0] for a, b in zip(bands, bands[1:]))
                for p in range(1 << depth):
                    lo, hi = band_rows(height, p, depth)
                    low = band_rows(height, p, depth + 1)
                    high = band_rows(height, p | 1 << depth, depth + 1)
                    assert (low[0], low[1], high[1]) == (lo, high[0], hi)

    def test_partial_not_mutated_by_swap(self):
        """The caller's partial image survives binary_swap untouched (the
        zero-alloc rounds must only write into received copies)."""

        def prog(comm):
            img = _rank_band_image(comm, with_depth=True)
            before = (img.rgb.copy(), img.alpha.copy(), img.depth.copy())
            binary_swap(comm, img)
            return (
                np.array_equal(img.rgb, before[0])
                and np.array_equal(img.alpha, before[1])
                and np.array_equal(img.depth, before[2])
            )

        assert all(run_spmd(6, prog))


class TestMarchingTetrahedra:
    def test_sphere_surface_distance(self):
        """All triangle vertices of an iso-sphere lie near the sphere."""
        n = 16
        ax = np.linspace(-1, 1, n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        r = np.sqrt(x * x + y * y + z * z)
        h = ax[1] - ax[0]
        tris = marching_tetrahedra(r, 0.6, origin=(-1, -1, -1), spacing=(h, h, h))
        assert tris.shape[0] > 100
        radii = np.linalg.norm(tris.reshape(-1, 3), axis=1)
        assert np.all(np.abs(radii - 0.6) < h)

    def test_planar_field_gives_plane(self):
        n = 8
        x = np.meshgrid(
            np.arange(n, dtype=float), np.arange(n, dtype=float),
            np.arange(n, dtype=float), indexing="ij",
        )[0]
        tris = marching_tetrahedra(x, 3.5)
        assert tris.shape[0] > 0
        np.testing.assert_allclose(tris[..., 0], 3.5, atol=1e-12)

    def test_iso_outside_range_is_empty(self):
        f = np.zeros((4, 4, 4))
        assert marching_tetrahedra(f, 5.0).shape == (0, 3, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            marching_tetrahedra(np.zeros((1, 4, 4)), 0.5)
        with pytest.raises(ValueError):
            marching_tetrahedra(np.zeros((4, 4)), 0.5)

    def test_watertight_no_boundary_gaps(self):
        """Every interior triangle edge is shared by exactly two triangles
        (watertightness of marching tets on a closed surface)."""
        n = 10
        ax = np.linspace(-1, 1, n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        r = np.sqrt(x * x + y * y + z * z)
        h = ax[1] - ax[0]
        tris = marching_tetrahedra(r, 0.55, origin=(-1, -1, -1), spacing=(h, h, h))
        # Quantize vertices so shared edges hash identically.
        q = np.round(tris / (h * 1e-6)).astype(np.int64)
        edge_count: dict = {}
        for t in range(q.shape[0]):
            for e in range(3):
                a = tuple(q[t, e])
                b = tuple(q[t, (e + 1) % 3])
                if a == b:  # degenerate edge from a vertex exactly on iso
                    continue
                key = (min(a, b), max(a, b))
                edge_count[key] = edge_count.get(key, 0) + 1
        counts = np.array(list(edge_count.values()))
        # A closed surface inside the domain: all edges shared exactly twice.
        assert (counts == 2).mean() > 0.95

    def test_isosurface_points_on_surface(self):
        n = 12
        ax = np.linspace(-1, 1, n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        r = np.sqrt(x * x + y * y + z * z)
        h = ax[1] - ax[0]
        pts = isosurface_points(r, 0.5, origin=(-1, -1, -1), spacing=(h, h, h))
        assert pts.shape[0] > 0
        radii = np.linalg.norm(pts, axis=1)
        assert np.all(np.abs(radii - 0.5) < h)
