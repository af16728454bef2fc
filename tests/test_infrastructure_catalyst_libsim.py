"""Tests for the Catalyst and Libsim infrastructure emulations."""

import functools
import json
import zlib

import numpy as np
import pytest

from repro.analysis.slice_ import SlicePlane
from repro.core import Bridge
from repro.infrastructure import (
    CatalystAdaptor,
    EDITIONS,
    LibsimAdaptor,
    write_session_file,
)
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.render import decode_png
from repro.render.png import _WINDOW
from repro.trace import TraceSession
from repro.util import MemoryTracker, TimerRegistry
from repro.util.config import ConfigError
from tests._png_oracle import expected_png


def _run_catalyst(nranks, dims=(12, 10, 8), steps=2, **kwargs):
    def prog(comm):
        timers = TimerRegistry()
        mem = MemoryTracker()
        sim = OscillatorSimulation(comm, dims, default_oscillators(), dt=0.1)
        bridge = Bridge(comm, sim.make_data_adaptor(), timers=timers, memory=mem)
        cat = CatalystAdaptor(
            plane=SlicePlane(axis=2, index=dims[2] // 2),
            resolution=kwargs.pop("resolution", (64, 48)),
            **kwargs,
        )
        bridge.add_analysis(cat)
        bridge.initialize()
        sim.run(steps, bridge)
        results = bridge.finalize()
        return {
            "png": cat.last_png,
            "written": cat.images_written,
            "timers": timers.names(),
            "mem_static": mem.static,
            "results": results,
        }

    return run_spmd(nranks, prog)


class TestCatalyst:
    def test_writes_image_every_step(self):
        out = _run_catalyst(1, steps=3)[0]
        assert out["written"] == 3
        assert out["results"]["CatalystAdaptor"]["images_written"] == 3

    def test_png_decodes_to_resolution(self):
        out = _run_catalyst(1, resolution=(64, 48))[0]
        img = decode_png(out["png"])
        assert img.shape == (48, 64, 3)

    def test_image_fully_covered_and_nontrivial(self):
        out = _run_catalyst(1)[0]
        img = decode_png(out["png"])
        # Full-domain slice: no background pixels, and actual color variation.
        assert img.std() > 1.0

    def test_parallel_image_matches_serial(self):
        """Compositing invariant: N-rank render == 1-rank render."""
        serial = decode_png(_run_catalyst(1)[0]["png"])
        for n in (2, 4):
            parallel_out = _run_catalyst(n)
            png = parallel_out[0]["png"]
            assert png is not None
            np.testing.assert_array_equal(decode_png(png), serial)

    def test_only_root_has_png(self):
        out = _run_catalyst(4)
        assert out[0]["png"] is not None
        assert all(o["png"] is None for o in out[1:])

    def test_edition_footprint_charged(self):
        out = _run_catalyst(1, edition="full")[0]
        assert out["mem_static"] >= EDITIONS["full"].static_bytes

    def test_phase_timers_present(self):
        names = _run_catalyst(2)[0]["timers"]
        for phase in (
            "catalyst::slice",
            "catalyst::render",
            "catalyst::composite",
            "catalyst::png",
        ):
            assert phase in names

    def test_frequency_skips_steps(self):
        out = _run_catalyst(1, steps=4, frequency=2)[0]
        assert out["written"] == 2

    def test_output_dir_files(self, tmp_path):
        _run_catalyst(1, steps=2, output_dir=str(tmp_path / "imgs"))
        files = sorted((tmp_path / "imgs").glob("catalyst_*.png"))
        assert len(files) == 2
        assert decode_png(files[0].read_bytes()).shape == (48, 64, 3)

    def test_unknown_edition_rejected(self):
        with pytest.raises(ValueError):
            CatalystAdaptor(SlicePlane(2, 0), edition="mystery")

    def test_extract_edition_cannot_render(self):
        with pytest.raises(ValueError):
            CatalystAdaptor(SlicePlane(2, 0), edition="extract")

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            CatalystAdaptor(SlicePlane(2, 0), frequency=0)

    @pytest.mark.parametrize("level", [-1, 10])
    def test_invalid_compression_level_rejected_at_construction(self, level):
        """Not at the first step, where every rank but the folded ones
        would raise inside the encode and the job would abort."""
        with pytest.raises(ValueError, match="compression_level"):
            CatalystAdaptor(SlicePlane(2, 0), compression_level=level)

    def test_frames_allocated_once_and_reused(self):
        """Catalyst's one frame, the partial, is allocated once per rank."""
        record = _run_frames()
        partials = {r[1] for r in record}
        assert len(partials) == 1 and None not in partials
        # The per-step framebuffer charge is released within the step.
        assert all(r[2] == 0 for r in record)


def _run_frames(nranks=2, steps=3, **kwargs):
    """Rank 0's per-step record of a Catalyst run: PNG bytes, the identity
    of Catalyst's partial frame (``None`` for no frame) and the bytes the
    tracker holds between steps."""

    def prog(comm):
        mem = MemoryTracker()
        sim = OscillatorSimulation(comm, (12, 10, 8), default_oscillators(), dt=0.1)
        bridge = Bridge(comm, sim.make_data_adaptor(), memory=mem)
        cat = CatalystAdaptor(
            plane=SlicePlane(axis=2, index=4), resolution=(64, 48), **kwargs
        )
        bridge.add_analysis(cat)
        bridge.initialize()
        record = []
        for _ in range(steps):
            sim.run(1, bridge)
            partial = None if cat._partial is None else id(cat._partial)
            record.append((cat.last_png, partial, mem.current - mem.static))
        bridge.finalize()
        return record

    return run_spmd(nranks, prog)[0]


def _session(tmp_path, plots, resolution=(48, 48)):
    path = tmp_path / "session.json"
    write_session_file(path, plots, resolution=resolution)
    return path


def _iso(isovalues):
    return {"type": "isosurface", "isovalues": isovalues}


class TestLibsim:
    def test_slice_session_renders(self, tmp_path):
        session = _session(
            tmp_path,
            [{"type": "pseudocolor_slice", "axis": 2, "index": 3, "colormap": "viridis"}],
        )

        def prog(comm):
            sim = OscillatorSimulation(comm, (10, 10, 8), default_oscillators())
            bridge = Bridge(comm, sim.make_data_adaptor())
            lib = LibsimAdaptor(session_file=session)
            bridge.add_analysis(lib)
            bridge.initialize()
            sim.run(2, bridge)
            bridge.finalize()
            return lib.last_png, lib.images_written

        png, n = run_spmd(2, prog)[0]
        assert n == 2
        assert decode_png(png).shape == (48, 48, 3)

    def test_avf_style_session_iso_plus_slices(self, tmp_path):
        """The AVF-LESLIE visualization: 3 isosurfaces + 3 slice planes."""
        session = _session(
            tmp_path,
            [
                {"type": "isosurface", "isovalues": [0.2, 0.5, 0.8]},
                {"type": "pseudocolor_slice", "axis": 0, "index": 4},
                {"type": "pseudocolor_slice", "axis": 1, "index": 4},
                {"type": "pseudocolor_slice", "axis": 2, "index": 4},
            ],
        )

        def prog(comm):
            sim = OscillatorSimulation(comm, (10, 10, 10), default_oscillators())
            bridge = Bridge(comm, sim.make_data_adaptor())
            lib = LibsimAdaptor(session_file=session)
            bridge.add_analysis(lib)
            bridge.initialize()
            sim.run(1, bridge)
            bridge.finalize()
            return lib.last_png

        png = run_spmd(1, prog)[0]
        img = decode_png(png)
        assert img.shape == (48, 48, 3)
        assert img.std() > 1.0

    def test_per_rank_session_parse_timed(self, tmp_path):
        session = _session(tmp_path, [{"type": "pseudocolor_slice"}])

        def prog(comm):
            timers = TimerRegistry()
            sim = OscillatorSimulation(comm, (8, 8, 8), default_oscillators())
            bridge = Bridge(comm, sim.make_data_adaptor(), timers=timers)
            bridge.add_analysis(LibsimAdaptor(session_file=session))
            bridge.initialize()
            return timers.timer("libsim::session_parse").count

        # Every rank parses the session file once.
        assert run_spmd(4, prog) == [1, 1, 1, 1]

    def test_frequency_sawtooth(self, tmp_path):
        """With frequency=5, 4/5 executes are cheap no-ops (Fig. 16)."""
        session = _session(tmp_path, [{"type": "pseudocolor_slice", "index": 2}])

        def prog(comm):
            timers = TimerRegistry()
            sim = OscillatorSimulation(comm, (8, 8, 8), default_oscillators())
            bridge = Bridge(comm, sim.make_data_adaptor(), timers=timers)
            lib = LibsimAdaptor(session_file=session, frequency=5)
            bridge.add_analysis(lib)
            bridge.initialize()
            sim.run(10, bridge)
            bridge.finalize()
            return lib.images_written, timers.timer("libsim::render").count

        written, renders = run_spmd(1, prog)[0]
        assert written == 2  # steps 5 and 10
        assert renders == 2

    def test_parallel_matches_serial(self, tmp_path):
        session = _session(
            tmp_path, [{"type": "pseudocolor_slice", "axis": 2, "index": 4}]
        )

        def prog(comm):
            sim = OscillatorSimulation(comm, (10, 10, 10), default_oscillators())
            bridge = Bridge(comm, sim.make_data_adaptor())
            lib = LibsimAdaptor(session_file=session)
            bridge.add_analysis(lib)
            bridge.initialize()
            sim.run(1, bridge)
            bridge.finalize()
            return lib.last_png

        serial = decode_png(run_spmd(1, prog)[0])
        for n in (2, 4):
            png = run_spmd(n, prog)[0]
            np.testing.assert_array_equal(decode_png(png), serial)

    def test_slice_only_session_makes_no_depth_framebuffer(
        self, tmp_path, monkeypatch
    ):
        """The inf-filled depth framebuffer (the largest plane) is made by
        the first isosurface plot, not on every step of every session."""
        import repro.infrastructure.libsim as libsim_module

        real, depth_flags = libsim_module.blank_image, []

        def blank_image(width, height, with_depth=False):
            depth_flags.append(with_depth)
            return real(width, height, with_depth=with_depth)

        monkeypatch.setattr(libsim_module, "blank_image", blank_image)
        session = _session(
            tmp_path, [{"type": "pseudocolor_slice", "axis": 2, "index": 4}] * 2
        )

        def prog(comm):
            sim = OscillatorSimulation(comm, (10, 10, 10), default_oscillators())
            bridge = Bridge(comm, sim.make_data_adaptor())
            lib = LibsimAdaptor(session_file=session)
            bridge.add_analysis(lib)
            bridge.initialize()
            sim.run(2, bridge)
            bridge.finalize()
            return lib.images_written

        assert run_spmd(2, prog, backend="thread")[0] == 2
        assert depth_flags and not any(depth_flags)

    def test_unknown_plot_type_rejected(self, tmp_path):
        session = _session(tmp_path, [{"type": "volume_render"}])

        def prog(comm):
            lib = LibsimAdaptor(session_file=session)
            with pytest.raises(ConfigError):
                lib.initialize(comm)

        run_spmd(1, prog)

    _SLICE = {"type": "pseudocolor_slice"}
    #: name -> (session document, the field the error must name)
    MALFORMED = {
        "plot-not-object": ({"plots": ["pseudocolor_slice"]}, "plots[0]"),
        "resolution-short": ({"plots": [], "resolution": [100]}, "resolution"),
        "resolution-strings": ({"plots": [], "resolution": ["a", "b"]}, "resolution"),
        "resolution-nonpositive": ({"plots": [], "resolution": [0, -5]}, "resolution"),
        "resolution-float": ({"plots": [], "resolution": [64.5, 64]}, "resolution"),
        "axis-out-of-range": ({"plots": [{**_SLICE, "axis": 7}]}, "plots[0].axis"),
        "axis-bool": ({"plots": [{**_SLICE, "axis": True}]}, "plots[0].axis"),
        "index-string": ({"plots": [{**_SLICE, "index": "3"}]}, "plots[0].index"),
        "isovalues-strings": ({"plots": [_SLICE, _iso(["a"])]}, "plots[1].isovalues"),
        "isovalues-empty": ({"plots": [_iso([])]}, "plots[0].isovalues"),
        "isovalues-scalar": ({"plots": [_iso(0.5)]}, "plots[0].isovalues"),
        "isovalues-infinite": ({"plots": [_iso([float("inf")])]}, "plots[0].isovalues"),
        "isovalues-beyond-float": ({"plots": [_iso([10**400])]}, "plots[0].isovalues"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_session_rejected_at_initialize(self, tmp_path, case):
        """Every malformed field is a ConfigError naming it, raised when the
        session is parsed -- never an untyped error, never deferred to the
        first execute()."""
        doc, field = self.MALFORMED[case]
        session = tmp_path / "session.json"
        session.write_text(json.dumps(doc))

        def prog(comm):
            lib = LibsimAdaptor(session_file=session)
            with pytest.raises(ConfigError) as err:
                lib.initialize(comm)
            return str(err.value)

        assert field in run_spmd(1, prog)[0]

    def test_unknown_colormap_is_not_an_error(self, tmp_path):
        plot = {"type": "pseudocolor_slice", "colormap": "no-such-map"}
        session = _session(tmp_path, [plot])
        run_spmd(1, lambda comm: LibsimAdaptor(session_file=session).initialize(comm))

    def test_invalid_frequency(self, tmp_path):
        with pytest.raises(ValueError):
            LibsimAdaptor(session_file="x", frequency=0)


def _paper_size_pngs(comm, start=0.0, steps=2):
    """``steps`` steps from time ``start`` of the 64^3 oscillator through
    the Catalyst z-mid slice at the paper's 1920x1080; rank 0's PNG per
    step.  The second step paints into the first step's cleared partial."""
    sim = OscillatorSimulation(comm, (64, 64, 64), default_oscillators(), dt=0.1)
    sim.time = start
    bridge = Bridge(comm, sim.make_data_adaptor())
    cat = CatalystAdaptor(plane=SlicePlane(axis=2, index=32), resolution=(1920, 1080))
    bridge.add_analysis(cat)
    bridge.initialize()
    pngs = []
    for _ in range(steps):
        sim.run(1, bridge)
        pngs.append(cat.last_png)
    bridge.finalize()
    return pngs


#: CRC-32 of the two frames' decoded pixels, recorded from the serial PNGs
#: written before Catalyst reused its partial (a partial that is reused
#: without being cleared repeats the first step) and before sort-last.
_PAPER_SIZE_PIXEL_CRCS = [0xF8D947D4, 0xA0A9DFAF]

#: CRC-32 of the two PNGs, recorded when sort-last began writing each run
#: of repeated rows at least the deflate window long as one copy block
#: (the stretched 64^3 slice repeats 1016 of its 1080 rows).
_PAPER_SIZE_PNG_CRCS = [0xA91E177D, 0xB99C68F6]

#: CRC-32 of the PNG one step after each start time, recorded before
#: members after a copy block were primed with one row and one match: at
#: t = 5.6, and at t = 56.0 (step 560), where far more of the 258-byte
#: copies are one pixel back than on the first steps.
_LATE_PAPER_SIZE_PNG_CRCS = {5.5: 0xAB7010D7, 55.9: 0x122852CA}


@functools.lru_cache(maxsize=None)
def _paper_size_serial():
    return run_spmd(1, _paper_size_pngs, backend="thread")[0]


class TestCatalystPaperResolution:
    """The paper's "parallel image == serial image" at the paper's size; the
    small-viewport tests above never give a rank a box narrower than the
    frame or a node more than a few pixels, nor a frame of several PNG
    leaves."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4])
    def test_png_identical_across_ranks_and_backends(self, nranks, backend):
        # 3 ranks: binary_swap's non-power-of-two funnel.
        pngs = run_spmd(nranks, _paper_size_pngs, backend=backend)[0]
        assert pngs == _paper_size_serial()
        pixels = [decode_png(png) for png in pngs]
        assert pixels[-1].shape == (1080, 1920, 3)
        assert [zlib.crc32(p.tobytes()) for p in pixels] == _PAPER_SIZE_PIXEL_CRCS
        assert [zlib.crc32(png) for png in pngs] == _PAPER_SIZE_PNG_CRCS
        # Copy blocks cost at most 2 % over the thread-banded encoder's
        # bytes on the same 8 leaves.
        for png, p in zip(pngs, pixels):
            assert len(png) <= 1.02 * len(expected_png(p, 6))

    @pytest.mark.parametrize("nranks,backend", [(1, "thread"), (2, "thread"), (2, "process")])
    @pytest.mark.parametrize("start", sorted(_LATE_PAPER_SIZE_PNG_CRCS))
    def test_late_frame_png_pinned(self, start, nranks, backend):
        prog = functools.partial(_paper_size_pngs, start=start, steps=1)
        (png,) = run_spmd(nranks, prog, backend=backend)[0]
        assert zlib.crc32(png) == _LATE_PAPER_SIZE_PNG_CRCS[start]

    def test_members_after_a_copy_block_hash_one_row_and_one_match(self, monkeypatch):
        """Exact on any host: zlib is primed with the 32 KiB window only at
        a leaf's first member, and each of the 60 members per frame that
        follow a copy block with one 5 761-byte row and one 258-byte match.
        A frame's prime bytes fall from 63 x 32 KiB (2 064 384) to 459 444."""
        primes, compressobj = [], zlib.compressobj

        def spy(level, method, wbits, mem_level, strategy, zdict):
            primes.append(len(zdict))
            return compressobj(level, method, wbits, mem_level, strategy, zdict)

        monkeypatch.setattr(zlib, "compressobj", spy)
        run_spmd(1, _paper_size_pngs, backend="thread")
        short = 1920 * 3 + 1 + 258
        assert len(primes) == 2 * 64
        for frame in (primes[:64], primes[64:]):
            assert frame[0] == 0  # the frame's first row has nothing above it
            assert all(p in (short, _WINDOW) for p in frame[1:])
            assert frame.count(short) == 60 and frame.count(_WINDOW) == 3
            assert sum(frame) == 459_444 < 64 * _WINDOW // 4

    def test_root_gathers_compressed_bytes_not_pixels(self):
        """Rank 1 gathers its deflated half to rank 0, not the 4 MB of
        rgb + alpha its band holds (two steps)."""
        session = TraceSession()
        run_spmd(2, _paper_size_pngs, backend="thread", trace=session)
        gathered = session.recorder(1).total("mpi::gather::bytes")
        assert 0 < gathered < 2 * 0.02 * (540 * 1920 * 3)
