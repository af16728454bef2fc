"""Ablation: PNG zlib compression level (the Table 2 bottleneck knob),
and where the deflate runs.

"We determined that the ZLIB compression time in generating the PNG file
was the culprit" -- skipping compression took the 8-process toy problem
from 4.03 s to 0.518 s per step.  This ablation sweeps the real encoder's
compression level over a rendered frame and reports time and size; the
modeled effect on the PHASTA IS2 run is asserted in tier-1
(``TestPhastaTable2``).  The sort-last row spreads the same deflate over
the ranks that hold the composited rows, as Catalyst does
(``sort_last_png``).
"""

import time

import numpy as np

from repro.mpi import run_spmd
from repro.render import VIRIDIS, decode_png, encode_png
from repro.render.compositing import band_rows
from repro.render.png import sort_last_png

H, W = 362, 1450  # half the IS2/IS3 image, to keep native sweeps quick


def _frame(h=H, w=W):
    """A realistic pseudocolored frame (smooth field + noise)."""
    rng = np.random.default_rng(0)
    y, x = np.mgrid[0:h, 0:w]
    field = np.sin(x / 40.0) * np.cos(y / 25.0) + 0.1 * rng.standard_normal((h, w))
    return VIRIDIS.map(field)


FRAME = _frame()


def test_ablation_level_sweep(best_of):
    """Level 0 stores (larger than the frame) and is faster than level 6,
    which compresses; higher levels trade time for size.  Best of two
    encodes per level."""
    times, sizes = {}, {}
    for level in (0, 1, 3, 6, 9):
        sizes[level] = len(encode_png(FRAME, level))
        times[level] = best_of(lambda: encode_png(FRAME, level), 2)
        print(f"level {level}: {times[level] * 1e3:8.2f} ms  {sizes[level] / 1024:9.1f} KiB")
    assert sizes[0] > FRAME.nbytes > sizes[6]
    assert times[0] < times[6]
    assert sizes[9] <= sizes[1] <= sizes[0]


def _catalyst_slice_frame():
    """The bench's Catalyst frame: the 64^3 oscillator's z-mid slice at
    1920x1080, one step on one rank.  Stretched from 64 rows to 1080, it
    repeats 1016 of its scanlines."""
    from repro.analysis.slice_ import SlicePlane
    from repro.core import Bridge
    from repro.infrastructure import CatalystAdaptor
    from repro.miniapp import OscillatorSimulation
    from repro.miniapp.oscillator import default_oscillators

    def program(comm):
        sim = OscillatorSimulation(comm, (64, 64, 64), default_oscillators(), dt=0.1)
        bridge = Bridge(comm, sim.make_data_adaptor())
        cat = CatalystAdaptor(SlicePlane(2, 32), resolution=(1920, 1080))
        bridge.add_analysis(cat)
        bridge.initialize()
        sim.run(1, bridge)
        bridge.finalize()
        return decode_png(cat.last_png)

    return run_spmd(1, program)[0]


def _sort_last_timed(frame, nranks, level):
    """Rank 0's median of five sort-last encodes of ``frame`` on ``nranks``
    thread ranks, each holding the rows binary swap leaves it, and the PNG."""
    h = frame.shape[0]

    def prog(comm):
        rounds = comm.size.bit_length() - 1
        lo, hi = band_rows(h, comm.rank, rounds)
        times, blob = [], None
        for _ in range(5):
            comm.barrier()
            t0 = time.perf_counter()
            blob = sort_last_png(comm, frame[lo:hi], lo, h, level)
            times.append(time.perf_counter() - t0)
        return sorted(times)[2], blob

    return run_spmd(nranks, prog)[0]


def test_ablation_sort_last_ranks():
    """Rank 0's wall time for one 1920x1080 PNG when every rank deflates the
    rows binary swap left it (the serial encoder on one rank for scale), on
    a noisy frame and on the Catalyst slice frame, whose runs of repeated
    rows sort-last writes as copy blocks; then the sizes at levels 1, 6
    and 9.  Thread ranks: zlib releases the GIL, so the speed-up is bounded
    by the host's free cores, which this row reports rather than asserts."""
    rows = []
    frames = {"noisy": _frame(1080, 1920), "catalyst slice": _catalyst_slice_frame()}
    for name, frame in frames.items():
        t0 = time.perf_counter()
        serial = encode_png(frame, 6)
        serial_s = time.perf_counter() - t0
        rows.append(
            f"{name}, serial encode_png: {serial_s * 1e3:8.2f} ms  "
            f"{len(serial) / 1024:9.1f} KiB"
        )
        blobs = set()
        for nranks in (1, 2, 4):
            seconds, blob = _sort_last_timed(frame, nranks, 6)
            blobs.add(blob)
            rows.append(
                f"{name}, sort-last, {nranks} rank(s): {seconds * 1e3:8.2f} ms  "
                f"{len(blob) / 1024:9.1f} KiB"
            )
        # One file whatever the rank count, and it decodes to the frame.
        assert len(blobs) == 1
        blob = blobs.pop()
        assert np.array_equal(decode_png(blob), frame)
        for level in (1, 6, 9):
            size = len(_sort_last_timed(frame, 2, level)[1])
            rows.append(
                f"{name}, level {level}: serial {len(encode_png(frame, level)):8d} B"
                f"  sort-last {size:8d} B"
            )
        if name == "noisy":
            # No run of repeated rows: within 2 % of the serial stream.
            assert len(blob) < 1.02 * len(serial)
    print("\nSort-last PNG over thread ranks (1920x1080 RGB)", *rows, sep="\n")
