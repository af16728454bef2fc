"""Post hoc analysis driver.

Runs on the reader communicator (typically ~10% of the writer count).
Each reader claims a sub-extent of the global grid, reads only the stored
pieces overlapping it, and drives the selected analysis per step, timing
``read`` / ``process`` / ``write`` exactly as Fig. 11 is broken out.

The autocorrelation path keeps a per-cell window across steps, which is the
reason the paper's post hoc autocorrelation runs needed twice the nodes
("they need more memory to cache timesteps for the analysis") -- the
per-reader state here is ``2 * window * cells_per_reader`` doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.autocorrelation import AutocorrelationResult, AutocorrelationState
from repro.analysis.histogram import Histogram, parallel_histogram
from repro.render.colormap import VIRIDIS
from repro.render.compositing import binary_swap
from repro.render.png import encode_png
from repro.render.rasterize import rasterize_slice
from repro.storage.vtk_io import read_index, read_subextent, reader_extent
from repro.util.timers import TimerRegistry


@dataclass
class PosthocResult:
    """One reader rank's outcome."""

    steps: int
    read_time: float
    process_time: float
    write_time: float
    histograms: list[Histogram] = field(default_factory=list)
    autocorrelation: AutocorrelationResult | None = None
    slice_pngs: list[bytes] = field(default_factory=list)


def run_posthoc_analysis(
    comm,
    directory,
    steps: list[int],
    analysis: str,
    bins: int = 32,
    timers: TimerRegistry | None = None,
) -> PosthocResult:
    """Read stored steps and run ``analysis`` ('histogram',
    'autocorrelation' over a 4-step window keeping the top 3 cells, or a
    64x64 'slice' render of the k = 0 plane) over them.

    Returns per-rank timings; analysis products live on reader rank 0.
    """
    if analysis not in ("histogram", "autocorrelation", "slice"):
        raise ValueError(f"unknown post hoc analysis {analysis!r}")
    timers = timers if timers is not None else TimerRegistry()
    index = read_index(directory, steps[0])
    whole = index.whole_extent
    mine = reader_extent(whole, comm.size, comm.rank)
    result = PosthocResult(steps=len(steps), read_time=0.0, process_time=0.0, write_time=0.0)
    ac_state: AutocorrelationState | None = None
    slice_axis, slice_index, resolution = 2, 0, (64, 64)

    for step in steps:
        with timers.time("posthoc::read"):
            block = read_subextent(directory, step, mine)

        with timers.time("posthoc::process"):
            if analysis == "histogram":
                h = parallel_histogram(comm, block, bins)
                if h is not None:
                    result.histograms.append(h)
            elif analysis == "autocorrelation":
                if ac_state is None:
                    n_local = block.size
                    before = comm.exscan(n_local)
                    offset = 0 if before is None else int(before)
                    ac_state = AutocorrelationState(4, n_local, global_offset=offset)
                ac_state.update(block)
            else:  # slice
                u_ax, v_ax = [a for a in range(3) if a != slice_axis]
                lo = (mine.i0, mine.j0, mine.k0)[slice_axis]
                hi = (mine.i1, mine.j1, mine.k1)[slice_axis]
                wb = [
                    (whole.i0, whole.i1),
                    (whole.j0, whole.j1),
                    (whole.k0, whole.k1),
                ]
                global2d = (*wb[u_ax], *wb[v_ax])
                from repro.mpi import MAX, MIN

                vmin = comm.allreduce(float(block.min()), MIN)
                vmax = comm.allreduce(float(block.max()), MAX)
                if lo <= slice_index <= hi:
                    sel: list = [slice(None)] * 3
                    sel[slice_axis] = slice_index - lo
                    vals = block[tuple(sel)]
                    mb = [
                        (mine.i0, mine.i1),
                        (mine.j0, mine.j1),
                        (mine.k0, mine.k1),
                    ]
                    partial = rasterize_slice(
                        vals,
                        (*mb[u_ax], *mb[v_ax]),
                        global2d,
                        resolution[0],
                        resolution[1],
                        colormap=VIRIDIS,
                        vmin=vmin,
                        vmax=vmax,
                    )
                else:
                    from repro.render.rasterize import blank_image

                    partial = blank_image(*resolution)
                final = binary_swap(comm, partial)

        if analysis == "slice":
            with timers.time("posthoc::write"):
                if final is not None:
                    result.slice_pngs.append(encode_png(final.rgb))

    if analysis == "autocorrelation" and ac_state is not None:
        with timers.time("posthoc::process"):
            result.autocorrelation = ac_state.finalize(comm, 3)

    result.read_time = timers.total("posthoc::read")
    result.process_time = timers.total("posthoc::process")
    result.write_time = timers.total("posthoc::write")
    return result
