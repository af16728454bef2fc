"""Post hoc analysis driver.

Runs on the reader communicator (typically ~10% of the writer count).
Each reader claims a sub-extent of the global grid, reads only the stored
pieces overlapping it, and hands the block to the same analysis adaptors
the in situ and in transit placements run: the block is ingested into a
:class:`~repro.core.received.ReceivedDataAdaptor` as block ``comm.rank``,
and a :class:`~repro.core.bridge.Bridge` drives the analysis named by
configuration.  ``read`` and ``process`` are timed as Fig. 11 breaks them
out; an analysis writes its own products inside ``execute``, as it does in
situ.

The autocorrelation analysis keeps a per-cell window across steps, which is
the reason the paper's post hoc autocorrelation runs needed twice the nodes
("they need more memory to cache timesteps for the analysis") -- the
per-reader state is ``2 * window * cells_per_reader`` doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.histogram import Histogram
from repro.core.bridge import Bridge
from repro.core.configurable import configured_analyses
from repro.core.received import ReceivedDataAdaptor
from repro.storage.vtk_io import read_index, read_subextent, reader_extent
from repro.util.config import Configuration
from repro.util.timers import TimerRegistry


@dataclass
class PosthocResult:
    """One reader rank's outcome: timings and ``Bridge.finalize()``'s
    results keyed by analysis name (products live on reader rank 0)."""

    steps: int
    read_time: float
    process_time: float
    results: dict[str, object]

    @property
    def histograms(self) -> list[Histogram]:
        return self.results.get("HistogramAnalysis", [])


def run_posthoc_analysis(
    comm,
    directory,
    steps: list[int],
    analysis: str,
    timers: TimerRegistry | None = None,
    **config,
) -> PosthocResult:
    """Read stored steps and run the analysis registered as ``analysis``
    (``histogram``, ``autocorrelation``, ``catalyst``, ...) over them,
    built from ``{"type": analysis, **config}``."""
    entry = {"type": analysis, **config}
    timers = timers if timers is not None else TimerRegistry()
    adaptor = ReceivedDataAdaptor(comm, comm.size)
    bridge = Bridge(comm, adaptor, timers=timers)
    for configured in configured_analyses(Configuration({"analyses": [entry]})):
        bridge.add_analysis(configured)
    with timers.time("posthoc::process"):
        bridge.initialize()

    for step in steps:
        with timers.time("posthoc::read"):
            index = read_index(directory, step)
            mine = reader_extent(index.whole_extent, comm.size, comm.rank)
            block = read_subextent(directory, step, mine)
        adaptor.ingest(comm.rank, mine, {index.field: block}, index.whole_extent)
        with timers.time("posthoc::process"):
            bridge.execute(index.time, step)

    with timers.time("posthoc::process"):
        results = bridge.finalize()
    return PosthocResult(
        steps=len(steps),
        read_time=timers.total("posthoc::read"),
        process_time=timers.total("posthoc::process"),
        results=results,
    )
