"""In situ infrastructure emulations (Sec. 2.2.3).

The paper studies four production infrastructures behind the SENSEI
interface; each is reproduced here as an :class:`~repro.core.AnalysisAdaptor`
with the cost structure the paper measures:

- :mod:`catalyst` -- ParaView Catalyst: filter pipelines + rendering with
  binary-swap compositing at 1920x1080, "Editions" that trade capability
  for footprint, serial PNG output on rank 0;
- :mod:`libsim` -- VisIt Libsim: session-file-driven visualization with a
  *per-rank* session parse at initialization (the Fig. 5 init overhead),
  direct-send compositing at 1600x1600, pseudocolor slices and isosurfaces;
- :mod:`adios` -- ADIOS with the FlexPath staging transport: a writer-side
  adaptor (``adios::advance`` / ``adios::analysis`` timings of Fig. 8) and
  an endpoint runner hosting any analysis adaptor in transit (Fig. 9),
  plus a BP-file mode;
- :mod:`glean` -- GLEAN-style aggregation: topology-aware many-to-few data
  staging for I/O acceleration, with optional asynchronous drain.
"""

from repro.infrastructure.catalyst import CatalystAdaptor, CatalystEdition, EDITIONS
from repro.infrastructure.libsim import LibsimAdaptor, write_session_file
from repro.infrastructure.adios import (
    AdiosBPAdaptor,
    AdiosFlexPathWriter,
    run_flexpath_job,
)
from repro.infrastructure.glean import GleanAdaptor

__all__ = [
    "CatalystAdaptor",
    "CatalystEdition",
    "EDITIONS",
    "LibsimAdaptor",
    "write_session_file",
    "AdiosBPAdaptor",
    "AdiosFlexPathWriter",
    "run_flexpath_job",
    "GleanAdaptor",
]
