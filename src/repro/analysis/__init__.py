"""In situ analysis methods (Sec. 3.3).

Each method exists in two forms, mirroring the paper's *Original* (direct
subroutine call) vs SENSEI-instrumented configurations:

- plain functions / classes operating on arrays + a communicator
  (:func:`parallel_histogram`, :class:`AutocorrelationState`), callable
  straight from a simulation loop; and
- :class:`~repro.core.adaptors.AnalysisAdaptor` wrappers
  (:class:`HistogramAnalysis`, :class:`AutocorrelationAnalysis`,
  :class:`SliceExtractAnalysis`) that consume a SENSEI data adaptor.

The pairing is what makes the Fig. 3/4 comparison (subroutine-called
autocorrelation vs SENSEI ``Autocorrelation``) an apples-to-apples test.
"""

from repro.analysis.histogram import (
    Histogram,
    HistogramAnalysis,
    local_histogram,
    parallel_histogram,
)
from repro.analysis.autocorrelation import (
    AutocorrelationAnalysis,
    AutocorrelationResult,
    AutocorrelationState,
)
from repro.analysis.slice_ import (
    SliceExtractAnalysis,
    SlicePlane,
    extract_axis_slice,
    gather_global_slice,
)
from repro.analysis.fields import (
    gradient_3d,
    vorticity_magnitude,
)
from repro.analysis.particles import (
    DensityProjectionAnalysis,
    FriendsOfFriendsAnalysis,
    PowerSpectrumAnalysis,
    friends_of_friends,
    halo_sizes,
)

__all__ = [
    "Histogram",
    "HistogramAnalysis",
    "local_histogram",
    "parallel_histogram",
    "AutocorrelationState",
    "AutocorrelationAnalysis",
    "AutocorrelationResult",
    "SlicePlane",
    "extract_axis_slice",
    "gather_global_slice",
    "SliceExtractAnalysis",
    "gradient_3d",
    "vorticity_magnitude",
    "DensityProjectionAnalysis",
    "PowerSpectrumAnalysis",
    "FriendsOfFriendsAnalysis",
    "friends_of_friends",
    "halo_sizes",
]
