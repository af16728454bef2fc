"""repro: a reproduction of "Performance Analysis, Design Considerations,
and Applications of Extreme-scale In Situ Infrastructures" (SC 2016).

Top-level convenience re-exports cover the instrument-once workflow::

    from repro import Bridge, run_spmd
    from repro.analysis import HistogramAnalysis
    from repro.miniapp import OscillatorSimulation

See README.md for the architecture, DESIGN.md for the system inventory and
substitution table, and EXPERIMENTS.md for the per-table/figure
paper-vs-measured record.
"""

from repro.core import (
    AnalysisAdaptor,
    Bridge,
    DataAdaptor,
    SimulationDataAdaptor,
    LiveConnection,
    SteeringAnalysis,
)
from repro.mpi import Communicator, run_spmd

__version__ = "1.0.0"

__all__ = [
    "Bridge",
    "DataAdaptor",
    "AnalysisAdaptor",
    "SimulationDataAdaptor",
    "LiveConnection",
    "SteeringAnalysis",
    "Communicator",
    "run_spmd",
    "__version__",
]
