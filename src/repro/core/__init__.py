"""The SENSEI generic data interface (the paper's primary contribution).

Three pieces, mirroring Fig. 1 of the paper:

- :class:`DataAdaptor` -- "provides a mapping between simulation data
  structures and the VTK data model".  A simulation registers its mesh and
  arrays once with :class:`SimulationDataAdaptor`, which exposes them
  *lazily*, so "when no analysis is enabled, the SENSEI instrumentation
  overhead is almost nonexistent"; :class:`ReceivedDataAdaptor` presents
  data that arrived by message.
- :class:`AnalysisAdaptor` -- "passes the data described in form of VTK data
  objects to any analysis code".  In situ methods (histogram,
  autocorrelation) and whole infrastructures (Catalyst, Libsim, ADIOS,
  GLEAN) are all analysis adaptors, which is what makes the *write once,
  use anywhere* chain work.
- :class:`Bridge` -- "a simple mechanism to assemble the analysis workflow":
  initialize adaptors, per step hand simulation state to the data adaptor
  and call execute on every analysis adaptor, then finalize.

:func:`configured_analyses` builds the analysis adaptors a configuration
names, for a :class:`Bridge` to add, standing in for SENSEI's XML-driven
analysis selection.
"""

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.core.bridge import Bridge
from repro.core.generic import SimulationDataAdaptor
from repro.core.received import ReceivedDataAdaptor
from repro.core.configurable import configured_analyses, register_analysis
from repro.core.steering import Frame, LiveConnection, SteeringAnalysis

__all__ = [
    "DataAdaptor",
    "AnalysisAdaptor",
    "Bridge",
    "SimulationDataAdaptor",
    "ReceivedDataAdaptor",
    "configured_analyses",
    "register_analysis",
    "LiveConnection",
    "SteeringAnalysis",
    "Frame",
]
