"""Extreme-scale performance models.

The native runtime (:mod:`repro.mpi`) executes the real algorithms at 2-32
ranks; the paper's figures are at 812-1,048,576 ranks on Cori, Mira, and
Titan.  This package closes that gap with calibrated analytic/discrete-event
models that replay the same operation sequences at paper scale:

- :mod:`machine` -- platform descriptions (Cori Haswell/Aries/Lustre, Mira
  BG/Q/5-D torus/GPFS, Titan Gemini/Lustre);
- :mod:`network` -- point-to-point, tree-collective, and image-compositing
  cost functions (binary swap vs direct send, the Fig. 6 divergence);
- :mod:`iomodel` -- file-per-process vs collective shared-file write costs
  (Table 1), and post hoc read costs with Lustre variability (Fig. 11);
- :mod:`events` -- a discrete-event simulator for staged (in transit)
  pipelines where writer and endpoint overlap (Figs. 8-9);
- :mod:`miniapp_model` -- the oscillator study end to end (Figs. 3-12);
- :mod:`apps_model` -- PHASTA (Table 2), AVF-LESLIE (Figs. 15-16), and Nyx
  (Fig. 17);
- :mod:`calibrate` -- native micro-benchmarks that fit the per-element
  constants, so the model's small-scale predictions can be validated
  against real runs in this repository's test suite.
"""

from repro.perf.machine import CORI, MIRA, TITAN, MachineModel
from repro.perf.network import NetworkModel
from repro.perf.iomodel import IOModel

__all__ = [
    "MachineModel",
    "CORI",
    "MIRA",
    "TITAN",
    "NetworkModel",
    "IOModel",
]
