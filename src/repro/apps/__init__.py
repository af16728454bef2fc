"""Science-application proxies (Sec. 4.2).

Three SENSEI-instrumented codes matching the paper's application studies:

- :mod:`phasta_proxy` -- PHASTA stand-in: an explicit flow proxy on an
  unstructured tetrahedral mesh; nodal coordinates and fields map zero-copy,
  connectivity is a full copy (the exact split Sec. 4.2.1 describes); its
  Catalyst output is a velocity-magnitude-colored slice PNG whose zlib
  compression is the measured bottleneck.
- :mod:`avf_leslie_proxy` -- AVF-LESLIE stand-in: a compressible
  finite-volume Euler solver (Rusanov fluxes, RK2) on a Cartesian grid
  simulating a temporally evolving planar mixing layer, with vorticity
  magnitude derived in the adaptor and a Libsim session of 3 isosurfaces +
  3 slice planes run every 5th step.
- :mod:`nyx_proxy` -- Nyx stand-in: perturbed-lattice initial conditions
  and a zero-copy, vtkGhostLevels-blanked overdensity slab over
  :mod:`nbody`'s particle-mesh engine, for in situ histogram + Catalyst
  slice -- the SENSEI side is what Sec. 4.2.3 measures, not the solver.

The proxies are not the production codes; they are cost- and
structure-faithful substitutes (see DESIGN.md's substitution table) whose
purpose is to exercise the identical SENSEI code paths the paper measures.

:mod:`nbody` rounds out the family with the variable-length workload
shape: a leapfrog particle-mesh miniapp whose per-rank particle counts
change every step as particles migrate between domain slabs, with
exact-integer deposits that keep analysis artifacts bit-identical across
rank counts and backends.
"""

from repro.apps.avf_leslie_proxy import AVFLeslieSimulation, mixing_layer_state
from repro.apps.phasta_proxy import PhastaSimulation, PhastaSliceRender
from repro.apps.nyx_proxy import NyxSimulation
from repro.apps.nbody import NBodyDataAdaptor, NBodySimulation, run_nbody

__all__ = [
    "AVFLeslieSimulation",
    "mixing_layer_state",
    "PhastaSimulation",
    "PhastaSliceRender",
    "NyxSimulation",
    "NBodySimulation",
    "NBodyDataAdaptor",
    "run_nbody",
]
