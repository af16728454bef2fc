"""Persistent-storage paths: the *post hoc* side of the study.

The paper compares in situ against the traditional write-then-read workflow
(Sec. 4.1.5): "a file-per-core VTK I/O, which should be faster, than a more
traditional, but slower, MPI-IO approach (see Table 1)".  Both paths are
implemented for real here:

- :mod:`vtk_io` -- file-per-process block files plus a root-written index
  (the ``.vti``/``.pvti`` pattern), with a reader that lets *fewer* ranks
  read the data back (the 10%-of-cores post hoc configuration of Fig. 11);
- :mod:`mpiio` -- a collective shared-file writer that lays the global
  array out in canonical C order, which forces the strided row-at-a-time
  writes that make the shared-file path slower (Table 1);
- :mod:`bp` -- an ADIOS-BP-style self-describing container (per-rank data
  subfiles + root metadata index) used by the ADIOS analysis adaptor's
  "save to a BP file" mode.
"""

from repro.storage.checks import StorageFormatError
from repro.storage.vtk_io import (
    VTKIndex,
    VTKPiece,
    read_index,
    read_subextent,
    write_block,
    write_timestep,
)
from repro.storage.mpiio import mpiio_read_block, mpiio_write_collective
from repro.storage.bp import BPFile, BPReader, BPWriter

__all__ = [
    "write_block",
    "write_timestep",
    "read_index",
    "read_subextent",
    "VTKIndex",
    "VTKPiece",
    "mpiio_write_collective",
    "mpiio_read_block",
    "BPWriter",
    "BPReader",
    "BPFile",
    "StorageFormatError",
]
