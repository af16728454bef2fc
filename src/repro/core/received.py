"""The data adaptor of an analysis that runs somewhere the data was *sent*.

In transit the analysis does not see simulation memory: the FlexPath
endpoint receives its writers' blocks over the staging transport, and a
service tenant's endpoint receives one block per STEP frame.  Both then run
"the same analyses through the same interface" (Sec. 4.1.4), so both
re-present what arrived through this one :class:`DataAdaptor`.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptors import DataAdaptor
from repro.data import Association, DataArray, ImageData, MultiBlockDataset
from repro.util.decomp import Extent


class ReceivedDataAdaptor(DataAdaptor):
    """Received blocks as a SENSEI data adaptor.

    ``get_mesh`` exposes a :class:`MultiBlockDataset` of ``n_blocks``
    *global* blocks (local blocks are the ones ingested this step, each an
    :class:`ImageData` with its arrays attached -- what Catalyst consumes);
    ``get_array`` exposes one named array across the local blocks in block
    order -- what histogram/autocorrelation consume.  A single local block
    is handed through as received; only several blocks are concatenated.
    """

    def __init__(self, comm, n_blocks: int = 1) -> None:
        super().__init__(comm)
        self.n_blocks = n_blocks
        self._blocks: dict[int, ImageData] = {}

    def ingest(
        self,
        block: int,
        extent: Extent,
        arrays: dict[str, np.ndarray],
        whole_extent: Extent | None = None,
    ) -> None:
        img = ImageData(extent, whole_extent=whole_extent)
        for name, values in arrays.items():
            img.add_point_array(DataArray.from_numpy(name, values))
        self._blocks[block] = img

    def get_mesh(self) -> MultiBlockDataset:
        mb = MultiBlockDataset(self.n_blocks)
        for block, img in self._blocks.items():
            mb.set_block(block, img)
        return mb

    def _names(self, association: Association) -> list[str]:
        return sorted(
            {n for img in self._blocks.values() for n in img.array_names(association)}
        )

    def get_array(self, association: Association, name: str) -> DataArray:
        found = [
            img.get_array(association, name)
            for _, img in sorted(self._blocks.items())
            if img.has_array(association, name)
        ]
        if not found:
            raise KeyError(f"no received {association.value} array named {name!r}")
        if len(found) == 1:
            return found[0]
        return DataArray.from_numpy(name, np.concatenate([a.values for a in found]))

    def get_number_of_arrays(self, association: Association) -> int:
        return len(self._names(association))

    def get_array_name(self, association: Association, index: int) -> str:
        return self._names(association)[index]

    def release_data(self) -> None:
        self._blocks.clear()
