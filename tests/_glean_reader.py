"""Read back one step of GLEAN's aggregator files, for round-trip checks.

Each file is an 8-byte little-endian index length, a JSON index of
``{rank, extent, dtype, offset, nbytes}`` records, then the raw blocks.
"""

import json
import os

import numpy as np

from repro.util.decomp import Extent


def read_glean_step(output_dir, step: int) -> dict[int, tuple[Extent, np.ndarray]]:
    """Every block of ``step``'s aggregator files, keyed by source rank."""
    out: dict[int, tuple[Extent, np.ndarray]] = {}
    prefix = f"glean_step{step:06d}_agg"
    for name in sorted(os.listdir(output_dir)):
        if not name.startswith(prefix):
            continue
        with open(os.path.join(output_dir, name), "rb") as fh:
            hlen = int.from_bytes(fh.read(8), "little")
            index = json.loads(fh.read(hlen).decode())
            base = 8 + hlen
            for rec in index:
                fh.seek(base + rec["offset"])
                extent = Extent(*rec["extent"])
                data = np.frombuffer(fh.read(rec["nbytes"]), dtype=np.dtype(rec["dtype"]))
                out[rec["rank"]] = (extent, data.reshape(extent.shape))
    return out
