"""Parallel-filesystem cost models (Table 1, Fig. 10, Fig. 11).

Two write paths with distinct cost structures:

- **file-per-process** (the multi-file VTK path): data streams at the
  filesystem's aggregate bandwidth, but each of the P files pays a
  metadata-server create.  At 45K cores the metadata term dominates --
  123 GB moves in ~0.2 s at 700 GB/s, yet the paper measures 9.05 s; the
  missing ~8.8 s is ~45K file creates at ~0.2 ms each.  That term is what
  this model calibrates against Table 1.
- **collective shared-file** (MPI-IO subarray): extent-lock contention and
  limited striping pin throughput near a constant effective bandwidth
  (Table 1 implies ~5.2 GB/s on Cori at every scale).

Reads add multiplicative lognormal noise -- "significant variability in
read times on the NERSC Lustre system at scale" from shared I/O resources
and external interference (Fig. 11, citing Lofstead et al.).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.perf.machine import MachineModel


@dataclass(frozen=True)
class IOModel:
    machine: MachineModel

    # -- writes -------------------------------------------------------------
    def file_per_process_write(self, p: int, total_bytes: float) -> float:
        """One step's file-per-core write (the VTK I/O row of Table 1)."""
        transfer = total_bytes / self.machine.io_aggregate_bw
        metadata = p * self.machine.io_file_create
        return transfer + metadata

    def shared_file_write(self, p: int, total_bytes: float) -> float:
        """One step's collective MPI-IO write (Table 1's MPI-IO row)."""
        transfer = total_bytes / self.machine.io_shared_file_bw
        sync = 2.0 * self.machine.net_latency * math.ceil(math.log2(max(p, 2)))
        return transfer + sync

    # -- reads ----------------------------------------------------------------
    def read(
        self,
        p_readers: int,
        n_pieces: int,
        total_bytes: float,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Post hoc read of one step's file-per-process data.

        Readers are few (10% of writers), but every one of the
        ``n_pieces`` piece files still has to be opened -- the metadata
        load is set by how the data was *written*, which is what drives the
        5-10x-the-miniapp read costs at 45K (Fig. 11).  Transfer bandwidth
        for many smallish files is well below the streaming aggregate, and
        is also bounded by what the few reader nodes can ingest.
        Variability is multiplicative lognormal.
        """
        nodes = max(self.machine.nodes_for(p_readers), 1)
        client_bw = nodes * self.machine.net_bandwidth
        eff_bw = min(self.machine.io_aggregate_bw * 0.2, client_bw)
        base = (
            total_bytes / eff_bw
            + n_pieces * 0.42 * self.machine.io_file_create
        )
        if rng is not None:
            base *= float(
                np.exp(rng.normal(0.0, self.machine.io_variability_sigma))
            )
        return base

    def read_samples(
        self,
        p_readers: int,
        n_pieces: int,
        total_bytes: float,
        n: int,
        seed: int = 0,
    ) -> np.ndarray:
        """``n`` independent read-time samples (for variability studies)."""
        rng = np.random.default_rng(seed)
        return np.array(
            [self.read(p_readers, n_pieces, total_bytes, rng=rng) for _ in range(n)]
        )

    # -- burst buffer staging ---------------------------------------------------
    def burst_buffer_write(
        self,
        p: int,
        total_bytes: float,
        step_interval: float,
    ) -> tuple[float, bool]:
        """Per-step write cost through a burst buffer, with async drain.

        The paper's conclusion points at "burst buffers on Cori, to achieve
        accelerated staging operations".  The simulation pays only the
        absorb cost (``total_bytes`` at 1.7 TB/s) as long as the buffer
        drains to the parallel filesystem faster than steps arrive; once
        ``drain_time > step_interval`` the buffer fills and the write cost
        reverts to the filesystem-bound path.

        Returns ``(per_step_cost, drains_keep_up)``.
        """
        if step_interval <= 0:
            raise ValueError("step_interval must be positive")
        absorb = total_bytes / 1.7e12 + 2.0 * self.machine.net_latency
        drain = total_bytes / self.machine.io_aggregate_bw
        if drain <= step_interval:
            return absorb, True
        # Steady state: the buffer is full; writes proceed at drain rate.
        return max(absorb, drain - step_interval + absorb), False
