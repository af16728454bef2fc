"""Platform descriptions for the three machines in the paper.

Parameters are order-of-magnitude-correct public figures for the 2016-era
systems, then *calibrated against the paper's own measurements* where the
paper reports absolutes (Table 1 write times, Fig. 10 ratios, Table 2
PHASTA timings).  The point of the model is shape fidelity -- who wins, by
what factor, where the crossovers are -- not absolute-seconds fidelity on
hardware we do not have.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineModel:
    """Cost-model parameters for one HPC platform."""

    name: str
    cores_per_node: int
    #: Oscillator grid-point updates per second per core (one oscillator):
    #: the miniapp's compute rate, calibrated so the modeled per-step solver
    #: time matches the paper's implied ~0.4 s at ~308k points/core with 3
    #: oscillators (Fig. 10 discussion).
    elem_rate: float
    #: One-way small-message latency (s) and per-link bandwidth (B/s).
    net_latency: float
    net_bandwidth: float
    #: Aggregate parallel-filesystem bandwidth (B/s) for well-formed I/O.
    io_aggregate_bw: float
    #: Metadata-server cost to create one file (s); file-per-process writes
    #: pay p of these (serialized at the MDS) -- the term that makes the
    #: 45K-core write cost blow up in Table 1/Fig. 10.
    io_file_create: float
    #: Effective shared-file (collective MPI-IO) bandwidth (B/s); Table 1's
    #: MPI-IO column implies a near-constant ~5.2 GB/s on Cori with the
    #: recommended striping.
    io_shared_file_bw: float
    #: Lognormal sigma of I/O time variability ("significant variability in
    #: read times on the NERSC Lustre system at scale", Fig. 11).
    io_variability_sigma: float
    #: Rate of zlib DEFLATE on image bytes (B/s, single core) -- the serial
    #: PNG bottleneck of Table 2.
    zlib_rate: float
    #: Slowdown factor applied when analysis shares cores via hyperthreads
    #: (the ADIOS FlexPath co-scheduled deployment, Sec. 4.1.4).
    hyperthread_penalty: float = 1.15

    def nodes_for(self, cores: int) -> int:
        return (cores + self.cores_per_node - 1) // self.cores_per_node


#: NERSC Cori Phase I: Cray XC, 2x16-core Haswell/node, Aries dragonfly,
#: 30 PB Lustre at >700 GB/s (Sec. 4.1.1).
CORI = MachineModel(
    name="cori",
    cores_per_node=32,
    elem_rate=2.4e6,
    net_latency=1.5e-6,
    net_bandwidth=8.0e9,
    io_aggregate_bw=700.0e9,
    io_file_create=1.6e-4,
    io_shared_file_bw=5.2e9,
    io_variability_sigma=0.45,
    zlib_rate=25.0e6,
)

#: ALCF Mira: BlueGene/Q, 16 cores (4 HW threads each)/node, 5-D torus.
#: PHASTA runs 32-64 MPI ranks/node (Sec. 4.2.1); per-rank compute is slow
#: relative to Haswell.
MIRA = MachineModel(
    name="mira",
    cores_per_node=16,
    elem_rate=0.5e6,
    net_latency=2.5e-6,
    net_bandwidth=1.8e9,
    io_aggregate_bw=240.0e9,
    io_file_create=2.5e-4,
    io_shared_file_bw=3.0e9,
    io_variability_sigma=0.30,
    # Calibrated from the paper's own measurement: skipping PNG zlib
    # compression took the per-step in situ time from 4.03 s to 0.518 s
    # for a 2900x725 image (Sec. 4.2.1) => ~6.3 MB / ~3.5 s.
    zlib_rate=1.8e6,
)

#: OLCF Titan: Cray XK7, 16-core AMD/node, Gemini torus, Spider Lustre.
TITAN = MachineModel(
    name="titan",
    cores_per_node=16,
    elem_rate=1.2e6,
    net_latency=1.5e-6,
    net_bandwidth=4.0e9,
    io_aggregate_bw=240.0e9,
    io_file_create=2.0e-4,
    io_shared_file_bw=4.0e9,
    io_variability_sigma=0.40,
    zlib_rate=15.0e6,
)
