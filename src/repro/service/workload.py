"""Deterministic synthetic tenant workloads.

The service acceptance contract compares per-tenant artifacts from a
socket-streamed run against the identical workload run in process, byte
for byte -- so the workload generator must be a pure function of (tenant
name, step, shape, seed).  The field is a pair of drifting Gaussian blobs
whose phase offsets derive from a blake2b hash of the tenant name: every
tenant gets a visibly distinct stream, with no RNG state to leak between
runs (the same counter-hash discipline as :func:`repro.faults.plan
.unit_draw`).
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterator

import numpy as np


def tenant_phase(tenant: str, seed: int = 0, salt: str = "") -> float:
    """A stable per-tenant phase in [0, 1)."""
    key = f"{seed}:{tenant}:{salt}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def synthetic_field(
    tenant: str,
    step: int,
    shape: tuple[int, int] = (64, 64),
    seed: int = 0,
) -> np.ndarray:
    """The tenant's field at ``step``: shape ``(nx, ny, 1)`` float64."""
    nx, ny = shape
    p0 = tenant_phase(tenant, seed, "x")
    p1 = tenant_phase(tenant, seed, "y")
    x = np.linspace(0.0, 1.0, nx).reshape(nx, 1)
    y = np.linspace(0.0, 1.0, ny).reshape(1, ny)
    t = 0.08 * step
    cx0 = 0.5 + 0.3 * math.sin(2.0 * math.pi * (p0 + t))
    cy0 = 0.5 + 0.3 * math.cos(2.0 * math.pi * (p1 + t))
    cx1 = 0.5 + 0.25 * math.cos(2.0 * math.pi * (p1 + 0.7 * t))
    cy1 = 0.5 + 0.25 * math.sin(2.0 * math.pi * (p0 + 0.7 * t))
    blob0 = np.exp(-(((x - cx0) ** 2) + ((y - cy0) ** 2)) / 0.02)
    blob1 = 0.6 * np.exp(-(((x - cx1) ** 2) + ((y - cy1) ** 2)) / 0.035)
    return np.ascontiguousarray((blob0 + blob1).reshape(nx, ny, 1))


def synthetic_steps(
    tenant: str,
    steps: int,
    shape: tuple[int, int] = (64, 64),
    seed: int = 0,
) -> Iterator[tuple[int, float, dict[str, np.ndarray]]]:
    """Yield ``(step, time, arrays)`` for a tenant's run, 0.01 time units
    apart -- the exact stream the CLI client, the benchmark, and the
    in-process equivalence runner all share."""
    for step in range(steps):
        yield step, step * 0.01, {
            "data": synthetic_field(tenant, step, shape, seed)
        }


def nbody_seed(tenant: str, seed: int = 0) -> int:
    """A stable per-tenant nbody IC seed (same counter-hash discipline
    as :func:`tenant_phase`, different codomain)."""
    key = f"{seed}:{tenant}:nbody".encode()
    digest = hashlib.blake2b(key, digest_size=4).digest()
    return int.from_bytes(digest, "big")


def nbody_steps(
    tenant: str,
    steps: int,
    grid: int = 16,
    seed: int = 0,
) -> Iterator[tuple[int, float, dict[str, np.ndarray]]]:
    """Yield the nbody miniapp's per-step density projections as a tenant
    stream: ``(step, time, {"data": (grid, grid, 1) float64})`` from 256
    particles.

    The whole trajectory is computed up front on a single simulated rank
    seeded per tenant (exact-integer deposits make it a pure function of
    the seed), then replayed as the same ``(step, time, arrays)`` tuples
    :func:`synthetic_steps` yields -- so an nbody tenant flows through the
    socket client, the server, and the in-process equivalence oracle with
    zero special-casing.
    """
    from repro.apps.nbody import NBodySimulation
    from repro.mpi import run_spmd

    ic_seed = nbody_seed(tenant, seed)

    def program(comm):
        sim = NBodySimulation(
            comm, grid=grid, n_particles=256, seed=ic_seed
        )
        frames = []
        for _ in range(steps):
            sim.advance()
            # Project the replicated exact density along x; keep the
            # (ny, nz, 1) layout every service consumer expects.
            frames.append(
                (sim.time, sim.density.sum(axis=0).reshape(grid, grid, 1))
            )
        return frames

    # Threads, one rank: deterministic, no subprocess spawn cost.
    frames = run_spmd(1, program, backend="thread")[0]
    for step, (sim_time, field) in enumerate(frames):
        yield step, sim_time, {"data": field}
