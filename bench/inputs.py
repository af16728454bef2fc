"""Seed -> workload inputs.  The program under test never sees the seed.

Every generator is a pure function of the seed.  The spread of each input
is kept small on purpose: the seed varies *which* run this is, not how much
work a run does, so two seeds measure the same workload (PNG sizes and FoF
pair counts move by a few per cent, not by factors).
"""

from __future__ import annotations

import math
import random

#: The repository's three default oscillators (kind, centre, radius, omega,
#: zeta); the seed jitters centre, radius and frequency around them.  The
#: count is fixed at 3 because the miniapp's cost is linear in it.
_BASE_OSCILLATORS = (
    ("damped", (0.3, 0.3, 0.5), 0.2, 2.0 * math.pi, 0.1),
    ("decaying", (0.7, 0.7, 0.3), 0.15, 3.0, 0.0),
    ("periodic", (0.6, 0.2, 0.7), 0.1, 4.0 * math.pi, 0.0),
)


def oscillators(seed: int) -> list[tuple]:
    """Three ``(kind, centre, radius, omega, zeta)`` tuples."""
    rng = random.Random(f"osc:{seed}")
    out = []
    for kind, centre, radius, omega, zeta in _BASE_OSCILLATORS:
        out.append(
            (
                kind,
                tuple(c + rng.uniform(-0.02, 0.02) for c in centre),
                radius * rng.uniform(0.98, 1.02),
                omega * rng.uniform(0.98, 1.02),
                zeta,
            )
        )
    return out


def nbody_ic_seed(seed: int) -> int:
    """The initial-conditions seed handed to ``NBodySimulation``."""
    return random.Random(f"nbody:{seed}").getrandbits(31)


def tenant_phases(seed: int, tenant: str) -> tuple[float, float]:
    """Two phases that place a tenant's drifting blobs: a fixed pair per
    tenant name, jittered by the seed."""
    base = random.Random(f"tenant:{tenant}")
    rng = random.Random(f"tenant:{seed}:{tenant}")
    return (
        base.random() + rng.uniform(-0.01, 0.01),
        base.random() + rng.uniform(-0.01, 0.01),
    )


def tenant_frames(seed: int, tenant: str, count: int, shape: tuple[int, int]):
    """A ring of ``count`` float64 ``(nx, ny, 1)`` frames: two Gaussian
    blobs drifting on circles, one full period per ring so the ring can be
    replayed end to end without a jump."""
    import numpy as np

    p0, p1 = tenant_phases(seed, tenant)
    nx, ny = shape
    x = np.linspace(0.0, 1.0, nx).reshape(nx, 1)
    y = np.linspace(0.0, 1.0, ny).reshape(1, ny)
    frames = []
    for k in range(count):
        t = k / count
        cx0 = 0.5 + 0.3 * math.sin(2.0 * math.pi * (p0 + t))
        cy0 = 0.5 + 0.3 * math.cos(2.0 * math.pi * (p1 + t))
        cx1 = 0.5 + 0.25 * math.cos(2.0 * math.pi * (p1 + t))
        cy1 = 0.5 + 0.25 * math.sin(2.0 * math.pi * (p0 + t))
        blob0 = np.exp(-((x - cx0) ** 2 + (y - cy0) ** 2) / 0.02)
        blob1 = 0.6 * np.exp(-((x - cx1) ** 2 + (y - cy1) ** 2) / 0.035)
        frames.append(np.ascontiguousarray((blob0 + blob1).reshape(nx, ny, 1)))
    return frames
