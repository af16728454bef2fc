"""Separable oscillator field cache: trade memory for per-step time.

The miniapp's refill is O(m N^3) per rank per step (Sec. 3.3): every step
re-evaluates each oscillator's Gaussian footprint over the whole local
block.  But :meth:`Oscillator.evaluate` is separable,

    evaluate(x, y, z, t) = time_value(t) * gaussian(x, y, z),

and the Gaussian factor is time-invariant.  Stacking the m Gaussian basis
vectors once per rank turns each step's refill into a single BLAS
matrix-vector product::

    field.ravel() = basis @ [time_value_1(t), ..., time_value_m(t)]

which is the same space-time tradeoff libyt makes when it caches derived
fields across in situ invocations instead of recomputing them.  The cache
is opt-in and budgeted: the basis costs ``m * N^3 * 8`` bytes per rank,
which the paper's memory-footprint experiments (Figs. 4/7 methodology) must
see, so the basis registers with the per-rank
:class:`~repro.util.memory.MemoryTracker` under ``miniapp::kernel_cache``
and construction falls back (returns ``None``) when the basis would exceed
the configured byte budget.
"""

from __future__ import annotations

import numpy as np

from repro.miniapp.oscillator import Oscillator
from repro.util.memory import MemoryTracker

#: MemoryTracker label under which the stacked Gaussian basis is charged.
MEMORY_LABEL = "miniapp::kernel_cache"


class FieldKernelCache:
    """Precomputed ``(n_points, m)`` Gaussian basis for a fixed local block.

    Parameters
    ----------
    oscillators:
        The oscillator set; column ``j`` of the basis is oscillator ``j``'s
        Gaussian footprint over the block.
    x, y, z:
        Broadcastable local physical coordinate arrays (the simulation's
        precomputed ``_x/_y/_z``).
    memory:
        Optional per-rank tracker; the basis is charged on construction and
        released by :meth:`release`.
    """

    def __init__(
        self,
        oscillators: list[Oscillator],
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        memory: MemoryTracker | None = None,
    ) -> None:
        if not oscillators:
            raise ValueError("kernel cache requires at least one oscillator")
        self.oscillators = list(oscillators)
        # Column-per-oscillator layout keeps the hot matvec a contiguous
        # C-order GEMV: (n_points, m) @ (m,) -> (n_points,).
        cols = [osc.gaussian(x, y, z).reshape(-1) for osc in oscillators]
        self.basis = np.ascontiguousarray(np.stack(cols, axis=1))
        self._time_values = np.empty(len(oscillators), dtype=np.float64)
        self.memory = memory
        self._released = False
        if memory is not None:
            memory.allocate(self.basis.nbytes, label=MEMORY_LABEL)

    # -- sizing / budget ---------------------------------------------------
    @staticmethod
    def estimate_nbytes(n_points: int, n_oscillators: int) -> int:
        """Bytes the stacked basis would take, without building it."""
        return int(n_points) * int(n_oscillators) * 8

    @classmethod
    def build(
        cls,
        oscillators: list[Oscillator],
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        max_bytes: int | None = None,
        memory: MemoryTracker | None = None,
    ) -> "FieldKernelCache | None":
        """Build the cache, or return ``None`` when it would bust the budget.

        ``max_bytes=None`` means unbudgeted; callers treat ``None`` as "use
        the streaming O(m N^3) path instead".
        """
        shape = np.broadcast_shapes(x.shape, y.shape, z.shape)
        need = cls.estimate_nbytes(int(np.prod(shape)), len(oscillators))
        if max_bytes is not None and need > max_bytes:
            return None
        return cls(oscillators, x, y, z, memory=memory)

    @property
    def nbytes(self) -> int:
        return self.basis.nbytes

    @property
    def n_points(self) -> int:
        return self.basis.shape[0]

    # -- evaluation --------------------------------------------------------
    def time_values(self, t: float) -> np.ndarray:
        """The m per-oscillator time signals at ``t`` (reused buffer)."""
        for j, osc in enumerate(self.oscillators):
            self._time_values[j] = osc.time_value(t)
        return self._time_values

    def evaluate_into(self, t: float, out: np.ndarray) -> np.ndarray:
        """Fill flat ``out`` with the summed convolved field at time ``t``.

        ``out`` must be a contiguous float64 view of length ``n_points``
        (e.g. ``field.reshape(-1)``); no temporaries are allocated.
        """
        if out.shape != (self.n_points,):
            raise ValueError(
                f"out must be flat with {self.n_points} points, got {out.shape}"
            )
        np.dot(self.basis, self.time_values(t), out=out)
        return out

    def evaluate(self, t: float) -> np.ndarray:
        """Allocating convenience wrapper around :meth:`evaluate_into`."""
        return self.evaluate_into(t, np.empty(self.n_points, dtype=np.float64))

    # -- lifecycle ---------------------------------------------------------
    def release(self) -> None:
        """Return the basis' bytes to the tracker (idempotent)."""
        if self.memory is not None and not self._released:
            self.memory.free(self.basis.nbytes, label=MEMORY_LABEL)
        self._released = True
