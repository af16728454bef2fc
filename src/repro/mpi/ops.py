"""Reduction operations for the simulated MPI collectives.

Each op knows how to combine two values, where a value may be a Python
scalar, a numpy scalar, or a numpy array (combined elementwise).  Reductions
are applied left-to-right in rank order for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class ReduceOp:
    """A named, associative binary reduction operator."""

    name: str
    fn: Callable[[Any, Any], Any]

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def reduce(self, values: list[Any]) -> Any:
        """Fold ``values`` in order; requires at least one value."""
        if not values:
            raise ValueError(f"cannot {self.name}-reduce zero values")
        acc = values[0]
        for v in values[1:]:
            acc = self.fn(acc, v)
        return acc


def _sum(a, b):
    return np.add(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a + b


def _prod(a, b):
    return (
        np.multiply(a, b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        else a * b
    )


def _min(a, b):
    return (
        np.minimum(a, b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        else min(a, b)
    )


def _max(a, b):
    return (
        np.maximum(a, b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        else max(a, b)
    )


SUM = ReduceOp("sum", _sum)
PROD = ReduceOp("prod", _prod)
MIN = ReduceOp("min", _min)
MAX = ReduceOp("max", _max)
