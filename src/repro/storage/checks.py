"""What the readers check before trusting a file they did not write."""

from __future__ import annotations

import numpy as np


class StorageFormatError(ValueError):
    """A stored file's header, index or body is malformed, truncated, or
    points outside its container."""


def stored_dims(value, what: str) -> tuple[int, int, int]:
    """``value`` as global point dimensions: three positive integers."""
    if (
        not isinstance(value, list)
        or len(value) != 3
        or not all(type(v) is int and v > 0 for v in value)
    ):
        raise StorageFormatError(f"{what} must be three positive integers: {value!r}")
    return (value[0], value[1], value[2])


def stored_dtype(name, what: str) -> np.dtype:
    """``name`` as a fixed-size numeric dtype (never object or void, which
    would have ``frombuffer`` interpret file bytes as pointers or nothing)."""
    try:
        # np.dtype(None) is float64, so a missing name must not reach it.
        dtype = np.dtype(name) if isinstance(name, str) else None
    except TypeError:
        dtype = None
    if dtype is None or dtype.kind not in "biufc":
        raise StorageFormatError(f"{what} is not a numeric dtype: {name!r}")
    return dtype
