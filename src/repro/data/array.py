"""Multicomponent data arrays with explicit memory layout.

The key enabler of the paper's "negligible overhead" result (Figs. 3-4) is
that the data model can describe simulation memory *in place*: a
structure-of-arrays (SoA) field is a list of per-component 1-D arrays (each
possibly a strided view into simulation storage), an array-of-structures
(AoS) field is one interleaved ``(n, ncomp)`` array.  :class:`DataArray`
records which layout it wraps and whether any copy was taken, so tests and
the memory tracker can verify the zero-copy invariant mechanically.
"""

from __future__ import annotations

import enum
import zlib
from typing import Sequence

import numpy as np


class Layout(enum.Enum):
    """Memory layout of a multicomponent array."""

    SOA = "structure_of_arrays"
    AOS = "array_of_structures"


SOA = Layout.SOA
AOS = Layout.AOS


class DataArray:
    """A named, possibly multicomponent array over points or cells.

    Construct via :meth:`from_soa`, :meth:`from_aos`, or :meth:`from_numpy`.
    The constructor never copies; conversion methods (:meth:`as_aos`,
    :meth:`as_soa`) copy only when the requested layout differs from the
    stored one, and say so.
    """

    def __init__(self, name: str, components: list[np.ndarray], layout: Layout):
        if not components:
            raise ValueError("DataArray requires at least one component")
        n = components[0].shape[0]
        for c in components:
            if c.ndim != 1:
                raise ValueError("components must be 1-D arrays (or views)")
            if c.shape[0] != n:
                raise ValueError("components must have equal length")
        self.name = name
        self._components = components
        self.layout = layout
        #: Original interleaved array when built via :meth:`from_aos`; lets
        #: :meth:`as_aos` hand back the simulation's buffer without a copy.
        self._aos_base: np.ndarray | None = None
        #: Bytes copied while *constructing* this array (0 for the zero-copy
        #: constructors; ``nbytes`` for :meth:`deep_copy` results).
        self._construction_copied: int = 0
        #: Bytes copied by layout conversions (:meth:`as_aos` on SoA data)
        #: since construction.
        self._conversion_copied: int = 0
        #: True for arrays produced by :meth:`readonly_view` -- the
        #: sanitizer's write-protected hand-off mode.
        self._guarded = False

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_soa(cls, name: str, components: Sequence[np.ndarray]) -> "DataArray":
        """Wrap per-component arrays (zero-copy; views allowed)."""
        return cls(name, [np.asarray(c) for c in components], SOA)

    @classmethod
    def from_aos(cls, name: str, interleaved: np.ndarray) -> "DataArray":
        """Wrap an interleaved ``(n, ncomp)`` array (zero-copy column views)."""
        a = np.asarray(interleaved)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2:
            raise ValueError("AoS array must be 1-D or 2-D")
        arr = cls(name, [a[:, i] for i in range(a.shape[1])], AOS)
        arr._aos_base = a
        return arr

    @classmethod
    def from_numpy(cls, name: str, array: np.ndarray) -> "DataArray":
        """Wrap a scalar field of any shape as a flat single-component view.

        ``array`` is flattened with ``reshape(-1)``, which is a view for
        contiguous input -- the common case for simulation grids.
        """
        a = np.asarray(array)
        flat = a.reshape(-1)
        arr = cls(name, [flat], SOA)
        if a.size and not np.shares_memory(flat, a):
            # reshape of non-contiguous input copies; record it honestly so
            # is_zero_copy stays a mechanical truth, not an assumption.
            arr._construction_copied = flat.nbytes
        return arr

    # -- introspection --------------------------------------------------------
    @property
    def num_components(self) -> int:
        return len(self._components)

    @property
    def num_tuples(self) -> int:
        return self._components[0].shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self._components[0].dtype

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self._components)

    def is_zero_copy_of(self, owner: np.ndarray) -> bool:
        """True if every component shares memory with ``owner``."""
        return all(np.shares_memory(c, owner) for c in self._components)

    @property
    def is_zero_copy(self) -> bool:
        """True if constructing this array copied no simulation bytes.

        Constructors (:meth:`from_soa`, :meth:`from_aos`, :meth:`from_numpy`
        on contiguous input) never copy, so this is normally True;
        :meth:`deep_copy` results and :meth:`from_numpy` over non-contiguous
        input report False.  Conversion copies (:meth:`as_aos` on SoA data)
        are tracked separately in :attr:`nbytes_copied`.
        """
        return self._construction_copied == 0

    @property
    def nbytes_copied(self) -> int:
        """Total bytes this array has copied: at construction plus every
        layout-conversion copy performed so far.  The mechanical check
        behind the paper's zero-copy mapping claim (Sec. 3.2)."""
        return self._construction_copied + self._conversion_copied

    @property
    def writeable(self) -> bool:
        """True if every component accepts in-place writes."""
        return all(c.flags.writeable for c in self._components)

    @property
    def guarded(self) -> bool:
        """True for write-protected views produced by :meth:`readonly_view`."""
        return self._guarded

    def readonly_view(self) -> "DataArray":
        """A zero-copy, write-protected view of this array.

        The sanitizer hands these to analyses in debug mode: any in-place
        write through the view raises ``ValueError`` at the write site.
        NumPy cannot prevent a determined caller from re-enabling the
        writeable flag, which is why the sanitizer also fingerprints the
        underlying buffers (:meth:`fingerprint`) as a backstop.
        """
        comps = []
        for c in self._components:
            v = c.view()
            v.flags.writeable = False
            comps.append(v)
        out = DataArray(self.name, comps, self.layout)
        if self._aos_base is not None:
            base = self._aos_base.view()
            base.flags.writeable = False
            out._aos_base = base
        out._guarded = True
        return out

    def slice_tuples(self, start: int, stop: int) -> "DataArray":
        """A zero-copy view over the tuple range ``[start, stop)``.

        This is how per-rank slices of a ragged particle population are
        handed to analyses: every component (and the AoS base, when one
        exists) is a strided view of the parent's storage, so
        :attr:`is_zero_copy` stays True, :meth:`is_zero_copy_of` holds
        against the original simulation buffer, and the write-protected
        state of guarded parents survives slicing.  An empty range is
        valid -- a rank that owns zero particles slices ``[n, n)``.
        """
        start, stop, _ = slice(start, stop).indices(self.num_tuples)
        out = DataArray(
            self.name, [c[start:stop] for c in self._components], self.layout
        )
        if self._aos_base is not None:
            out._aos_base = self._aos_base[start:stop]
        # Slicing itself never copies, but a slice of a copied buffer is
        # still backed by copied bytes -- report that honestly.
        if self._construction_copied:
            out._construction_copied = out.nbytes
        out._guarded = self._guarded
        return out

    def fingerprint(self) -> int:
        """A content fingerprint (CRC-32 over components, shape, dtype).

        Cheap enough for debug-mode per-step checks; collisions are
        possible but vanishingly unlikely for accidental mutations.
        """
        h = 0
        for c in self._components:
            h = zlib.crc32(repr((c.shape, str(c.dtype))).encode(), h)
            h = zlib.crc32(c.tobytes(), h)
        return h

    # -- access ---------------------------------------------------------------
    def component(self, i: int) -> np.ndarray:
        return self._components[i]

    @property
    def values(self) -> np.ndarray:
        """The single component of a scalar array."""
        if self.num_components != 1:
            raise ValueError(
                f"{self.name!r} has {self.num_components} components; "
                "use component(i) or as_aos()"
            )
        return self._components[0]

    def as_aos(self) -> np.ndarray:
        """Interleaved ``(n, ncomp)`` array; copies iff stored as SoA."""
        if self._aos_base is not None:
            return self._aos_base
        out = np.column_stack(self._components)
        self._conversion_copied += out.nbytes
        return out

    def as_soa(self) -> list[np.ndarray]:
        """Per-component arrays; never copies (columns are views for AoS)."""
        return list(self._components)

    def magnitude(self) -> np.ndarray:
        """Euclidean norm across components (e.g. velocity magnitude)."""
        if self.num_components == 1:
            return np.abs(self._components[0])
        sq = self._components[0].astype(np.float64) ** 2
        for c in self._components[1:]:
            sq += c.astype(np.float64) ** 2
        return np.sqrt(sq)

    def deep_copy(self) -> "DataArray":
        """An owning copy (the ablation counterpart to zero-copy mapping)."""
        out = DataArray(self.name, [c.copy() for c in self._components], self.layout)
        out._construction_copied = out.nbytes
        return out

    def min(self) -> float:
        """Smallest value across components; ``+inf`` when empty.

        The infinity sentinels mirror the empty-rank convention of the
        parallel reductions (a rank owning zero particles contributes the
        identity), so ragged views feed straight into min/max collectives.
        """
        if self.num_tuples == 0:
            return float("inf")
        return float(min(c.min() for c in self._components))

    def max(self) -> float:
        """Largest value across components; ``-inf`` when empty."""
        if self.num_tuples == 0:
            return float("-inf")
        return float(max(c.max() for c in self._components))

    def __len__(self) -> int:
        return self.num_tuples

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataArray({self.name!r}, n={self.num_tuples}, "
            f"ncomp={self.num_components}, layout={self.layout.name}, "
            f"dtype={self.dtype})"
        )
