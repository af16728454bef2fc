"""Unit tests for memory high-water accounting."""

import numpy as np
import pytest

from repro.util import MemoryTracker, sum_high_water


def test_allocate_free_tracks_current():
    m = MemoryTracker()
    m.allocate(100)
    m.allocate(50)
    assert m.current == 150
    m.free(100)
    assert m.current == 50


def test_peak_is_high_water_not_current():
    m = MemoryTracker()
    m.allocate(1000)
    m.free(900)
    assert m.current == 100
    assert m.peak == 1000


def test_baseline_counts_toward_peak():
    m = MemoryTracker(baseline_bytes=500)
    assert m.current == 500
    assert m.peak == 500


def test_negative_allocation_rejected():
    m = MemoryTracker()
    with pytest.raises(ValueError):
        m.allocate(-1)
    with pytest.raises(ValueError):
        m.free(-1)


def test_double_free_detected():
    m = MemoryTracker()
    m.allocate(10)
    with pytest.raises(RuntimeError):
        m.free(20)


def test_track_array_counts_owned_buffer():
    m = MemoryTracker()
    a = np.zeros(1000, dtype=np.float64)
    m.track_array(a)
    assert m.current == a.nbytes


def test_track_array_ignores_views_zero_copy():
    """Views register nothing -- the zero-copy accounting rule (Fig. 4)."""
    m = MemoryTracker()
    a = np.zeros(1000, dtype=np.float64)
    view = a[10:500]
    m.track_array(view)
    assert m.current == 0
    strided = a[::2]
    m.track_array(strided)
    assert m.current == 0


def test_named_labels_accumulate():
    m = MemoryTracker()
    m.allocate(10, label="grid")
    m.allocate(20, label="grid")
    m.allocate(5, label="hist")
    assert m.named("grid") == 30
    assert m.named("hist") == 5
    m.free(10, label="grid")
    assert m.named("grid") == 20


def test_add_static_raises_floor():
    m = MemoryTracker()
    m.add_static(1 << 20, label="edition")
    assert m.static == 1 << 20
    assert m.peak >= 1 << 20


def test_sum_high_water_across_ranks():
    trackers = [MemoryTracker() for _ in range(4)]
    for i, t in enumerate(trackers):
        t.allocate((i + 1) * 100)
        t.free((i + 1) * 100)
    assert sum_high_water(trackers) == 100 + 200 + 300 + 400


class TestAccountingGuards:
    def test_free_below_zero_raises_before_mutating(self):
        from repro.util import MemoryAccountingError

        m = MemoryTracker()
        m.allocate(100, label="grid")
        with pytest.raises(MemoryAccountingError):
            m.free(200, label="grid")
        # The failed free must not have corrupted the counters.
        assert m.current == 100
        assert m.named("grid") == 100

    def test_per_label_negative_balance_raises(self):
        """Total stays positive but the label itself would go negative."""
        from repro.util import MemoryAccountingError

        m = MemoryTracker()
        m.allocate(100, label="a")
        m.allocate(100, label="b")
        with pytest.raises(MemoryAccountingError):
            m.free(150, label="a")
        assert m.named("a") == 100 and m.named("b") == 100

    def test_error_message_includes_label_history(self):
        from repro.util import MemoryAccountingError

        m = MemoryTracker()
        m.allocate(64, label="hist::bins")
        m.free(64, label="hist::bins")
        with pytest.raises(MemoryAccountingError) as excinfo:
            m.free(64, label="hist::bins")
        msg = str(excinfo.value)
        assert "hist::bins" in msg
        assert "allocate" in msg and "free" in msg
        assert "64" in msg

    def test_accounting_error_is_runtime_error(self):
        from repro.util import MemoryAccountingError

        assert issubclass(MemoryAccountingError, RuntimeError)

    def test_history_is_bounded(self):
        m = MemoryTracker()
        for _ in range(100):
            m.allocate(8, label="loop")
            m.free(8, label="loop")
        assert len(m.history("loop")) <= 32

    def test_unknown_label_free_raises(self):
        from repro.util import MemoryAccountingError

        m = MemoryTracker()
        m.allocate(100)  # unlabeled
        with pytest.raises(MemoryAccountingError):
            m.free(10, label="never-allocated")
