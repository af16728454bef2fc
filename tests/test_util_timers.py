"""Unit tests for the phase timer substrate."""

import time

import pytest

from repro.util import Timer, TimerRegistry, timed


def test_timer_accumulates_total_and_count():
    t = Timer("x")
    t.add(1.0)
    t.add(3.0)
    assert t.total == pytest.approx(4.0)
    assert t.count == 2
    assert t.mean == pytest.approx(2.0)
    assert t.min_time == pytest.approx(1.0)
    assert t.max_time == pytest.approx(3.0)


def test_timer_start_stop_measures_elapsed():
    with TimerRegistry().time("x") as t:
        time.sleep(0.01)
    assert t.count == 1
    assert t.total >= 0.005


def test_timer_double_start_raises():
    reg = TimerRegistry()
    with reg.time("x"):
        with pytest.raises(RuntimeError, match="already running"):
            with reg.time("x"):
                pass
    assert reg.timer("x").count == 1


def test_timer_stop_without_start_raises():
    with pytest.raises(RuntimeError, match="not running"):
        Timer("x")._stop()


def test_timer_keep_samples_records_each_call():
    t = Timer("x", keep_samples=True)
    t.add(0.5)
    t.add(1.5)
    assert t.samples == [0.5, 1.5]


def test_registry_returns_same_timer_for_name():
    reg = TimerRegistry()
    assert reg.timer("a") is reg.timer("a")
    assert reg.timer("a") is not reg.timer("b")


def test_registry_context_manager_times_block():
    reg = TimerRegistry()
    with reg.time("phase"):
        time.sleep(0.005)
    assert reg.total("phase") >= 0.003
    assert reg.timer("phase").count == 1


def test_registry_totals_for_missing_names_are_zero():
    reg = TimerRegistry()
    assert reg.total("never") == 0.0
    assert reg.mean("never") == 0.0


def test_registry_as_dict_roundtrips_values():
    reg = TimerRegistry()
    reg.add("a::b", 2.0)
    reg.add("a::b", 4.0)
    d = reg.as_dict()
    assert d["a::b"]["total"] == pytest.approx(6.0)
    assert d["a::b"]["count"] == 2
    assert d["a::b"]["mean"] == pytest.approx(3.0)


def test_registry_merge_sums_totals():
    a, b = TimerRegistry(), TimerRegistry()
    a.add("t", 1.0)
    b.add("t", 2.0)
    b.add("u", 5.0)
    a.merge_snapshot(b.as_dict())
    assert a.total("t") == pytest.approx(3.0)
    assert a.total("u") == pytest.approx(5.0)
    assert a.timer("t").count == 2


def test_timed_with_none_registry_is_noop():
    with timed(None, "x") as t:
        assert t is None


def test_timed_with_registry_records():
    reg = TimerRegistry()
    with timed(reg, "x"):
        pass
    assert reg.timer("x").count == 1


def test_registry_names_sorted():
    reg = TimerRegistry()
    reg.add("z", 1)
    reg.add("a", 1)
    assert reg.names() == ["a", "z"]


# -- lossless snapshots and merges (regressions) ------------------------------


def test_as_dict_includes_min_and_samples():
    reg = TimerRegistry(keep_samples=True)
    reg.add("t", 2.0)
    reg.add("t", 0.5)
    d = reg.as_dict()
    assert d["t"]["min"] == pytest.approx(0.5)
    assert d["t"]["max"] == pytest.approx(2.0)
    assert d["t"]["samples"] == [2.0, 0.5]


def test_as_dict_min_is_json_clean_for_unfired_timer():
    reg = TimerRegistry()
    reg.timer("never")  # created but never fired: min sentinel is +inf
    d = reg.as_dict()
    assert d["never"]["min"] == 0.0  # not inf -- must survive json.dumps
    import json

    json.dumps(d)


def test_merge_preserves_samples_from_sampling_peer():
    """Regression: merging a sample-keeping registry into a plain one used
    to drop the peer's samples because the receiving timer's keep_samples
    was False -- per-call data lost irrecoverably."""
    plain = TimerRegistry()
    sampling = TimerRegistry(keep_samples=True)
    sampling.add("t", 1.0)
    sampling.add("t", 2.0)
    plain.merge_snapshot(sampling.as_dict())
    assert plain.timer("t").samples == [1.0, 2.0]
    assert plain.timer("t").keep_samples is True


def test_snapshot_roundtrip_is_lossless():
    reg = TimerRegistry(keep_samples=True)
    reg.add("a", 0.25)
    reg.add("a", 0.75)
    reg.add("b", 3.0)
    reg.timer("never")
    back = TimerRegistry()
    back.merge_snapshot(reg.as_dict())
    for name in ("a", "b"):
        orig, rebuilt = reg.timer(name), back.timer(name)
        assert rebuilt.total == pytest.approx(orig.total)
        assert rebuilt.count == orig.count
        assert rebuilt.min_time == pytest.approx(orig.min_time)
        assert rebuilt.max_time == pytest.approx(orig.max_time)
    assert back.timer("a").samples == [0.25, 0.75]
    # The never-fired timer's 0.0 placeholder must not poison the restored
    # min sentinel: a later real sample still becomes the minimum.
    assert back.timer("never").count == 0
    back.add("never", 5.0)
    assert back.timer("never").min_time == pytest.approx(5.0)


def test_merge_snapshot_folds_min_max_across_snapshots():
    agg = TimerRegistry()
    r1, r2 = TimerRegistry(), TimerRegistry()
    r1.add("t", 2.0)
    r2.add("t", 0.5)
    agg.merge_snapshot(r1.as_dict())
    agg.merge_snapshot(r2.as_dict())
    t = agg.timer("t")
    assert t.count == 2
    assert t.min_time == pytest.approx(0.5)
    assert t.max_time == pytest.approx(2.0)
    assert t.total == pytest.approx(2.5)


def test_spmd_aggregation_roundtrip_preserves_min_and_samples():
    """4-rank job: each rank ships registry.as_dict() home; the aggregate
    must retain every rank's samples and the true cross-rank min/max."""
    from repro.mpi import run_spmd

    def prog(comm):
        reg = TimerRegistry(keep_samples=True)
        reg.add("phase", 1.0 + comm.rank)
        reg.add("phase", 0.1 * (comm.rank + 1))
        return reg.as_dict()

    snaps = run_spmd(4, prog)
    agg = TimerRegistry()
    for snap in snaps:
        agg.merge_snapshot(snap)
    t = agg.timer("phase")
    assert t.count == 8
    assert t.min_time == pytest.approx(0.1)
    assert t.max_time == pytest.approx(4.0)
    assert sorted(t.samples) == pytest.approx(
        sorted([1.0, 2.0, 3.0, 4.0, 0.1, 0.2, 0.3, 0.4])
    )
