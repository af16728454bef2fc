"""Hot-path microbenchmarks: the three costs the acceleration layer attacks.

The paper's cost story is (1) the miniapp's O(m N^3) per-step refill
(Sec. 3.3), (2) rank 0's serial zlib/PNG encode (Table 2), and (3)
compositing's per-round buffer churn (Sec. 4.1.3).  Each benchmark here
times the naive path against its accelerated counterpart and appends a
machine-readable record to ``BENCH_hotpaths.json`` at the repo root so
future PRs can track the perf trajectory::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_hotpaths.py -s

Speedup assertions are calibrated to the hardware actually present: the
parallel deflate needs real cores to win wall-clock (zlib releases the GIL,
but a 1-CPU container serializes the pool), so its >= 2x gate only applies
when >= 4 CPUs are available; the measured speedup and CPU count are always
recorded.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from repro.miniapp.oscillator import default_oscillators
from repro.mpi import SUM, run_spmd
from repro.render import VIRIDIS, blank_image, decode_png, encode_png
from repro.render.compositing import (
    FramebufferPool,
    binary_swap,
    composite_over,
    composite_over_into,
)
from repro.util.memory import MemoryTracker

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_hotpaths.json")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _record(section: str, payload: dict) -> None:
    """Merge one benchmark's results into BENCH_hotpaths.json."""
    doc: dict = {}
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["meta"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": _cpus(),
    }
    doc[section] = payload
    with open(BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- 1. separable oscillator kernel cache -------------------------------------


def test_kernel_cache_speedup(report):
    """advance() with the cached Gaussian basis vs the streaming refill.

    Acceptance target: >= 5x on a 64^3 grid with the 3 default oscillators.
    """
    dims = (64, 64, 64)
    oscs = default_oscillators()

    def prog(comm):
        from repro.miniapp import OscillatorSimulation

        streaming = OscillatorSimulation(comm, dims, oscs, dt=0.01)
        mem = MemoryTracker()
        cached = OscillatorSimulation(
            comm, dims, oscs, dt=0.01, kernel_cache=True, memory=mem
        )
        assert cached.use_kernel_cache
        t_stream = _best_of(streaming.advance, 5)
        t_cached = _best_of(cached.advance, 5)
        # Walk both to a common step and compare fields.
        while streaming.step < cached.step:
            streaming.advance()
        while cached.step < streaming.step:
            cached.advance()
        np.testing.assert_allclose(
            cached.field, streaming.field, rtol=1e-12, atol=1e-300
        )
        return t_stream, t_cached, mem.named("miniapp::kernel_cache")

    t_stream, t_cached, basis_bytes = run_spmd(1, prog)[0]
    speedup = t_stream / t_cached
    _record(
        "kernel_cache",
        {
            "grid": list(dims),
            "oscillators": len(oscs),
            "streaming_s_per_step": t_stream,
            "cached_s_per_step": t_cached,
            "speedup": speedup,
            "basis_bytes": basis_bytes,
        },
    )
    report(
        "perf_kernel_cache",
        "separable kernel cache, 64^3 x 3 oscillators",
        [
            f"streaming: {t_stream * 1e3:8.3f} ms/step",
            f"cached:    {t_cached * 1e3:8.3f} ms/step  ({speedup:.1f}x)",
            f"basis:     {basis_bytes / 2**20:.1f} MiB tracked",
        ],
    )
    assert basis_bytes == 64 * 64 * 64 * 3 * 8
    assert speedup >= 5.0, f"kernel cache speedup {speedup:.2f}x below 5x target"


# -- 2. parallel chunked PNG deflate ------------------------------------------

PNG_WORKERS = 4


def _frame_2048() -> np.ndarray:
    rng = np.random.default_rng(0)
    y, x = np.mgrid[0:2048, 0:2048]
    field = np.sin(x / 40.0) * np.cos(y / 25.0)
    field += 0.1 * rng.standard_normal((2048, 2048))
    return VIRIDIS.map(field)


def test_png_parallel_deflate_speedup(report):
    """Serial rank-0 encoder vs pigz-style chunked deflate, level 6.

    Acceptance target: >= 2x with 4 workers at the same compression level
    -- gated on actually having >= 4 CPUs; a 1-CPU container cannot win
    wall-clock from a thread pool, and the honest number is recorded.
    """
    frame = _frame_2048()
    level = 6
    t_serial = _best_of(lambda: encode_png(frame, level), 3)
    t_parallel = _best_of(
        lambda: encode_png(frame, level, workers=PNG_WORKERS), 3
    )
    serial_blob = encode_png(frame, level)
    parallel_blob = encode_png(frame, level, workers=PNG_WORKERS)
    # Both paths must decode to identical pixels (stitched zlib stream).
    assert np.array_equal(decode_png(parallel_blob), decode_png(serial_blob))
    speedup = t_serial / t_parallel
    cpus = _cpus()
    _record(
        "png_parallel_deflate",
        {
            "image": [2048, 2048, 3],
            "compression_level": level,
            "workers": PNG_WORKERS,
            "serial_s": t_serial,
            "parallel_s": t_parallel,
            "speedup": speedup,
            "serial_bytes": len(serial_blob),
            "parallel_bytes": len(parallel_blob),
            "size_overhead": len(parallel_blob) / len(serial_blob) - 1.0,
            "target_speedup": 2.0,
            "target_gated_on_cpus": 4,
        },
    )
    report(
        "perf_png_deflate",
        f"PNG deflate 2048x2048 RGB level {level} ({cpus} CPUs)",
        [
            f"serial:   {t_serial * 1e3:8.1f} ms  {len(serial_blob) / 1024:9.1f} KiB",
            f"{PNG_WORKERS} workers: {t_parallel * 1e3:8.1f} ms  "
            f"{len(parallel_blob) / 1024:9.1f} KiB  ({speedup:.2f}x)",
        ],
    )
    # Chunking + zdict priming must cost < 2% size at any core count.
    assert len(parallel_blob) < 1.02 * len(serial_blob)
    if cpus >= 4:
        assert speedup >= 2.0, f"parallel deflate {speedup:.2f}x below 2x target"
    elif cpus >= 2:
        assert speedup >= 1.2, f"parallel deflate {speedup:.2f}x on {cpus} CPUs"
    else:
        # Single CPU: the pool serializes; only bound the chunking overhead.
        assert speedup >= 0.5, f"chunked deflate overhead too high: {speedup:.2f}x"


# -- 3. zero-alloc compositing ------------------------------------------------


def test_compositing_zero_alloc(report):
    """In-place composite + pooled framebuffers vs the allocating path."""
    h, w = 1080, 1920
    rng = np.random.default_rng(2)
    front = blank_image(w, h)
    front.rgb[: h // 2] = rng.integers(0, 256, (h // 2, w, 3), dtype=np.uint8)
    front.alpha[: h // 2] = 255
    back = blank_image(w, h)
    back.rgb[h // 4 :] = rng.integers(0, 256, (3 * h // 4, w, 3), dtype=np.uint8)
    back.alpha[h // 4 :] = 255

    t_alloc = _best_of(lambda: composite_over(front, back), 5)
    scratch = back.copy()
    t_inplace = _best_of(lambda: composite_over_into(front, scratch, out=scratch), 5)
    op_speedup = t_alloc / t_inplace

    # Pooled binary swap across 8 simulated ranks, repeated frames: after
    # the first frame the pool must serve every acquire from reuse.
    frames = 4

    def prog(comm):
        pool = FramebufferPool()
        part = blank_image(512, 512)
        part.alpha[comm.rank :: comm.size] = 255
        t0 = time.perf_counter()
        for _ in range(frames):
            final = binary_swap(comm, part, pool=pool)
            if final is not None:
                pool.release(final)
        return time.perf_counter() - t0, pool.hits, pool.misses

    results = run_spmd(8, prog)
    t_swap = max(r[0] for r in results) / frames
    root_hits, root_misses = results[0][1], results[0][2]
    # Only the root stitches; it must allocate exactly one framebuffer.
    assert (root_hits, root_misses) == (frames - 1, 1)
    assert all(r[1] == r[2] == 0 for r in results[1:])

    _record(
        "compositing",
        {
            "image": [h, w],
            "composite_over_s": t_alloc,
            "composite_over_into_s": t_inplace,
            "inplace_speedup": op_speedup,
            "binary_swap_pooled_s_per_frame": t_swap,
            "pool_misses_per_4_frames": root_misses,
        },
    )
    report(
        "perf_compositing",
        "compositing 1920x1080 / pooled binary swap 512^2 x 8 ranks",
        [
            f"composite_over:      {t_alloc * 1e3:7.2f} ms (allocating)",
            f"composite_over_into: {t_inplace * 1e3:7.2f} ms ({op_speedup:.2f}x)",
            f"binary_swap pooled:  {t_swap * 1e3:7.2f} ms/frame, "
            f"{root_misses} alloc in {frames} frames",
        ],
    )
    # In-place wins by skipping the allocating np.where/astype pipeline.
    assert op_speedup >= 1.0


# -- 4. process-backend weak scaling -------------------------------------------

WEAK_SHAPE = (256, 256)
WEAK_ITERS = 36


def _weak_scaling_work(comm):
    """Fixed per-rank numpy workload: weak scaling holds this constant as
    ranks are added.  The ufunc chain holds the GIL, so the thread backend
    serializes it while the process backend spreads it across cores.  The
    closing allreduce folds the full 512 KiB field (not a scalar), so the
    benchmark also exercises the pooled segment transport the process
    backend uses for bulk collectives."""
    rng = np.random.default_rng(1000 + comm.rank)
    field = rng.random(WEAK_SHAPE)
    base = rng.random(WEAK_SHAPE)
    for _ in range(WEAK_ITERS):
        field = np.sin(field) * 1.0001 + np.sqrt(np.abs(base + field))
        field -= np.tanh(field) * 0.5
    total = comm.allreduce(field, op=SUM)
    return field.tobytes(), total.tobytes()


def test_spmd_backend_weak_scaling(report):
    """Thread vs process backend on a GIL-bound per-rank workload.

    Acceptance target: the process backend wins >= 1.5x at 4 ranks -- gated
    on actually having >= 4 CPUs, since on fewer cores the ranks cannot run
    concurrently no matter which backend hosts them; the measured curve and
    CPU count are always recorded.  Results must be bit-identical either
    way (the equivalence contract extends to the benchmark workload).
    """
    rank_counts = (1, 2, 4)
    times: dict[str, dict[int, float]] = {"thread": {}, "process": {}}
    outputs: dict[str, list] = {}
    for backend in ("thread", "process"):
        for nranks in rank_counts:
            times[backend][nranks] = _best_of(
                lambda b=backend, n=nranks: run_spmd(
                    n, _weak_scaling_work, backend=b, timeout=120.0
                ),
                2,
            )
        outputs[backend] = run_spmd(4, _weak_scaling_work, backend=backend)
    for (fb, ft), (pb, pt) in zip(outputs["thread"], outputs["process"]):
        assert fb == pb
        assert ft == pt

    cpus = _cpus()
    speedup4 = times["thread"][4] / times["process"][4]
    _record(
        "spmd_backend_weak_scaling",
        {
            "per_rank_shape": list(WEAK_SHAPE),
            "iters": WEAK_ITERS,
            "rank_counts": list(rank_counts),
            "thread_s": {str(n): times["thread"][n] for n in rank_counts},
            "process_s": {str(n): times["process"][n] for n in rank_counts},
            "speedup_at_4_ranks": speedup4,
            "target_speedup": 1.5,
            "target_gated_on_cpus": 4,
        },
    )
    report(
        "perf_spmd_backends",
        f"weak scaling {WEAK_SHAPE[0]}x{WEAK_SHAPE[1]} x{WEAK_ITERS} iters/rank"
        f" ({cpus} CPUs)",
        [
            f"{n} ranks:  thread {times['thread'][n] * 1e3:8.1f} ms"
            f"   process {times['process'][n] * 1e3:8.1f} ms"
            f"   ({times['thread'][n] / times['process'][n]:.2f}x)"
            for n in rank_counts
        ],
    )
    if cpus >= 4:
        assert speedup4 >= 1.5, (
            f"process backend {speedup4:.2f}x at 4 ranks below 1.5x target"
        )
    elif cpus >= 2:
        assert speedup4 >= 1.1, f"process backend {speedup4:.2f}x on {cpus} CPUs"
    else:
        # Single CPU: no concurrency to win; only bound the process-launch
        # and pipe-transport overhead on a compute-dominated job.
        assert speedup4 >= 0.5, f"process overhead too high: {speedup4:.2f}x"


# -- 5. pooled shared-memory collectives ---------------------------------------

SHM_FIELD = (256, 256)  # 512 KiB of float64, 8x the 64 KiB pool threshold
SHM_RANKS = 4
SHM_STEPS = 6


def _shm_collective_work(comm):
    """Collective-dominated step loop: every step allreduces and allgathers
    the full 512 KiB field.  With pooling each contribution is one memcpy
    into a ring slot; with ``REPRO_SPMD_SHM_THRESHOLD=0`` every collective
    pickles the array once per peer through the pipe transport."""
    rng = np.random.default_rng(300 + comm.rank)
    field = rng.random(SHM_FIELD)
    for _ in range(SHM_STEPS):
        folded = comm.allreduce(field, op=SUM)
        rows = comm.allgather(field)
        field = folded / comm.size + rows[(comm.rank + 1) % comm.size] * 1e-3
    return field.tobytes()


def test_shm_collectives_speedup(report):
    """Pooled segment collectives vs forced pickled envelopes.

    Both runs use the process backend; only the transport differs, so the
    measured gap is pure serialization cost.  Results must be bit-identical
    (the transport-equivalence contract).  Unlike the backend-concurrency
    benchmarks, pooling wins by *not copying*, so it should pay off at any
    CPU count; the >= 1.5x target is still gated on >= 4 CPUs because the
    pickled baseline degrades (favorably for the ratio) under contention.
    """
    times: dict[str, float] = {}
    outputs: dict[str, list] = {}
    previous = os.environ.get("REPRO_SPMD_SHM_THRESHOLD")
    try:
        for mode, threshold in (("shm", None), ("pickled", "0")):
            if threshold is None:
                os.environ.pop("REPRO_SPMD_SHM_THRESHOLD", None)
            else:
                os.environ["REPRO_SPMD_SHM_THRESHOLD"] = threshold
            run = lambda: run_spmd(  # noqa: E731
                SHM_RANKS, _shm_collective_work, backend="process", timeout=120.0
            )
            times[mode] = _best_of(run, 3)
            outputs[mode] = run()
    finally:
        if previous is None:
            os.environ.pop("REPRO_SPMD_SHM_THRESHOLD", None)
        else:
            os.environ["REPRO_SPMD_SHM_THRESHOLD"] = previous
    assert outputs["shm"] == outputs["pickled"]

    cpus = _cpus()
    speedup = times["pickled"] / times["shm"]
    _record(
        "shm_collectives",
        {
            "field": list(SHM_FIELD),
            "ranks": SHM_RANKS,
            "steps": SHM_STEPS,
            "collectives_per_step": ["allreduce", "allgather"],
            "pickled_s": times["pickled"],
            "shm_s": times["shm"],
            "speedup": speedup,
            "target_speedup": 1.5,
            "target_gated_on_cpus": 4,
        },
    )
    report(
        "perf_shm_collectives",
        f"512 KiB collectives x{SHM_STEPS} steps, {SHM_RANKS} ranks ({cpus} CPUs)",
        [
            f"pickled envelopes: {times['pickled'] * 1e3:8.1f} ms",
            f"pooled segments:   {times['shm'] * 1e3:8.1f} ms  ({speedup:.2f}x)",
        ],
    )
    if cpus >= 4:
        assert speedup >= 1.5, f"shm collectives {speedup:.2f}x below 1.5x target"
    else:
        # Fewer cores shrink the gap (the pickled baseline's copies run
        # unconcurrently too) but pooling must never *lose*  badly.
        assert speedup >= 0.8, f"shm collectives regressed: {speedup:.2f}x"


# -- 6. nbody particle step throughput ----------------------------------------


def test_nbody_step_throughput(report):
    """Leapfrog particle-mesh step cost: migrate + int deposit + FFT solve.

    The nbody miniapp trades raw speed for bit-exactness (the fixed-point
    deposit quantizes every CIC contribution so rank decomposition cannot
    reorder the sums).  This records what that costs: steps/s and
    particle-steps/s for a single-rank step loop at a production-shaped
    grid, floored in ``floors.gates`` so a refactor cannot quietly turn
    the deposit into a per-particle Python loop.
    """
    from repro.apps.nbody import NBodySimulation

    grid, n_particles, steps = 16, 4096, 5

    def _loop():
        def prog(comm):
            sim = NBodySimulation(
                comm, grid=grid, n_particles=n_particles, seed=11,
                velocity_scale=0.25,
            )
            sim.run(steps)
            return sim.migrated_out

        return run_spmd(1, prog, backend="thread", timeout=120.0)

    migrated = _loop()[0]  # warm numpy/FFT caches before timing
    t = _best_of(_loop, 3)
    steps_per_s = steps / t
    _record(
        "nbody_step",
        {
            "grid": [grid, grid, grid],
            "n_particles": n_particles,
            "steps": steps,
            "wall_s": t,
            "steps_per_s": steps_per_s,
            "particle_steps_per_s": steps_per_s * n_particles,
            "migrated_out": migrated,
        },
    )
    report(
        "perf_nbody_step",
        f"nbody {grid}^3 grid, {n_particles} particles, {steps} steps",
        [
            f"wall:            {t * 1e3:8.1f} ms",
            f"steps/s:         {steps_per_s:8.1f}",
            f"particle-steps/s:{steps_per_s * n_particles:10.0f}",
        ],
    )
    # Vectorized deposit + FFT solve runs tens of steps/s even on one CPU;
    # a per-particle Python loop would be two orders of magnitude slower.
    assert steps_per_s >= 2.0, f"nbody step rate collapsed: {steps_per_s:.2f}/s"
