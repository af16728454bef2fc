"""Whole-run benchmark with outside-in layer attribution.

``python -m bench`` runs five whole-run workloads (see ``bench/README.md``),
each in fresh subprocesses, untraced for the end-to-end metrics and traced
for the per-layer metrics.  ``BENCHMARK.json`` at the repository root names
every metric this package prints; ``bench/spec.py`` holds the same names
with their meaning.

The orchestrating process (``__main__``, ``orchestrate``) never imports
``repro``: only the worker subprocesses (``bench.worker``) do, with
``src/`` put on their ``PYTHONPATH``.
"""
