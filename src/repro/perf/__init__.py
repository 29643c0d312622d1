"""Search/execution performance layer.

Everything under :mod:`repro.perf` makes the reproduction *faster without
changing any result*:

* :class:`~repro.perf.parallel.ParallelRunner` — ``concurrent.futures``
  fan-out with a deterministic, input-order merge, so parallel runs are
  bit-for-bit identical to serial ones (``REPRO_JOBS`` overrides the
  worker count; every knob is read through :mod:`repro.settings`);
* :class:`~repro.perf.cache.PersistentCache` — content-addressed
  JSON-on-disk memoization under ``~/.cache/repro`` (``REPRO_CACHE_DIR``
  overrides), tolerant of corruption and unwritable filesystems;
* :func:`~repro.perf.cache.stable_hash` — a canonical hash for cache keys
  built from dataclasses / dicts / kwargs, independent of insertion order
  and safe for unhashable values;
* :mod:`repro.perf.bench` — the wall-clock benchmark harness behind
  ``python -m repro bench`` (imported lazily; it pulls in the figure
  generators).

The consumers are the GPU profile-run autotuner (:mod:`repro.gpu.autotune`,
branch-and-bound pruned sweep), the ARM static scheduler memo
(:mod:`repro.arm.cost_model`) and the per-layer figure sweeps
(:mod:`repro.figures`, :mod:`repro.runtime.executor`).
"""

from __future__ import annotations

from .cache import PersistentCache, code_fingerprint, stable_hash
from .parallel import ParallelRunner, resolve_jobs

__all__ = [
    "ParallelRunner",
    "resolve_jobs",
    "PersistentCache",
    "stable_hash",
    "code_fingerprint",
]
