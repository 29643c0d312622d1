"""Deterministic parallel fan-out for candidate sweeps.

The autotuner and the figure generators evaluate many independent pure
functions (cost-model calls).  :class:`ParallelRunner` fans those out over
a ``concurrent.futures`` thread pool and merges results **by input index**,
so the output is bit-for-bit identical to a serial loop no matter how many
workers run or in which order futures complete.  Anything that must stay
deterministic (chunk boundaries, tie-breaking) is therefore decided by the
caller's input order alone, never by scheduling.

Worker-count resolution (first match wins):

1. explicit ``jobs=`` argument,
2. :attr:`repro.settings.Settings.jobs` — ``REPRO_JOBS``, else the
   cpu count capped at 8.

``jobs=1`` (or an unparsable ``REPRO_JOBS``) degrades to a plain in-process
loop — no executor, no threads — which is also the fallback whenever the
thread pool cannot be created.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .. import settings
from ..obs import flight as obs_flight
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resilience import faults as res_faults

T = TypeVar("T")
R = TypeVar("R")

#: environment variable overriding the worker count
JOBS_ENV = settings.ENV_VARS["jobs"]


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: arg > ``REPRO_JOBS`` > cpu count."""
    return max(1, jobs if jobs is not None else settings.current().jobs)


class ParallelRunner:
    """Order-preserving ``map`` over a thread pool.

    ``jobs`` is the worker count (``None`` resolves via
    :func:`resolve_jobs`).  Threads, not processes: every consumer here
    mutates in-process memo caches.  ``mode`` is ``"serial"`` for one
    job and ``"thread"`` otherwise; it labels the fault key and metrics.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.mode = "serial" if self.jobs == 1 else "thread"

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _chunks(n: int, chunksize: int) -> Iterable[range]:
        for start in range(0, n, chunksize):
            yield range(start, min(start + chunksize, n))

    # -- API ----------------------------------------------------------------

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        *,
        chunksize: int | None = None,
    ) -> list[R]:
        """``[fn(x) for x in items]`` with deterministic ordering.

        Results are returned in input order regardless of completion
        order; the first exception raised by any work item propagates
        (lowest input index wins, again for determinism).  ``chunksize``
        only batches executor round-trips; it never changes results.
        """
        items = list(items)
        n = len(items)
        if n == 0:
            return []
        # chaos hook: a fault plan can fail/delay whole map calls here,
        # proving callers survive executor-level trouble deterministically
        res_faults.inject("parallel.map", key=f"{self.mode}:{n}")
        if self.mode == "serial" or n == 1:
            with obs_trace.span("parallel.map", mode="serial", items=n):
                return [fn(x) for x in items]
        if chunksize is None:
            chunksize = max(1, n // (self.jobs * 4))
        out: list[R] = [None] * n  # type: ignore[list-item]
        try:
            pool = ThreadPoolExecutor(max_workers=self.jobs)
        except OSError as exc:  # sandboxes without threads
            obs_log.warning(
                "parallel_executor_unavailable",
                logger="repro.perf.parallel",
                mode=self.mode, jobs=self.jobs, error=type(exc).__name__,
            )
            return [fn(x) for x in items]
        with pool, obs_trace.span(
            "parallel.map", mode="thread", items=n, jobs=self.jobs
        ):
            observe = obs_flight.recording()
            # captured inside the map span: worker chunks re-activate it
            # so their spans are children of parallel.map, not orphans on
            # whatever the pool thread last ran
            parent_ctx = obs_flight.current_context()

            def run_chunk(idx: range) -> list[R]:
                # keyed by chunk start: deterministic no matter which
                # worker thread picks the chunk up
                res_faults.inject("parallel.chunk", key=str(idx.start))
                if not observe:
                    return [fn(items[i]) for i in idx]
                # per-worker task timing: the span lands on the worker
                # thread's track, so Perfetto shows pool utilization
                t0 = time.perf_counter()
                with obs_flight.context(parent_ctx):
                    with obs_trace.span(
                        "parallel.chunk", start=idx.start, size=len(idx)
                    ):
                        res = [fn(items[i]) for i in idx]
                    obs_metrics.histogram(
                        "parallel_chunk_seconds", mode=self.mode
                    ).observe(time.perf_counter() - t0)
                obs_metrics.counter(
                    "parallel_tasks", mode=self.mode
                ).inc(len(idx))
                return res

            futures = [(idx, pool.submit(run_chunk, idx))
                       for idx in self._chunks(n, chunksize)]
            pending_error: tuple[int, BaseException] | None = None
            for idx, fut in futures:
                try:
                    res = fut.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if pending_error is None or idx.start < pending_error[0]:
                        pending_error = (idx.start, exc)
                    continue
                for i, r in zip(idx, res):
                    out[i] = r
            if pending_error is not None:
                raise pending_error[1]
        return out

    def starmap(
        self,
        fn: Callable[..., R],
        items: Sequence[tuple],
        *,
        chunksize: int | None = None,
    ) -> list[R]:
        """:meth:`map` with argument tuples unpacked into ``fn``."""
        return self.map(lambda args: fn(*args), items, chunksize=chunksize)
