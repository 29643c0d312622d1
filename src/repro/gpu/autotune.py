"""Profile-run auto-search over tiling parameters (Sec. 5.1 / Fig. 11).

"To determine the optimal tiling parameters ... we use C++ template to
generate multiple kernels with different combinations of tiling parameters
and choose the best ones through profile runs."  Here a profile run is an
evaluation of the performance simulator; the search covers the same
exhaustive grid of legal template instantiations, and the result is cached
per GEMM shape ("the optimal tiling parameters only need to be determined
once per convolution shape").

Three layers make the search fast without changing its answer:

* **branch-and-bound pruning** — candidates are sorted by the admissible
  :func:`~repro.gpu.pipelinemodel.kernel_lower_bound` (compute-only and
  bandwidth-only floors); once the incumbent beats every remaining bound
  the sweep stops.  The bound never exceeds the achieved time, so the
  winner — including the tie-break on search-space order — is identical
  to the exhaustive sweep's;
* **vectorized candidate pricing** — by default the whole population is
  priced through :mod:`repro.gpu.vecmodel`'s structure-of-arrays twin of
  the cost model (bit-identical per element): one batched call for every
  lower bound, then numpy-sized pricing batches with the pruning cutoff
  applied as an array mask.  ``REPRO_NO_VECTOR=1`` (or any fault plan
  targeting ``autotune.profile``) falls back to the scalar engine below;
* **parallel evaluation** — in the scalar engine, fixed-size candidate
  chunks fan out through :class:`repro.perf.ParallelRunner` and merge by
  input index, so any worker count produces bit-identical results
  (``REPRO_JOBS`` overrides, via :func:`repro.settings.current`);
* **a persistent content-addressed cache** — results are memoized on disk
  (:class:`repro.perf.PersistentCache`, ``REPRO_CACHE_DIR`` overrides the
  location) keyed by a :func:`repro.perf.stable_hash` of shape, bits,
  device, kernel kwargs *and a fingerprint of the cost-model code*, so
  editing the model invalidates stale entries.

A fourth layer keeps long sweeps alive when individual profile runs
misbehave (TVM-style candidate isolation — Cowan et al. survive thousands
of failing template instantiations by skipping them):

* **hardened profile runs** — every candidate evaluation goes through
  :func:`repro.resilience.policy.call_with_policy`: per-attempt timeout
  (``REPRO_TIMEOUT_S``), bounded retry with exponential backoff
  (``REPRO_RETRY`` / ``REPRO_BACKOFF_S``), and the deterministic
  ``autotune.profile`` fault-injection site.  A candidate that fails
  permanently lands in a :class:`~repro.resilience.policy.Quarantine`
  (skipped by this and every later sweep in the process), the search
  continues over the survivors, and the result carries a ``skipped``
  tally — the sweep is *never* silently empty: if every candidate dies
  the sweep raises :class:`~repro.errors.AutotuneError`.  When retries
  absorb every (transient) fault, the winner and its cycle count are
  bit-identical to the fault-free sweep — the chaos suite asserts it.

``autotune_reference`` keeps the original single-threaded exhaustive loop
as the equivalence baseline for tests and ``python -m repro bench``; its
profile runs wear the same retry armor so a seeded chaos plan cannot
kill the baseline either.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import AutotuneError
from ..obs import flight as obs_flight
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..perf.cache import PersistentCache, code_fingerprint, stable_hash
from ..perf.parallel import ParallelRunner
from ..resilience import faults as res_faults
from ..resilience.policy import (
    ExecPolicy,
    PermanentFailure,
    Quarantine,
    call_with_policy,
)
from ..types import ConvSpec, GemmShape
from ..util import vector_enabled
from .device import GpuDevice, TU102
from .pipelinemodel import GpuKernelPerf, conv_gemm_shape, kernel_lower_bound, kernel_time
from .tiling import TilingParams, search_space, search_space_size
from .vecmodel import TilingArrays, kernel_lower_bound_batch, kernel_time_batch

#: candidates evaluated per parallel round of the *scalar* engine.  Fixed
#: (never derived from the worker count) so candidate/pruned tallies are
#: identical for any jobs setting; pruning is re-checked between rounds.
_CHUNK = 16

#: the vector engine's first round: small enough that the incumbent it
#: establishes (from the best-bound candidates) prunes most of the space,
#: large enough to amortize one numpy dispatch
_VEC_CHUNK_INIT = 64

#: candidates priced per numpy batch after the incumbent exists
_VEC_CHUNK = 2048


@dataclass(frozen=True)
class AutotuneResult:
    """Best configuration found by the profile sweep.

    ``candidates`` counts the legal search space; ``evaluated`` the
    profile runs actually performed, ``pruned`` the candidates skipped
    because their lower bound already exceeded the incumbent, and
    ``skipped`` the candidates dropped because their profile runs failed
    permanently (quarantined — see the module docstring).
    ``evaluated + pruned + skipped == candidates``; a clean exhaustive
    sweep has ``pruned == skipped == 0``.
    """

    gemm: GemmShape
    bits: int
    best: TilingParams
    best_perf: GpuKernelPerf
    candidates: int
    evaluated: int = 0
    pruned: int = 0
    skipped: int = 0

    @property
    def best_cycles(self) -> float:
        return self.best_perf.total_cycles

    def to_json(self) -> dict:
        p = self.best_perf
        return {
            "gemm": [self.gemm.m, self.gemm.k, self.gemm.n],
            "bits": self.bits,
            "best": _tiling_to_json(self.best),
            "best_perf": {
                "tiling": _tiling_to_json(p.tiling),
                "bits": p.bits,
                "compute_cycles": p.compute_cycles,
                "dram_cycles": p.dram_cycles,
                "smem_cycles": p.smem_cycles,
                "launch_cycles": p.launch_cycles,
                "blocks": p.blocks,
                "blocks_per_sm": p.blocks_per_sm,
                "occupancy": p.occupancy,
                "overlapped": p.overlapped,
            },
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "skipped": self.skipped,
        }

    @classmethod
    def from_json(cls, data: dict) -> "AutotuneResult":
        gemm = GemmShape(*(int(v) for v in data["gemm"]))
        perf = data["best_perf"]
        best_perf = GpuKernelPerf(
            gemm=gemm,
            tiling=_tiling_from_json(perf["tiling"]),
            bits=int(perf["bits"]),
            compute_cycles=float(perf["compute_cycles"]),
            dram_cycles=float(perf["dram_cycles"]),
            smem_cycles=float(perf["smem_cycles"]),
            launch_cycles=float(perf["launch_cycles"]),
            blocks=int(perf["blocks"]),
            blocks_per_sm=int(perf["blocks_per_sm"]),
            occupancy=float(perf["occupancy"]),
            overlapped=bool(perf["overlapped"]),
        )
        return cls(
            gemm=gemm,
            bits=int(data["bits"]),
            best=_tiling_from_json(data["best"]),
            best_perf=best_perf,
            candidates=int(data["candidates"]),
            evaluated=int(data["evaluated"]),
            pruned=int(data["pruned"]),
            skipped=int(data.get("skipped", 0)),
        )


def _tiling_to_json(t: TilingParams) -> list[int]:
    return [t.m_tile, t.n_tile, t.k_tile, t.k_step,
            t.block_row_warps, t.block_col_warps]


def _tiling_from_json(v: list) -> TilingParams:
    return TilingParams(*(int(x) for x in v))


# ---------------------------------------------------------------------------
# Caches and options
# ---------------------------------------------------------------------------

_MEM_CACHE: dict[str, AutotuneResult] = {}
_SPACE_CACHE: dict[tuple[int, GpuDevice], tuple[list[TilingParams], TilingArrays]] = {}
_STORE = PersistentCache("gpu-autotune")
_QUARANTINE = Quarantine("autotune.profile")
_LOCK = threading.Lock()

_FINGERPRINT: str | None = None


def _code_version() -> str:
    global _FINGERPRINT
    if _FINGERPRINT is None:
        from . import device, mma, pipelinemodel, tiling, vecmodel

        import sys

        _FINGERPRINT = code_fingerprint(
            [tiling, pipelinemodel, vecmodel, device, mma, sys.modules[__name__]]
        )
    return _FINGERPRINT


def pricing_mode() -> str:
    """``"vector"`` when sweeps may batch-price through numpy, else
    ``"scalar"``.

    Scalar is forced by ``REPRO_NO_VECTOR=1`` (``Settings.vector``) and
    whenever the active fault plan targets the ``autotune.profile`` site:
    injected faults are per-candidate-key decisions inside the retry
    boundary, which only the scalar guarded path can honor, so a chaos
    run degrades to per-candidate pricing instead of silently skipping
    its own fault rules.
    """
    if not vector_enabled():
        return "scalar"
    if any(r.matches("autotune.profile") for r in res_faults.active_plan().rules):
        return "scalar"
    return "vector"


def clear_cache(*, persistent: bool = False) -> None:
    """Drop memoized autotune results and the legal-tiling memo (the
    in-process caches always; the on-disk store too with
    ``persistent=True``) and release quarantined candidates.  Public for
    tests and the bench harness, whose cold phase must rebuild both."""
    with _LOCK:
        _MEM_CACHE.clear()
        _SPACE_CACHE.clear()
    _QUARANTINE.clear()
    if persistent:
        _STORE.clear()


def cache_store() -> PersistentCache:
    """The persistent store (exposed for stats/bench introspection)."""
    return _STORE


def profile_quarantine() -> Quarantine:
    """Candidates whose profile runs failed permanently this process
    (exposed for chaos tests and the ``repro chaos`` report)."""
    return _QUARANTINE


@dataclass(frozen=True)
class AutotuneOptions:
    """Session-wide search-engine switches (see :func:`autotune_options`).

    ``engine=False`` routes every :func:`autotune` call through
    :func:`autotune_reference` (memoized in-process only) — the bench
    harness uses it to time the pre-optimization serial path faithfully.
    """

    prune: bool = True
    persistent: bool = True
    jobs: int | None = None
    engine: bool = True


_OPTIONS = AutotuneOptions()


@contextlib.contextmanager
def autotune_options(
    *,
    prune: bool | None = None,
    persistent: bool | None = None,
    jobs: int | None = None,
    engine: bool | None = None,
):
    """Temporarily override engine defaults (bench/tests); thread-hostile
    by design — configure before fanning out, not inside workers."""
    global _OPTIONS
    prev = _OPTIONS
    _OPTIONS = AutotuneOptions(
        prune=prev.prune if prune is None else prune,
        persistent=prev.persistent if persistent is None else persistent,
        jobs=prev.jobs if jobs is None else jobs,
        engine=prev.engine if engine is None else engine,
    )
    try:
        yield _OPTIONS
    finally:
        _OPTIONS = prev


def _legal_candidates(
    bits: int, device: GpuDevice
) -> tuple[list[TilingParams], TilingArrays]:
    """The legal search space plus its SoA decomposition, memoized per
    (bits, device) — legality does not depend on the GEMM shape, so
    validating (and columnizing) it once per process is free speedup for
    every per-layer sweep."""
    key = (bits, device)
    with _LOCK:
        entry = _SPACE_CACHE.get(key)
    if entry is None:
        space = list(search_space(bits, device=device))
        entry = (space, TilingArrays.from_params(space))
        with _LOCK:
            entry = _SPACE_CACHE.setdefault(key, entry)
    return entry


def _no_legal_tiling_error(
    gemm: GemmShape, bits: int, device: GpuDevice
) -> AutotuneError:
    return AutotuneError(
        f"no legal tiling for {gemm} at {bits}-bit on {device.name}: "
        f"0 of {search_space_size(bits)} template instantiations fit the "
        f"device limits"
    )


# ---------------------------------------------------------------------------
# Search engines
# ---------------------------------------------------------------------------


def _candidate_key(gemm: GemmShape, bits: int, tiling: TilingParams) -> str:
    """Stable quarantine/fault key for one profile run."""
    return (f"{gemm.m}x{gemm.k}x{gemm.n}/{bits}b/"
            f"{'-'.join(str(v) for v in _tiling_to_json(tiling))}")


def _guarded_profile(
    gemm: GemmShape,
    bits: int,
    tiling: TilingParams,
    device: GpuDevice,
    policy: ExecPolicy,
    kernel_kwargs: dict,
) -> GpuKernelPerf | None:
    """One profile run under the hardened policy.

    Returns ``None`` when the candidate is (or becomes) quarantined:
    already-quarantined candidates are skipped for free, and a run that
    exhausts its retries quarantines the candidate so later sweeps never
    pay for it again.  Transient failures absorbed by a retry leave no
    trace in the result — the winner is identical to a fault-free sweep.
    """
    key = _candidate_key(gemm, bits, tiling)
    if _QUARANTINE.contains(key):
        obs_metrics.counter("autotune_skipped", reason="quarantined").inc()
        return None

    def attempt() -> GpuKernelPerf:
        # inside the retry boundary so a transient injected fault is
        # re-rolled (its `times` budget drains) on the next attempt
        res_faults.inject("autotune.profile", key=key)
        return kernel_time(gemm, bits, tiling, device=device, **kernel_kwargs)

    try:
        return call_with_policy(
            attempt, site="autotune.profile", key=key, policy=policy)
    except PermanentFailure as exc:
        _QUARANTINE.add(key, reason=f"{type(exc.last).__name__}: {exc.last}")
        obs_metrics.counter("autotune_skipped", reason="failed").inc()
        return None


def _search_scalar(
    gemm: GemmShape,
    bits: int,
    space: list[TilingParams],
    device: GpuDevice,
    *,
    prune: bool,
    jobs: int | None,
    kernel_kwargs: dict,
) -> AutotuneResult:
    """Best-bound-first sweep with exact pruning and deterministic merge.

    Candidates are profiled in ascending lower-bound order, ``_CHUNK`` at
    a time (parallel inside a chunk, merged by index).  Between chunks the
    incumbent is compared against the next-smallest remaining bound: once
    ``bound > incumbent`` holds there, it holds for every remaining
    candidate, each of which must then be *strictly* slower — so pruning
    can change neither the winner nor the first-in-search-order tie-break
    (ties are resolved by original candidate index, exactly like the
    serial loop's strict-improvement scan).
    """
    with obs_trace.span(
        "autotune.search",
        gemm=f"{gemm.m}x{gemm.k}x{gemm.n}", bits=bits, candidates=len(space),
    ):
        bounds = [
            kernel_lower_bound(gemm, bits, t, device=device, **kernel_kwargs)
            for t in space
        ]
        order = sorted(range(len(space)), key=lambda i: (bounds[i], i))
        runner = ParallelRunner(jobs)
        policy = ExecPolicy.resolve()

        def profile(i: int) -> GpuKernelPerf | None:
            return _guarded_profile(
                gemm, bits, space[i], device, policy, kernel_kwargs)

        # per-candidate bound-gap detail only while a tracer is installed:
        # observing one histogram per profile run is wasted work otherwise
        observe_gaps = obs_trace.active()
        best_key: tuple[float, int] | None = None
        best_perf: GpuKernelPerf | None = None
        evaluated = 0
        skipped = 0
        pos = 0
        while pos < len(order):
            if prune and best_key is not None and bounds[order[pos]] > best_key[0]:
                break  # sorted bounds: every remaining candidate is slower
            chunk = order[pos:pos + _CHUNK]
            pos += len(chunk)
            for i, perf in zip(chunk, runner.map(profile, chunk, chunksize=4)):
                if perf is None:  # quarantined: search the survivors
                    skipped += 1
                    continue
                evaluated += 1
                if observe_gaps:
                    obs_metrics.histogram(
                        "autotune_bound_gap_cycles", bits=bits
                    ).observe(perf.total_cycles - bounds[i])
                key = (perf.total_cycles, i)
                if best_key is None or key < best_key:
                    best_key, best_perf = key, perf
        if best_perf is None:
            # never silently empty: every candidate failed or was skipped
            raise AutotuneError(
                f"autotune sweep for {gemm} at {bits}-bit on {device.name} "
                f"produced no survivor: {skipped} of {len(space)} candidates "
                f"failed permanently (quarantined)"
            )
        result = AutotuneResult(
            gemm=gemm,
            bits=bits,
            best=best_perf.tiling,
            best_perf=best_perf,
            candidates=len(space),
            evaluated=evaluated,
            pruned=len(space) - evaluated - skipped,
            skipped=skipped,
        )
        # inside the span: the flight-ring marker attaches to the search
        _count_sweep(result, engine="pruned")
    return result


def _search_vector(
    gemm: GemmShape,
    bits: int,
    space: list[TilingParams],
    arrays: TilingArrays,
    device: GpuDevice,
    *,
    prune: bool,
    kernel_kwargs: dict,
) -> AutotuneResult:
    """The scalar engine's sweep, re-expressed over whole populations.

    One :func:`~repro.gpu.vecmodel.kernel_lower_bound_batch` call replaces
    the per-candidate bound loop; a stable argsort reproduces the scalar
    ``sorted(..., key=(bound, index))`` order exactly; candidates are then
    priced in numpy batches with the branch-and-bound cutoff applied as an
    array mask *inside* each batch.  Masking mid-batch is safe for the
    same reason the between-chunk break is: a masked candidate's bound
    exceeded some incumbent's *achieved* time, so its own time is strictly
    greater and it can affect neither the winner nor the index tie-break
    (every candidate achieving the minimum time is priced).  Because
    :func:`~repro.gpu.vecmodel.kernel_time_batch` is bit-identical to the
    scalar model, the winner and its full cycle breakdown equal the
    scalar engine's — only the ``evaluated``/``pruned`` split may differ
    (the mask prunes harder than the chunk-boundary check).

    Quarantined candidates and lanes the legality mask rejects (a legal
    tiling can still fail occupancy on an exotic device) fall back to
    :func:`_guarded_profile`, keeping skip accounting, quarantine entries
    and failure diagnostics identical to the scalar engine's.
    """
    with obs_trace.span(
        "autotune.search",
        gemm=f"{gemm.m}x{gemm.k}x{gemm.n}", bits=bits, candidates=len(space),
    ):
        bounds = kernel_lower_bound_batch(
            gemm, bits, arrays, device=device, **kernel_kwargs)
        order = np.argsort(bounds, kind="stable")
        policy = ExecPolicy.resolve()
        observe_gaps = obs_trace.active()
        best_key: tuple[float, int] | None = None
        best_perf: GpuKernelPerf | None = None
        evaluated = 0
        skipped = 0

        def scalar_fallback(i: int) -> None:
            nonlocal best_key, best_perf, evaluated, skipped
            perf = _guarded_profile(
                gemm, bits, space[i], device, policy, kernel_kwargs)
            if perf is None:
                skipped += 1
                return
            evaluated += 1
            key = (perf.total_cycles, i)
            if best_key is None or key < best_key:
                best_key, best_perf = key, perf

        if len(_QUARANTINE):
            quarantined = np.fromiter(
                (_QUARANTINE.contains(_candidate_key(gemm, bits, t))
                 for t in space),
                dtype=bool, count=len(space),
            )
            if quarantined.any():
                for i in np.flatnonzero(quarantined):
                    scalar_fallback(int(i))
                order = order[~quarantined[order]]

        pos = 0
        batch_size = _VEC_CHUNK_INIT
        while pos < len(order):
            if prune and best_key is not None and bounds[order[pos]] > best_key[0]:
                break  # sorted bounds: every remaining candidate is slower
            live = order[pos:pos + batch_size]
            pos += len(live)
            batch_size = _VEC_CHUNK
            if prune and best_key is not None:
                live = live[bounds[live] <= best_key[0]]
            if live.size == 0:
                continue
            batch = kernel_time_batch(
                gemm, bits, arrays.take(live), device=device, **kernel_kwargs)
            lanes = np.flatnonzero(batch.legal)
            if lanes.size < live.size:
                for i in live[~batch.legal]:
                    scalar_fallback(int(i))
            if lanes.size == 0:
                continue
            keep = live[lanes]
            totals = batch.total_cycles[lanes]
            evaluated += int(lanes.size)
            if observe_gaps:
                hist = obs_metrics.histogram(
                    "autotune_bound_gap_cycles", bits=bits)
                for gap in (totals - bounds[keep]):
                    hist.observe(float(gap))
            p = int(np.lexsort((keep, totals))[0])
            key = (float(totals[p]), int(keep[p]))
            if best_key is None or key < best_key:
                best_key, best_perf = key, batch.perf_at(int(lanes[p]))
        if best_perf is None:
            # never silently empty: every candidate failed or was skipped
            raise AutotuneError(
                f"autotune sweep for {gemm} at {bits}-bit on {device.name} "
                f"produced no survivor: {skipped} of {len(space)} candidates "
                f"failed permanently (quarantined)"
            )
        result = AutotuneResult(
            gemm=gemm,
            bits=bits,
            best=best_perf.tiling,
            best_perf=best_perf,
            candidates=len(space),
            evaluated=evaluated,
            pruned=len(space) - evaluated - skipped,
            skipped=skipped,
        )
        # inside the span: the flight-ring marker attaches to the search
        _count_sweep(result, engine="pruned")
    return result


def _count_sweep(result: AutotuneResult, *, engine: str) -> None:
    """Aggregate sweep tallies (once per profile sweep — never per item)."""
    obs_metrics.counter("autotune_sweeps", engine=engine).inc()
    obs_metrics.counter("autotune_candidates", engine=engine).inc(
        result.candidates)
    obs_metrics.counter("autotune_evaluated", engine=engine).inc(
        result.evaluated)
    obs_metrics.counter("autotune_pruned", engine=engine).inc(result.pruned)
    # flight-ring marker: one per sweep, addressable next to its spans
    obs_flight.instant(
        "autotune.sweep", cat="autotune", engine=engine,
        gemm=f"{result.gemm.m}x{result.gemm.k}x{result.gemm.n}",
        bits=result.bits, candidates=result.candidates,
        evaluated=result.evaluated, pruned=result.pruned,
        skipped=result.skipped, best_cycles=result.best_cycles,
    )


def autotune_reference(
    gemm: GemmShape,
    bits: int,
    *,
    device: GpuDevice = TU102,
    **kernel_kwargs,
) -> AutotuneResult:
    """The original serial exhaustive sweep, kept as the equivalence
    baseline: no pruning, no parallelism, no caching of any kind.
    ``python -m repro bench`` times the engine against this.  Profile
    runs wear the same retry/quarantine armor as the engine so a chaos
    plan degrades the baseline identically instead of killing it."""
    best: TilingParams | None = None
    best_perf: GpuKernelPerf | None = None
    policy = ExecPolicy.resolve()
    count = 0
    evaluated = 0
    skipped = 0
    with obs_trace.span(
        "autotune.reference", gemm=f"{gemm.m}x{gemm.k}x{gemm.n}", bits=bits
    ):
        for tiling in search_space(bits, device=device):
            count += 1
            perf = _guarded_profile(
                gemm, bits, tiling, device, policy, kernel_kwargs)
            if perf is None:
                skipped += 1
                continue
            evaluated += 1
            if best_perf is None or perf.total_cycles < best_perf.total_cycles:
                best, best_perf = tiling, perf
    if count == 0:
        raise _no_legal_tiling_error(gemm, bits, device)
    if best is None or best_perf is None:
        raise AutotuneError(
            f"reference sweep for {gemm} at {bits}-bit on {device.name} "
            f"produced no survivor: {skipped} of {count} candidates failed "
            f"permanently (quarantined)"
        )
    result = AutotuneResult(
        gemm=gemm, bits=bits, best=best, best_perf=best_perf,
        candidates=count, evaluated=evaluated, pruned=0, skipped=skipped,
    )
    _count_sweep(result, engine="reference")  # reference span already closed
    return result


def autotune(
    gemm: GemmShape,
    bits: int,
    *,
    device: GpuDevice = TU102,
    jobs: int | None = None,
    prune: bool | None = None,
    persistent: bool | None = None,
    **kernel_kwargs,
) -> AutotuneResult:
    """Sweep every legal tiling, profile each, return the fastest.

    ``jobs``/``prune``/``persistent`` override the engine defaults (see
    :func:`autotune_options`); every other keyword is forwarded to
    :func:`~repro.gpu.pipelinemodel.kernel_time` and participates in the
    cache key.
    """
    opts = _OPTIONS
    prune = opts.prune if prune is None else prune
    persistent = opts.persistent if persistent is None else persistent
    jobs = opts.jobs if jobs is None else jobs

    digest = stable_hash({
        "gemm": [gemm.m, gemm.k, gemm.n],
        "bits": bits,
        "device": device,
        "kwargs": kernel_kwargs,
        "code": _code_version(),
    })
    with _LOCK:
        cached = _MEM_CACHE.get(digest)
    if cached is not None:
        return cached
    if not opts.engine:
        # Faithful pre-optimization path: serial exhaustive sweep, memoized
        # in-process only (matching the original module-level dict cache).
        result = autotune_reference(gemm, bits, device=device, **kernel_kwargs)
        with _LOCK:
            return _MEM_CACHE.setdefault(digest, result)
    if persistent:
        data = _STORE.get(digest)
        if data is not None:
            try:
                result = AutotuneResult.from_json(data)
            except (KeyError, TypeError, ValueError) as exc:
                result = None  # stale/foreign entry: recompute
                obs_log.debug(
                    "autotune_cache_stale",
                    logger="repro.gpu.autotune",
                    digest=digest[:16], error=type(exc).__name__,
                )
            if result is not None and result.gemm == gemm and result.bits == bits:
                with _LOCK:
                    _MEM_CACHE.setdefault(digest, result)
                return _MEM_CACHE[digest]

    space, arrays = _legal_candidates(bits, device)
    if not space:
        raise _no_legal_tiling_error(gemm, bits, device)
    if pricing_mode() == "vector":
        result = _search_vector(
            gemm, bits, space, arrays, device,
            prune=prune, kernel_kwargs=kernel_kwargs,
        )
    else:
        result = _search_scalar(
            gemm, bits, space, device,
            prune=prune, jobs=jobs, kernel_kwargs=kernel_kwargs,
        )
    with _LOCK:
        result = _MEM_CACHE.setdefault(digest, result)
    if persistent:
        _STORE.put(digest, result.to_json())
    return result


def autotune_conv(
    spec: ConvSpec, bits: int, *, device: GpuDevice = TU102, **kernel_kwargs
) -> AutotuneResult:
    result = autotune(conv_gemm_shape(spec), bits, device=device, **kernel_kwargs)
    # per-layer cycle entry for the profile/metrics surface (idempotent)
    obs_metrics.gauge(
        "gpu_layer_cycles", layer=spec.name, bits=bits
    ).set(result.best_cycles)
    return result
