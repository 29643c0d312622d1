"""Wall-clock benchmark harness: ``python -m repro bench``.

Times the Fig. 10/11 autotune sweep (the dominant cost of the GPU figure
reproductions) in three phases over an isolated cache directory:

* ``serial``  — the pre-optimization baseline: the original exhaustive
  single-threaded sweep (``autotune_reference`` semantics), in-process
  memo only;
* ``cold``    — the search engine with an *empty* persistent cache:
  branch-and-bound pruning + parallel candidate evaluation;
* ``warm``    — the engine again with the persistent cache the cold phase
  just wrote: every sweep is a content-addressed disk hit.

Every phase runs :data:`REPEATS` times from fresh state: the in-process
memos are cleared before each repeat, and each repeat's cold phase
starts from an empty cache directory that its warm phase then reads.
A phase reports the median of its repeats as ``seconds``, with ``min``,
``iqr`` (interquartile range / median) and ``repeats``; speedups are
ratios of medians.  A host-speed probe runs right after every sample,
and each phase's ``host_probe_s`` (the probe time behind its median)
lets ``repro regress`` tell a slower program from a slower host.

Each phase regenerates the actual figure data, so besides wall-clock the
harness asserts on every repeat that the engine changes **nothing**:
identical best tilings, identical ``best_cycles`` and identical figure
series versus the serial baseline.  Results (wall-clock, speedups, cache
hit rates, candidates pruned, equivalence verdicts, and the resolved
:class:`repro.settings.Settings` the run used) are written to
``BENCH_*.json`` so the perf trajectory is tracked from run to run;
``--smoke`` runs a three-layer sweep for CI.  An ``arm`` section times
the Fig. 7 reproduction cold vs warm through the persistent
static-schedule cache.
"""

from __future__ import annotations

import os
import pathlib
import platform
import shutil
import statistics
import tempfile
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import settings
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..perf.parallel import resolve_jobs
from ..resilience import atomic as res_atomic

#: bump when the BENCH_*.json layout changes
#: v2: added the ``metrics`` block (repro.obs registry snapshot)
#: v3: added provenance (``git_sha``, ``fingerprint``) and ``--save``
#:     ledger integration (repro.obs.history, schema shared with it)
SCHEMA_VERSION = 3

DEFAULT_OUT_DIR = pathlib.Path("benchmarks") / "out"

#: fresh-state runs of every phase; each wall-clock number is their median
REPEATS = 3


# ---------------------------------------------------------------------------
# Phase plumbing
# ---------------------------------------------------------------------------


@dataclass
class PhaseReport:
    """Everything measured while reproducing the sweep, over its repeats.

    ``samples`` holds one wall-clock reading per repeat; the counters,
    cache stats, winners and series are the latest repeat's (the harness
    checks the winners and series of every repeat as it goes).
    """

    name: str
    samples: list[float] = field(default_factory=list)
    #: the host probe (:func:`_host_probe`) taken right after each sample
    probes: list[float] = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    candidates: int = 0
    evaluated: int = 0
    pruned: int = 0
    #: which candidate-pricing engine the phase ran: ``vector`` (batched
    #: numpy pricing) or ``scalar`` (per-candidate calls)
    pricing_mode: str = "scalar"
    #: per "<layer>/<bits>b": [tiling description, best_cycles]
    best: dict[str, list] = field(default_factory=dict)
    #: per figure name: {series name: [values...]}
    series: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Median wall clock over the repeats."""
        return statistics.median(self.samples)

    @property
    def iqr(self) -> float:
        """Interquartile range of the repeats, relative to the median."""
        if len(self.samples) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(
            self.samples, n=4, method="inclusive")
        return (q3 - q1) / self.seconds if self.seconds else 0.0

    @property
    def host_probe_s(self) -> float | None:
        """The probe time behind the median: ``seconds`` over the median
        of the samples each divided by its own probe.  Two runs' ratio of
        ``seconds / host_probe_s`` compares the program, not the host,
        even when the host's speed changed in the middle of a run."""
        if not self.probes:
            return None
        scaled = statistics.median(
            s / p for s, p in zip(self.samples, self.probes))
        return self.seconds / scaled

    @property
    def candidates_per_sec(self) -> float | None:
        """Candidate-pricing throughput at the median wall clock
        (trended by the ledger/HTML report); ``None`` when nothing was
        timed."""
        if not self.candidates or not self.seconds:
            return None
        return self.candidates / self.seconds

    def as_dict(self) -> dict:
        cps = self.candidates_per_sec
        return {
            "seconds": round(self.seconds, 6),
            "min": round(min(self.samples), 6),
            "iqr": round(self.iqr, 4),
            "repeats": len(self.samples),
            "host_probe_s": (round(self.host_probe_s, 6)
                             if self.probes else None),
            "cache": self.cache,
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "pruned_fraction": (
                round(self.pruned / self.candidates, 4) if self.candidates else 0.0
            ),
            "pricing_mode": self.pricing_mode,
            "candidates_per_sec": round(cps, 1) if cps is not None else None,
        }


@contextmanager
def _isolated_cache_dir(cache_dir: str | os.PathLike | None):
    """Point the settings' cache root at ``cache_dir`` (or a fresh temp
    dir) for the block; yields the settings the run resolves under."""
    with ExitStack() as stack:
        if cache_dir is None:
            cache_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-bench-"))
        try:
            pathlib.Path(cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError:
            pass  # unusable dir degrades to cache misses, never a crash
        with settings.override(cache_dir=pathlib.Path(cache_dir)) as run:
            yield run


@contextmanager
def _empty_repeat_cache(root: pathlib.Path, repeat: int):
    """Give one repeat its own cache directory under the run's root,
    emptied first: its cold phase fills it, its warm phase reads it."""
    path = root / f"repeat-{repeat}"
    shutil.rmtree(path, ignore_errors=True)
    with settings.override(cache_dir=path):
        yield


def _host_probe() -> float:
    """Seconds this host takes right now for a fixed mix of interpreter
    and small-array numpy work, the two kinds of work the bench times.

    The host may be shared: its speed can drop by half for a second or
    more, longer than a whole smoke bench, so no statistic over one
    run's repeats can see it.  A probe next to each sample can.  It
    uses no program code.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(40_000):
        acc += i * i
        table[i & 511] = (acc, i)
    a = np.arange(64, dtype=np.int64)
    for _ in range(1_200):
        a = np.concatenate([(a[:32] * 3 + 1) & 1023, a[32:] ^ a[:32]])
    return time.perf_counter() - start


def _figure_series(data) -> dict[str, list[float]]:
    out = {s.name: list(s.values) for s in data.series}
    out[data.baseline_label] = list(data.baseline_times)
    return out


def _gpu_sweep_items(model: str, batch: int, smoke: bool):
    from ..figures import GPU_BITS
    from ..models import get_model_layers

    layers = get_model_layers(model, batch=batch)
    if smoke:
        layers = layers[:3]
    return [(spec, bits) for spec in layers for bits in GPU_BITS]


def _run_gpu_phase(
    report: PhaseReport,
    *,
    model: str,
    batch: int,
    smoke: bool,
    jobs: int | None,
    engine: bool,
    persistent: bool,
) -> None:
    """One fresh-state repeat of a GPU phase, recorded into ``report``."""
    from ..figures import fig10_gpu_speedups, fig11_gpu_autotune
    from ..gpu.autotune import (
        autotune_conv,
        autotune_options,
        cache_store,
        clear_cache,
        pricing_mode,
    )

    clear_cache()  # in-process memos only; the disk store is the subject
    store = cache_store()
    store.reset_stats()
    items = _gpu_sweep_items(model, batch, smoke)

    # the serial baseline always prices per candidate; the engine phases
    # report whatever the env/fault-plan dispatch resolves to
    report.pricing_mode = pricing_mode() if engine else "scalar"
    series: dict[str, dict[str, list[float]]] = {}
    t0 = time.perf_counter()
    with autotune_options(engine=engine, persistent=persistent, jobs=jobs):
        if smoke:
            for spec, bits in items:
                autotune_conv(spec, bits)
        else:
            series[f"fig10[{model},b{batch}]"] = _figure_series(
                fig10_gpu_speedups(model, batch=batch))
            series[f"fig11[{model},b{batch}]"] = _figure_series(
                fig11_gpu_autotune(model, batch=batch))
        report.samples.append(time.perf_counter() - t0)
        report.probes.append(_host_probe())

        # collected after the clock stops: every call below is a memo hit
        report.series = series
        report.best = {}
        report.candidates = report.evaluated = report.pruned = 0
        for spec, bits in items:
            res = autotune_conv(spec, bits)
            report.best[f"{spec.name}/{bits}b"] = [
                res.best.describe(), res.best_cycles
            ]
            report.candidates += res.candidates
            report.evaluated += res.evaluated
            report.pruned += res.pruned
    report.cache = store.stats.as_dict()


def _run_arm_phase(report: PhaseReport, *, model: str) -> None:
    """One fresh-state repeat of an ARM phase, recorded into ``report``;
    the fig7 prewarm resolves the settings' jobs itself."""
    from ..arm.cost_model import clear_schedule_cache, schedule_store
    from ..figures import fig7_arm_speedups

    clear_schedule_cache()
    store = schedule_store()
    store.reset_stats()
    t0 = time.perf_counter()
    data = fig7_arm_speedups(model)
    report.samples.append(time.perf_counter() - t0)
    report.probes.append(_host_probe())
    report.series = {f"fig7[{model}]": _figure_series(data)}
    report.cache = store.stats.as_dict()


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


def run_bench(
    *,
    model: str = "resnet50",
    batch: int = 1,
    smoke: bool = False,
    jobs: int | None = None,
    out_dir: str | os.PathLike = DEFAULT_OUT_DIR,
    cache_dir: str | os.PathLike | None = None,
    backends: Sequence[str] = ("gpu", "arm"),
    trace_path: str | os.PathLike | None = None,
    save: bool = False,
    history_dir: str | os.PathLike | None = None,
    echo: Callable[[str], None] = print,
) -> pathlib.Path:
    """Run every phase :data:`REPEATS` times and write ``BENCH_*.json``;
    returns the report path.  ``cache_dir=None`` uses a throwaway temp
    dir so the run is hermetic; pass a directory to keep each repeat's
    warm cache around (``repeat-<i>/`` under it, emptied again by the
    next run).

    ``backends`` selects the sections to run; names are validated against
    the :mod:`repro.backends` registry (``gpu`` times the autotune engine
    against the serial baseline, ``arm`` times the static-schedule cache
    and has no ``smoke`` variant).  A selection that leaves nothing to
    bench raises :class:`ValueError`.

    The report always carries a ``metrics`` block (the
    :mod:`repro.obs.metrics` snapshot covering the whole run).
    ``trace_path`` additionally installs a tracer for the run and writes
    the Chrome trace there — timings then include tracing overhead, so
    leave it off for regression comparisons.

    ``save=True`` appends a schema-v3 entry (git sha, machine
    fingerprint, deterministic per-figure cycles/series, median
    wall-clock, its spread and the host probe, metrics) to the
    :mod:`repro.obs.history` ledger under ``history_dir`` (default
    ``benchmarks/history/``) so ``python -m repro regress`` can compare
    runs.
    """
    from ..backends import get_backend

    backends = tuple(get_backend(b).name for b in backends)
    unbenchable = [b for b in backends if b not in ("gpu", "arm")]
    if unbenchable:
        raise ValueError(
            f"no bench section for backend(s) {', '.join(unbenchable)}; "
            f"benchable: gpu, arm"
        )
    run_gpu = "gpu" in backends
    run_arm = "arm" in backends and not smoke
    if not (run_gpu or run_arm):
        raise ValueError(
            "nothing to bench: the arm section has no --smoke variant "
            "(drop --smoke, or bench --backend gpu)")
    t_start = time.time()
    obs_metrics.reset()  # the metrics block describes this run only
    gpu_phases = [PhaseReport(name) for name in ("serial", "cold", "warm")]
    arm_phases = [PhaseReport(name) for name in ("cold", "warm")]
    identical_best = identical_series = arm_identical = True
    with ExitStack() as stack:
        tracer = (stack.enter_context(obs_trace.capture())
                  if trace_path is not None else None)
        run_settings = stack.enter_context(_isolated_cache_dir(cache_dir))
        ref_best = ref_series = arm_ref = None
        for repeat in range(REPEATS):
            with _empty_repeat_cache(run_settings.cache_dir, repeat):
                if run_gpu:
                    for phase, engine in zip(gpu_phases, (False, True, True)):
                        _run_gpu_phase(
                            phase, model=model, batch=batch, smoke=smoke,
                            jobs=jobs if engine else 1,
                            engine=engine, persistent=engine,
                        )
                    serial, cold, warm = gpu_phases
                    if ref_best is None:
                        ref_best, ref_series = serial.best, serial.series
                    # exact float equality is the point: bit-for-bit
                    identical_best &= (
                        ref_best == serial.best == cold.best == warm.best)
                    identical_series &= (
                        ref_series == serial.series == cold.series
                        == warm.series)
                if run_arm:
                    for phase in arm_phases:
                        _run_arm_phase(phase, model=model)
                    arm_cold, arm_warm = arm_phases
                    if arm_ref is None:
                        arm_ref = arm_cold.series
                    arm_identical &= (
                        arm_ref == arm_cold.series == arm_warm.series)

    gpu_section = None
    if run_gpu:
        serial, cold, warm = gpu_phases
        speedup_cold = serial.seconds / cold.seconds if cold.seconds else None
        speedup_warm = serial.seconds / warm.seconds if warm.seconds else None
        gpu_section = {
            "serial": serial.as_dict(),
            "cold": cold.as_dict(),
            "warm": warm.as_dict(),
            "speedup_cold": round(speedup_cold, 3) if speedup_cold else None,
            "speedup_warm": round(speedup_warm, 3) if speedup_warm else None,
            "identical_best": identical_best,
            "identical_series": identical_series,
        }
    arm_section = None
    if run_arm:
        arm_cold, arm_warm = arm_phases
        arm_section = {
            "cold": arm_cold.as_dict(),
            "warm": arm_warm.as_dict(),
            "speedup_warm": round(arm_cold.seconds / arm_warm.seconds, 3)
            if arm_warm.seconds else None,
            "identical_series": arm_identical,
        }

    from ..obs.history import git_sha, machine_fingerprint

    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "smoke" if smoke else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(t_start)),
        "git_sha": git_sha(),
        "fingerprint": machine_fingerprint(),
        "host": {"python": platform.python_version(),
                 "platform": platform.platform(),
                 "cpus": os.cpu_count()},
        "model": model,
        "batch": batch,
        "jobs": resolve_jobs(jobs),
        "backends": list(backends),
        "gpu_autotune": gpu_section,
        "arm_schedule": arm_section,
        "metrics": obs_metrics.snapshot(),
        # additive block (no schema bump): every knob the run resolved,
        # so the run can be replayed from its own artifact
        "settings": run_settings.as_dict(),
    }

    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "smoke" if smoke else f"{model}_b{batch}"
    path = out_dir / f"BENCH_autotune_{suffix}.json"
    # atomic + fsynced: a crash mid-write leaves the previous report (or
    # nothing), never a torn BENCH_*.json for CI to choke on
    res_atomic.atomic_write_json(
        path, payload, site="bench.write", key=path.name, indent=2)

    echo(f"== bench: {model} batch {batch}"
         f"{' (smoke)' if smoke else ''}, median of {REPEATS} runs ==")
    if gpu_section is not None:
        serial, cold, warm = gpu_phases
        echo(f"serial baseline : {serial.seconds:8.3f} s "
             f"(±{serial.iqr:.0%} IQR, {serial.evaluated} profile runs)")
        echo(f"engine cold     : {cold.seconds:8.3f} s  "
             f"speedup {gpu_section['speedup_cold']}x  "
             f"(pruned {cold.pruned}/{cold.candidates} candidates)")
        echo(f"engine warm     : {warm.seconds:8.3f} s  "
             f"speedup {gpu_section['speedup_warm']}x  "
             f"(cache hit rate {warm.cache.get('hit_rate', 0.0):.0%})")
        cold_cps = gpu_section["cold"]["candidates_per_sec"]
        echo(f"pricing mode    : {cold.pricing_mode}  "
             f"(cold {cold_cps if cold_cps is not None else '—'} candidates/s)")
        echo(f"identical best tilings: {identical_best}   "
             f"identical figure series: {identical_series}")
    if arm_section:
        echo(f"arm fig7 cold/warm: {arm_section['cold']['seconds']:.3f} s / "
             f"{arm_section['warm']['seconds']:.3f} s "
             f"(speedup {arm_section['speedup_warm']}x)")
    echo(f"wrote {path}")
    if tracer is not None:
        tpath = tracer.write(trace_path, process_name=f"repro bench {suffix}")
        echo(f"wrote trace {tpath}")
    if not (identical_best and identical_series):
        raise AssertionError(
            "bench equivalence check failed: engine results differ from the "
            f"serial baseline (see {path})"
        )
    if save:
        # only verified runs enter the ledger: the equivalence gate above
        # has already vouched that the engine changed nothing
        from ..obs.history import BenchLedger, build_entry

        figures: dict[str, dict[str, list[float]]] = {}
        model_cycles: dict[str, list] = {}
        wall: dict[str, PhaseReport] = {}
        throughput: dict[str, float] = {}
        if gpu_section is not None:
            model_cycles = dict(gpu_phases[-1].best)
            for phase in gpu_phases:
                wall[f"gpu_{phase.name}"] = phase
                figures.update(phase.series)
                cps = phase.candidates_per_sec
                if cps is not None:
                    throughput[f"gpu_{phase.name}"] = cps
        if arm_section is not None:
            for phase in arm_phases:
                wall[f"arm_{phase.name}"] = phase
            figures.update(arm_phases[0].series)
        entry = build_entry(
            kind=payload["kind"],
            model=model,
            batch=batch,
            jobs=payload["jobs"],
            backends=list(backends),
            timestamp=payload["timestamp"],
            model_cycles=model_cycles,
            figures=figures,
            wall_seconds={k: p.seconds for k, p in wall.items()},
            wall_iqr={k: p.iqr for k, p in wall.items()},
            host_probe_s={k: p.host_probe_s for k, p in wall.items()},
            metrics_snapshot=payload["metrics"],
            throughput=throughput or None,
            settings=payload["settings"],
        )
        from ..errors import ReproError

        try:
            ledger_path = BenchLedger(history_dir).append(entry)
        except (OSError, ReproError) as exc:
            # the bench run itself succeeded and its report is on disk;
            # losing one history line degrades, it does not fail the run
            obs_metrics.counter("ledger_entries", outcome="failed").inc()
            obs_log.warning(
                "ledger_append_failed", logger="repro.perf.bench",
                error=type(exc).__name__,
            )
            echo(f"WARNING: ledger append failed ({type(exc).__name__}); "
                 f"run not recorded in history")
        else:
            echo(f"appended ledger entry {entry['run_id']} -> {ledger_path}")
    return path
