"""Spans and tallies recorded by the benchmark around the program's layers.

Nothing here edits the program: :func:`install` wraps public functions and
methods of ``repro`` from outside, replacing every module-level reference
to the original so ``from x import f`` copies are wrapped too.  Spans
(name, start, end, span id, parent id) are kept in memory and written once,
at the end of a traced run, as a Chrome ``trace_event`` document that
``python -m repro diff`` can align against another run.

Very hot calls (the serve cost-table lookups, ~10^5 per replay) are
tallied instead: a call count and the time inside, with no span each.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

_NULL = contextlib.nullcontext()


class NullRecorder:
    """What the untraced runs use: spans and counters cost nothing."""

    def span(self, name, **args):
        return _NULL

    def add(self, name, value=1):
        pass

    def set(self, name, value):
        pass


class Recorder:
    """In-memory span log plus per-name totals and counters."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, span_id, parent_id, tid, args)
        self.total_s = defaultdict(float)  # outermost time per span name
        self.calls = Counter()  # outermost calls per span name
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    # -- per-thread span stack ------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, **args):
        stack = self._stack()
        parent = stack[-1] if stack else None
        outermost = all(s[1] != name for s in stack)
        span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            record = (name, start, end, span_id,
                      parent[0] if parent else None,
                      threading.get_ident(), args)
            with self._lock:
                self.spans.append(record)
                if outermost:
                    self.total_s[name] += (end - start) / 1e9
                    self.calls[name] += 1

    def add(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    def set(self, name, value):
        with self._lock:
            self.counts[name] = value

    def tally(self, name, fn):
        """Wrap a hot call: count outermost calls and the time inside."""
        local = self._local

        def wrapper(*args, **kwargs):
            depth = getattr(local, name, 0)
            if depth:
                return fn(*args, **kwargs)
            setattr(local, name, 1)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                setattr(local, name, 0)
                with self._lock:
                    self.calls[name] += 1
                    self.total_s[name] += elapsed / 1e9

        return wrapper

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` adds counts.

        ``name`` may be a callable of the call's arguments, for spans
        labelled by the receiver (a backend or cache namespace).
        """

        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- export -----------------------------------------------------------------

    def chrome_trace(self):
        base = min((s[1] for s in self.spans), default=0)
        events = []
        for name, start, end, span_id, parent_id, tid, args in sorted(
                self.spans, key=lambda s: s[1]):
            events.append({
                "name": name, "ph": "X", "cat": name.split(".", 1)[0],
                "ts": (start - base) / 1e3, "dur": (end - start) / 1e3,
                "pid": self._pid, "tid": tid,
                "args": {**args, "span_id": span_id, "parent_id": parent_id},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path):
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, separators=(",", ":"))
        os.replace(tmp, path)


def _replace_everywhere(orig, new):
    """Point every ``repro`` module attribute bound to ``orig`` at ``new``."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install(rec):
    """Wrap the public entry points of each layer with spans from ``rec``."""
    # by module path: some packages re-export a function of the same name
    gpu_autotune = importlib.import_module("repro.gpu.autotune")
    policy = importlib.import_module("repro.resilience.policy")
    workload = importlib.import_module("repro.serve.workload")
    import repro.arm.kernels as arm_kernels
    from repro.arm.kernels.base import MicroKernel
    from repro.arm.pipeline import PipelineModel
    from repro.backends.base import Backend
    from repro.backends.arm import ArmBackend
    from repro.perf.cache import PersistentCache
    from repro.serve.cost import CostTable
    from repro.serve.server import ServeSim

    def after_schedule(result, args):
        rec.add("arm.schedule.instrs", result.instructions)

    PipelineModel.schedule = rec.wrap(
        "arm.schedule", PipelineModel.schedule, after_schedule)

    sweeps, sweeps_lock = set(), threading.Lock()

    def after_autotune(result, args):
        # the search counts once per distinct sweep, however often it is
        # looked up again and whether it ran here or came from the cache
        key = (result.gemm, result.bits)
        with sweeps_lock:
            if key in sweeps:
                return
            sweeps.add(key)
        rec.add("gpu.autotune.candidates", result.candidates)
        rec.add("gpu.autotune.evaluated", result.evaluated)
        rec.add("gpu.autotune.pruned", result.pruned)

    tuned = rec.wrap(
        "gpu.autotune", gpu_autotune.autotune_conv, after_autotune)
    _replace_everywhere(gpu_autotune.autotune_conv, tuned)

    def prewarm_label(self, *args):
        return f"backends.{self.name}.prewarm"

    for cls in (Backend, ArmBackend):
        cls.prewarm = rec.wrap(prewarm_label, cls.__dict__["prewarm"])

    def after_get(result, args):
        outcome = "miss" if result is None else "hit"
        rec.add(f"perf.cache.{args[0].namespace}.{outcome}")

    PersistentCache.get = rec.wrap(
        lambda self, *a: f"perf.cache.{self.namespace}.get",
        PersistentCache.get, after_get)
    PersistentCache.put = rec.wrap(
        lambda self, *a: f"perf.cache.{self.namespace}.put",
        PersistentCache.put)

    CostTable.build = classmethod(rec.wrap(
        "serve.cost.build", CostTable.__dict__["build"].__func__))
    for method in ("service", "per_image", "best_batch"):
        setattr(CostTable, method,
                rec.tally("serve.cost.lookup", getattr(CostTable, method)))
    _replace_everywhere(workload.generate_trace, rec.wrap(
        "serve.workload.generate", workload.generate_trace))
    ServeSim.run = rec.wrap("serve.sim.run", ServeSim.run)
    _replace_everywhere(policy.call_with_policy, rec.wrap(
        "resilience.policy", policy.call_with_policy))

    def after_execute(result, args):
        rec.add("arm.simulator.instrs", len(args[0].stream))

    MicroKernel.execute = rec.wrap(
        "arm.simulator", MicroKernel.execute, after_execute)
    for gen in ("generate_mla_kernel", "generate_smlal_kernel",
                "generate_ncnn_kernel"):
        orig = getattr(arm_kernels, gen)
        _replace_everywhere(orig, rec.wrap("arm.kernels.generate", orig))


def _rate(num, seconds):
    return num / seconds if seconds > 0 else 0.0


def layer_metrics(rec, figure_names, models):
    """Per-layer metric values (name -> number) from one traced run.

    Every name is present on every workload; a layer the workload never
    entered reads 0.
    """
    t, c, n = rec.total_s, rec.calls, rec.counts
    out = {}
    for fig in figure_names:
        out[f"figures.{fig}.s"] = t[f"figures.{fig}"]
    for model in models:
        out[f"runtime.estimate_model_cycles.{model}.s"] = \
            t[f"runtime.estimate_model_cycles.{model}"]

    out["arm.schedule.s"] = t["arm.schedule"]
    out["arm.schedule.calls"] = c["arm.schedule"]
    out["arm.schedule.instrs"] = n["arm.schedule.instrs"]
    out["arm.schedule.instrs_per_s"] = _rate(
        n["arm.schedule.instrs"], t["arm.schedule"])

    cand = n["gpu.autotune.candidates"]
    out["gpu.autotune.s"] = t["gpu.autotune"]
    out["gpu.autotune.calls"] = c["gpu.autotune"]
    out["gpu.autotune.candidates"] = cand
    out["gpu.autotune.evaluated"] = n["gpu.autotune.evaluated"]
    out["gpu.autotune.pruned_frac"] = (
        n["gpu.autotune.pruned"] / cand if cand else 0.0)
    out["gpu.autotune.candidates_per_s"] = _rate(cand, t["gpu.autotune"])

    for be in ("arm", "gpu"):
        out[f"backends.{be}.prewarm_s"] = t[f"backends.{be}.prewarm"]
    for ns in ("gpu-autotune", "arm-schedule"):
        hits = n[f"perf.cache.{ns}.hit"]
        lookups = hits + n[f"perf.cache.{ns}.miss"]
        out[f"perf.cache.{ns}.hit_rate"] = hits / lookups if lookups else 0.0
        out[f"perf.cache.{ns}.get_s"] = t[f"perf.cache.{ns}.get"]
        out[f"perf.cache.{ns}.put_s"] = t[f"perf.cache.{ns}.put"]

    out["serve.cost.build_s"] = t["serve.cost.build"]
    out["serve.workload.generate_s"] = t["serve.workload.generate"]
    out["serve.sim.run_s"] = t["serve.sim.run"]
    out["serve.cost.lookup_calls"] = c["serve.cost.lookup"]
    out["serve.cost.lookup_s"] = t["serve.cost.lookup"]
    for key in ("batches", "admitted", "shed", "brownout_batches",
                "queue_peak", "goodput", "p99_ms"):
        out[f"serve.sim.{key}"] = n[f"serve.sim.{key}"]
    out["resilience.policy.calls"] = c["resilience.policy"]
    out["resilience.policy.s"] = t["resilience.policy"]
    out["resilience.breaker.opens"] = n["resilience.breaker.opens"]
    out["resilience.faults.injected"] = n["resilience.faults.injected"]

    out["arm.simulator.instrs"] = n["arm.simulator.instrs"]
    out["arm.simulator.instrs_per_s"] = _rate(
        n["arm.simulator.instrs"], t["arm.simulator"])
    for scheme in ("mla", "smlal", "ncnn", "winograd"):
        out[f"arm.exact.{scheme}.macs_per_s"] = _rate(
            n[f"arm.exact.{scheme}.macs"], t[f"arm.exact.{scheme}"])
    out["arm.kernels.generate_s"] = t["arm.kernels.generate"]
    for bits in (4, 8):
        out[f"gpu.implicit_gemm.int{bits}.macs_per_s"] = _rate(
            n[f"gpu.implicit_gemm.int{bits}.macs"],
            t[f"gpu.implicit_gemm.int{bits}"])
    out["gpu.kernelsim.block_s"] = t["gpu.kernelsim.block"]
    out["conv.ref.s"] = t["conv.ref"]
    return {k: float(v) for k, v in out.items()}
