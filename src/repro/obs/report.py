"""``python -m repro profile`` — run one artifact under full observability.

Runs a figure (``fig7``..``fig17``, ``tab1``) or a whole model
(``resnet50`` | ``scr-resnet50`` | ``densenet121``, priced end-to-end on
every registered backend — or one, with ``--backend``) inside a fresh
tracer + metrics window, then reports:

* a text summary — wall time, span totals by name, cache hit/miss rates,
  autotune evaluated/pruned tallies, the hottest per-layer cycle entries;
* ``--trace out.json`` — the Chrome ``trace_event`` file (open in
  ``chrome://tracing`` or https://ui.perfetto.dev);
* ``--metrics out.json`` — the full metrics snapshot.

The metrics window is process-global, so the command resets the registry
up front: the emitted numbers describe this run only.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections import defaultdict
from typing import Callable

from . import metrics as obs_metrics
from . import trace as obs_trace

MODELS = ("resnet50", "scr-resnet50", "densenet121")


def resolve_target(
    target: str, model: str, batch: int, backend: str | None = None
) -> Callable[[], object]:
    """A zero-argument callable reproducing ``target`` (or raise KeyError)."""
    if target in MODELS:
        def run_model():
            from ..backends import available_backends
            from ..models import get_model_layers
            from ..runtime.network import estimate_model_cycles

            names = (backend,) if backend else available_backends()
            layers = get_model_layers(target, batch=batch)
            return {
                name: estimate_model_cycles(layers, 8, name)
                for name in names
            }

        return run_model
    if target == "tab1":
        from ..figures import tab1_configurations

        return tab1_configurations
    from ..figures import figure_registry

    registry = figure_registry()
    if target not in registry:
        raise KeyError(target)
    fn = registry[target]
    return lambda: fn(model=model, batch=batch)


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _span_summary(tracer: obs_trace.Tracer, limit: int = 12) -> list[str]:
    groups: dict[str, list[float]] = defaultdict(list)
    for event in tracer.spans():
        groups[event.name].append(event.dur_us)
    if not groups:
        return ["  (no spans recorded)"]
    rows = sorted(
        ((sum(durs), len(durs), max(durs), name)
         for name, durs in groups.items()),
        reverse=True,
    )
    lines = [f"  {'span':<28} {'count':>6} {'total ms':>10} {'max ms':>9}"]
    for total, count, peak, name in rows[:limit]:
        lines.append(
            f"  {name:<28} {count:>6} {total / 1e3:>10.3f} {peak / 1e3:>9.3f}"
        )
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more span names")
    return lines


def _counter_summary(counters: dict[str, float]) -> list[str]:
    if not counters:
        return ["  (no counters recorded)"]
    return [f"  {key:<52} {value}" for key, value in counters.items()]


def _histogram_summary(histograms: dict[str, dict]) -> list[str]:
    lines = []
    for key, h in histograms.items():
        lines.append(
            f"  {key:<40} n={h['count']} mean={h['mean']:.4g} "
            f"min={h['min']:.4g} max={h['max']:.4g}"
        )
    return lines or ["  (no histograms recorded)"]


def _gauge_summary(gauges: dict[str, float], limit: int = 10) -> list[str]:
    """Per-layer cycle gauges grouped by metric name, largest first."""
    by_name: dict[str, list[tuple[float, str]]] = defaultdict(list)
    for key, value in gauges.items():
        name = key.split("{", 1)[0]
        by_name[name].append((value, key))
    lines = []
    for name in sorted(by_name):
        entries = sorted(by_name[name], reverse=True)
        lines.append(f"  {name}: {len(entries)} series")
        for value, key in entries[:limit]:
            label = key[len(name):].strip("{}")
            lines.append(f"    {label:<46} {value:.6g}")
        if len(entries) > limit:
            lines.append(f"    ... {len(entries) - limit} more")
    return lines or ["  (no gauges recorded)"]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_profile(
    target: str,
    *,
    model: str = "resnet50",
    batch: int = 1,
    backend: str | None = None,
    trace_path: str | os.PathLike | None = None,
    metrics_path: str | os.PathLike | None = None,
    echo: Callable[[str], None] = print,
) -> int:
    """Profile one artifact; returns a process exit code.

    ``backend`` restricts model targets to one registered backend
    (default: price on every registered backend); figure targets carry
    their backend by construction and ignore it.  Two ``trace_path``
    files (or two ``metrics_path`` files) are what ``repro diff A B``
    compares.
    """
    if backend is not None:
        from ..backends import get_backend
        from ..errors import ReproError

        try:
            get_backend(backend)
        except ReproError as exc:
            echo(str(exc))
            return 2
    try:
        runner = resolve_target(target, model, batch, backend)
    except KeyError:
        echo(f"unknown profile target {target!r}; use fig7..fig17, tab1, "
             f"or one of {', '.join(MODELS)}")
        return 2

    obs_metrics.reset()
    t0 = time.perf_counter()
    try:
        with obs_trace.capture() as tracer:
            with obs_trace.span("profile", target=target, model=model,
                                batch=batch):
                result = runner()
    except BaseException:
        # a failing figure must not leak this run's half-filled metrics
        # window into later callers/tests (capture() already restores the
        # tracer on its own finally path)
        obs_metrics.reset()
        raise
    seconds = time.perf_counter() - t0

    roofline_lines: list[str] = []
    if target in MODELS:
        from . import roofline as obs_roofline

        from ..errors import ReproError

        names = (backend,) if backend else tuple(result)
        for name in names:
            try:
                points = obs_roofline.model_roofline(
                    target, name, batch=batch)
            except ReproError:  # a backend without roofline hooks
                continue
            roofline_lines.append(f"roofline [{name}]:")
            roofline_lines += obs_roofline.roofline_table(points, limit=8)
            roofline_lines += obs_roofline.ascii_roofline(points)
    snap = obs_metrics.snapshot()

    echo(f"== profile {target} (model {model}, batch {batch}) ==")
    echo(f"wall time: {seconds:.3f} s   spans: {len(tracer.spans())}")
    echo("spans by total time:")
    for line in _span_summary(tracer):
        echo(line)
    echo("counters:")
    for line in _counter_summary(snap["counters"]):
        echo(line)
    echo("histograms:")
    for line in _histogram_summary(snap["histograms"]):
        echo(line)
    echo("per-layer cycles (gauges):")
    for line in _gauge_summary(snap["gauges"]):
        echo(line)
    for line in roofline_lines:
        echo(line)

    if trace_path is not None:
        path = tracer.write(trace_path, process_name=f"repro profile {target}")
        echo(f"wrote trace    {path}  (open in chrome://tracing or Perfetto)")
    if metrics_path is not None:
        payload = {
            "target": target,
            "model": model,
            "batch": batch,
            "wall_seconds": round(seconds, 6),
            **snap,
        }
        path = pathlib.Path(metrics_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # sort_keys keeps the layout stable, so two runs diff line by line
        # (timings and exemplar span ids still differ from run to run)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        echo(f"wrote metrics  {path}")
    return 0
