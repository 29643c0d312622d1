"""Observability layer: tracing, metrics and structured logging.

Everything the paper claims rests on measurement — instruction mixes
(Fig. 1/3), profile runs (Sec. 4.5), per-layer speedups (Fig. 7-9) — so
the reproduction carries its own instrumentation:

* :mod:`repro.obs.flight` — the one event stream: every span and
  structured instant event from any thread is a ``FlightEvent`` carrying
  ``TraceContext`` ids, fanned out to two sinks — the always-on bounded
  **flight ring** (``REPRO_FLIGHT=0`` to disable; ``flight.capture()``
  hands a block's events to a test or a CI gate) and the installed
  tracer below — through one Chrome ``trace_event`` exporter;
* :mod:`repro.obs.trace` — ``trace.span("autotune", bits=4)`` context
  managers (nestable, thread-safe) and the ``Tracer``, an unbounded
  subscriber to that stream installed by ``trace.capture()`` or
  ``python -m repro profile``, viewable in ``chrome://tracing`` /
  Perfetto.  With no tracer and the ring off, ``span()`` returns a
  shared null context manager and hot paths pay two global reads.
  Spans are the one attribution model: ``repro diff`` aligns them by
  name path;
* :mod:`repro.obs.metrics` — a process-wide registry of labeled counters,
  gauges and histograms; ``snapshot()`` is its one format (plain JSON,
  histogram buckets and span-id exemplars included).  Coarse, always-on
  events (cache hits/misses, autotune candidates evaluated/pruned,
  per-layer cycle gauges) cost one dict update each; per-candidate detail (bound gaps, worker timings) is
  gated on :func:`trace.active` so the disabled path stays free;
* :mod:`repro.obs.log` — a structured logger gated on
  ``REPRO_LOG=debug|info|warning`` (:mod:`repro.settings`) that turns
  the library's silent degradation paths (corrupt cache entries, stale
  persisted results, executor fallbacks) into key=value events on
  stderr.  Without a level set, records still propagate to
  :mod:`logging` (so tests and host applications can capture them) but
  nothing is printed.

Derived analytics build on those primitives:

* :mod:`repro.obs.roofline` — per-layer arithmetic intensity and
  %-of-roof from the backend cost models, the Fig. 1 CAL/LD ratio and
  the Sec. 3.3 accumulation-chain overhead as live gauges;
* :mod:`repro.obs.history` — the append-only JSONL ledger ``bench
  --save`` writes (schema v3: git sha, machine fingerprint, per-figure
  cycles, per-phase median wall clock and its spread, metrics);
* :mod:`repro.obs.regress` — ``python -m repro regress``, the CI
  perf-regression sentinel over that ledger (cycles bit-identical,
  median wall clock within a threshold widened by the measured spread);
* :mod:`repro.obs.diff` — differential profiling (``python -m repro
  diff A B``): ranked attribution between two runs — tree-aligned span
  deltas, wall-clock phase deltas, counter/histogram deltas and ledger
  changepoint detection; ``diff <baseline-run-id> -1`` explains a
  failing ``regress``;
* :mod:`repro.obs.htmlreport` — the self-contained ``python -m repro
  report --html`` dashboard (roofline scatter, chain-overhead bars,
  ledger trends, attribution card; no external assets).

``python -m repro profile <figure|model>`` (:mod:`repro.obs.report`) is
the one command that runs a target under observation: a fresh tracer +
metrics window, a text summary, and the ``--trace`` (Chrome JSON) and
``--metrics`` (snapshot JSON) files that ``repro diff`` compares.
"""

from __future__ import annotations

from . import flight, log, metrics, trace
from .trace import Tracer, active, capture, span

__all__ = [
    "trace",
    "metrics",
    "log",
    "flight",
    "Tracer",
    "active",
    "capture",
    "span",
]
