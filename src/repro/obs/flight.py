"""The one event stream: trace contexts, the event type and its sinks.

Every span and instant event in the library is a :class:`FlightEvent`,
recorded through one path (:func:`record_span` / :func:`instant`, which
:func:`repro.obs.trace.span` calls on exit) that fans it out to every
active sink:

* **Trace contexts.**  :class:`TraceContext` is the ``(trace_id,
  span_id, parent_id)`` triple carried in a thread-local.  Every real
  span derives a child context on entry and restores its parent on
  exit, so events know their position in the request tree.
  :class:`repro.perf.parallel.ParallelRunner` re-activates the caller's
  context inside worker threads, so a parallel autotune sweep produces
  one coherent parent-child tree instead of per-thread islands.

* **The ring sink.**  A process-wide, bounded ring buffer
  (:class:`FlightRecorder`, :data:`DEFAULT_CAPACITY` events) that
  receives every event while enabled — no tracer installation required.
  :func:`capture` hands a block's events to a test or a CI gate, and
  :meth:`FlightRecorder.write` exports them as a Chrome ``trace_event``
  file.  Old events fall off the back; the ring holds flat row tuples
  (events are built when read), never grows unbounded and never blocks
  the hot path for more than one lock-guarded append.  Enabled by
  default; ``REPRO_FLIGHT=0`` (:attr:`repro.settings.Settings.flight`,
  read once at import) or :func:`disable` turns it off.

* **The tracer sink.**  An installed :class:`repro.obs.trace.Tracer`
  (``trace.capture()``) is an unbounded :class:`FlightRecorder`
  subscribed to the same stream, so a deliberate profiling session sees
  exactly what the ring sees — spans, fault injections, breaker
  transitions and autotune sweep markers alike.  With no tracer and the
  ring off, recording is the strict no-op path; the disabled and the
  enabled-but-idle costs are both bounded by tests
  (``tests/test_obs_flight.py``).

* **Clocks.**  All timestamps come from one module-level monotonic base
  (:func:`monotonic_us`), so events recorded by different threads of
  one process merge in a consistent order.  Wall-clock enters only as
  the trace *epoch* (:func:`wall_epoch_us`), recorded once at import
  and exported as metadata — the anchor for aligning dumps from
  different processes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple

from .. import settings

#: ring capacity (events); at the library's coarse span rate this holds
#: minutes of history in ~a few MB
DEFAULT_CAPACITY = 65536

# ---------------------------------------------------------------------------
# Clocks: one monotonic base per process, wall-clock only as the epoch
# ---------------------------------------------------------------------------

_EPOCH_PERF = time.perf_counter()
_EPOCH_WALL_US = time.time() * 1e6


def monotonic_us() -> float:
    """Microseconds since the module epoch — monotonic, shared by every
    thread of the process, comparable across tracers and the recorder."""
    return (time.perf_counter() - _EPOCH_PERF) * 1e6


def wall_epoch_us() -> float:
    """Wall-clock microseconds (Unix epoch) at the monotonic base.

    ``wall_epoch_us() + monotonic_us()`` approximates absolute wall time;
    it is exported as trace metadata so dumps from different processes
    (each with its own monotonic base) can be aligned offline.
    """
    return _EPOCH_WALL_US


# ---------------------------------------------------------------------------
# Trace context
# ---------------------------------------------------------------------------

_ID_COUNTER = itertools.count(1)
#: per-process id prefix: pid + startup wall clock, so ids in dumps from
#: different processes never collide when merged offline
_ID_PREFIX = f"{os.getpid() & 0xFFFF:04x}{int(_EPOCH_WALL_US) & 0xFFFFFF:06x}"


def _next_id() -> str:
    return f"{_ID_PREFIX}{next(_ID_COUNTER):08x}"


class TraceContext(NamedTuple):
    """Position of the current operation in a trace tree.

    A cheap immutable tuple, so :class:`~repro.perf.parallel.ParallelRunner`
    hands the submitting span's context to its worker threads as-is.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def child(self) -> "TraceContext":
        """A fresh child context: same trace, new span, parent = self."""
        return TraceContext(self.trace_id, _next_id(), self.span_id)


def new_trace() -> TraceContext:
    """A root context starting a brand-new trace."""
    return TraceContext(_next_id(), _next_id(), None)


def derive(parent: "TraceContext | None") -> TraceContext:
    """A child of ``parent``, or a fresh root when there is no parent."""
    return parent.child() if parent is not None else new_trace()


class _ThreadState(threading.local):
    ctx: "TraceContext | None" = None  # a default: no failed lookup


_TLS = _ThreadState()


def current_context() -> "TraceContext | None":
    """The context active on this thread (None outside any span)."""
    return _TLS.ctx


def _set_context(ctx: "TraceContext | None") -> None:
    """Install ``ctx`` on this thread (the span fast path; no nesting
    bookkeeping — callers restore the previous value themselves)."""
    _TLS.ctx = ctx


@contextlib.contextmanager
def context(ctx: "TraceContext | None") -> Iterator["TraceContext | None"]:
    """Activate ``ctx`` for the block (the worker-side propagation hook).

    ``context(None)`` is a no-op: propagating "no context" costs nothing
    and changes nothing, so callers never need to branch.
    """
    if ctx is None:
        yield None
        return
    prev = current_context()
    _set_context(ctx)
    try:
        yield ctx
    finally:
        _set_context(prev)


# ---------------------------------------------------------------------------
# Events and the ring buffer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlightEvent:
    """One recorded span ("span") or marker ("instant").

    ``ts_us`` is module-monotonic (see :func:`monotonic_us`); exports
    re-anchor on the wall epoch.
    """

    kind: str
    name: str
    cat: str
    ts_us: float
    dur_us: float
    tid: int
    trace_id: str
    span_id: str
    parent_id: str | None = None
    args: dict[str, Any] = field(default_factory=dict)


class FlightRecorder:
    """Thread-safe ring of event rows; a ``None`` capacity makes it
    unbounded (the tracer sink).  A row is one flat tuple: the
    :class:`FlightEvent` fields before ``args``, then the args keys,
    then their values.  Unlike an event object or a dict, a tuple of
    atomic values drops out of the cycle collector, so a filling ring
    triggers no full collections."""

    #: default ``process_name`` of the Chrome export
    process_name = "repro flight"

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._rows: deque[tuple] = deque(maxlen=capacity)
        self._thread_names: dict[int, str] = {}
        self._total = 0

    # -- recording ----------------------------------------------------------

    def record(self, event: FlightEvent) -> None:
        args = event.args
        self._append((
            event.kind, event.name, event.cat, event.ts_us, event.dur_us,
            event.tid, event.trace_id, event.span_id, event.parent_id,
            *args, *args.values()))

    def _append(self, row: tuple) -> None:
        tid = row[5]  # names the caller's track only if it is its ident
        with self._lock:
            self._rows.append(row)
            self._total += 1
            if tid not in self._thread_names and tid == threading.get_ident():
                self._thread_names[tid] = threading.current_thread().name

    # -- introspection ------------------------------------------------------

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (>= ``len`` once the ring has wrapped)."""
        with self._lock:
            return self._total

    @property
    def dropped(self) -> int:
        """Events evicted off the back of the ring so far."""
        with self._lock:
            return self._total - len(self._rows)

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def events(self) -> list[FlightEvent]:
        """A snapshot of the ring, oldest first."""
        with self._lock:
            rows = list(self._rows)
        return [FlightEvent(*r[:9], args=_row_args(r)) for r in rows]

    def resize(self, capacity: int) -> None:
        """Change the ring capacity, keeping the newest events."""
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        with self._lock:
            self._rows = deque(self._rows, maxlen=capacity)

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self._thread_names.clear()
            self._total = 0

    # -- export -------------------------------------------------------------

    def chrome_trace(self, *, process_name: str | None = None) -> dict:
        """The Chrome ``trace_event`` object format (Perfetto-loadable).

        ``ts`` is relative to the oldest exported event; the wall-clock
        anchor of that origin rides in ``otherData.trace_epoch_wall_us``
        so dumps from different processes can be merged offline.  Spans
        become ``"X"`` events, instants ``"i"`` events; trace ids travel
        in ``args`` (the same ``span_id``/``parent_id`` keys
        :func:`repro.obs.diff.spans_from_chrome` aligns trees by, so two
        exports diff directly).  This is the one Chrome exporter: the
        tracer sink inherits it.
        """
        events = self.events()
        with self._lock:
            thread_names = dict(self._thread_names)
        pid = os.getpid()
        t0 = min((e.ts_us for e in events), default=0.0)
        out: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name or self.process_name},
        }]
        for tid, tname in sorted(thread_names.items()):
            out.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": tname},
            })
        for e in events:
            args = {k: _jsonable(v) for k, v in e.args.items()}
            args["trace_id"] = e.trace_id
            args["span_id"] = e.span_id
            if e.parent_id is not None:
                args["parent_id"] = e.parent_id
            ev: dict[str, Any] = {
                "name": e.name, "cat": e.cat,
                "ts": round(e.ts_us - t0, 3),
                "pid": pid, "tid": e.tid, "args": args,
            }
            if e.kind == "span":
                ev["ph"] = "X"
                ev["dur"] = round(e.dur_us, 3)
            else:
                ev["ph"] = "i"
                ev["s"] = "t"  # thread-scoped instant
            out.append(ev)
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_epoch_wall_us": round(wall_epoch_us() + t0, 3),
                "events_recorded": self.total_recorded,
                "events_dropped": self.dropped,
            },
        }

    def write(
        self, path: str | os.PathLike, *, process_name: str | None = None,
    ) -> pathlib.Path:
        """Serialize :meth:`chrome_trace` to ``path``; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = self.chrome_trace(process_name=process_name)
        path.write_text(
            json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        return path


def _row_args(row: tuple) -> dict[str, Any]:
    """The args dict of a ring row (keys, then values, after the header)."""
    n = (len(row) - 9) // 2
    return dict(zip(row[9:9 + n], row[9 + n:]))


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


# ---------------------------------------------------------------------------
# Trace-tree validation (tests + the CI telemetry gate)
# ---------------------------------------------------------------------------


def span_events(events: Iterable[FlightEvent]) -> list[FlightEvent]:
    return [e for e in events if e.kind == "span"]


def unresolved_parents(events: Iterable[FlightEvent]) -> list[FlightEvent]:
    """Events whose ``parent_id`` does not resolve to a recorded span.

    Spans land in the ring at *exit*, so children precede their parents
    in buffer order — resolution is order-insensitive.  On a healthy,
    un-wrapped buffer covering a whole operation this returns ``[]``;
    eviction of old parents is the one legitimate source of orphans.
    """
    events = list(events)
    known = {(e.trace_id, e.span_id) for e in span_events(events)}
    return [
        e for e in events
        if e.parent_id is not None and (e.trace_id, e.parent_id) not in known
    ]


def trace_ids(events: Iterable[FlightEvent]) -> set[str]:
    return {e.trace_id for e in events}


# ---------------------------------------------------------------------------
# The process recorder and the enablement switch
# ---------------------------------------------------------------------------


_RECORDER = FlightRecorder(DEFAULT_CAPACITY)
_ENABLED = settings.current().flight


#: the installed tracer sink (see :mod:`repro.obs.trace`), or None
_SUBSCRIBER: FlightRecorder | None = None


def enabled() -> bool:
    """True while the ring sink accepts events."""
    return _ENABLED


def recording() -> bool:
    """True while any sink accepts events — the ring or an installed
    tracer.  The one hot-path gate for spans, instants and exemplars."""
    return _ENABLED or _SUBSCRIBER is not None


def _subscribe(sink: FlightRecorder | None) -> FlightRecorder | None:
    """Install ``sink`` as the tracer sink; returns the previous one.
    Callers serialize installation themselves (``trace._INSTALL_LOCK``)."""
    global _SUBSCRIBER
    prev, _SUBSCRIBER = _SUBSCRIBER, sink
    return prev


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


@contextlib.contextmanager
def suspended() -> Iterator[None]:
    """Disable the recorder for the block (tests, overhead baselines)."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = prev


@contextlib.contextmanager
def capture() -> Iterator[FlightRecorder]:
    """Enable the recorder on a cleared ring for the block (test helper).

    Restores the previous enablement and drops the block's events from
    consideration by yielding the recorder itself for inspection.
    """
    global _ENABLED
    prev = _ENABLED
    _RECORDER.clear()
    _ENABLED = True
    try:
        yield _RECORDER
    finally:
        _ENABLED = prev


# ---------------------------------------------------------------------------
# The recording path (what the trace layer and instrumented sites call)
# ---------------------------------------------------------------------------


def _emit(row: tuple) -> None:
    """Fan one event row out to every active sink."""
    if _ENABLED:
        _RECORDER._append(row)
    sink = _SUBSCRIBER
    if sink is not None:
        sink._append(row)


def name_track(tid: int, name: str) -> None:
    """Label a virtual track (no OS thread) in every active sink."""
    for sink in (_RECORDER if _ENABLED else None, _SUBSCRIBER):
        if sink is not None:
            with sink._lock:
                sink._thread_names[tid] = name


def record_span(
    name: str, cat: str, args: dict, start_us: float, end_us: float,
    ctx: tuple[str, str, str | None], *, tid: int | None = None,
) -> None:
    """Record one completed span (no-op while no sink is active); ``ctx``
    is its ``(trace_id, span_id, parent_id)``, e.g. a TraceContext."""
    if not (_ENABLED or _SUBSCRIBER is not None):
        return
    trace_id, span_id, parent_id = ctx
    dur_us = end_us - start_us
    _emit(("span", name, cat, start_us, dur_us if dur_us > 0.0 else 0.0,
           tid if tid is not None else threading.get_ident(),
           trace_id, span_id, parent_id, *args, *args.values()))


def record_child_span(
    name: str, cat: str, args: dict, start_us: float, end_us: float,
    parent: TraceContext, *, tid: int | None = None,
) -> str | None:
    """Record one completed span as a fresh child of ``parent`` and
    return its span id (None, recording nothing, while no sink is
    active): ``record_span(..., parent.child())`` without the context."""
    if not (_ENABLED or _SUBSCRIBER is not None):
        return None
    span_id = _next_id()
    record_span(name, cat, args, start_us, end_us,
                (parent.trace_id, span_id, parent.span_id), tid=tid)
    return span_id


def instant(name: str, *, cat: str = "repro", **args: Any) -> None:
    """Record a structured marker event under the current context.

    The marker gets its own span id (child of the active span, or a
    fresh root), so instants are addressable in the tree — a histogram
    exemplar or a log line can point at one fault injection.  No-op
    while no sink is active.
    """
    if not (_ENABLED or _SUBSCRIBER is not None):
        return
    trace_id, span_id, parent_id = derive(current_context())
    _emit(("instant", name, cat, monotonic_us(), 0.0, threading.get_ident(),
           trace_id, span_id, parent_id, *args, *args.values()))
