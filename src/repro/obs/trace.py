"""Spans, and the tracer: an unbounded subscriber to the event stream.

Usage::

    from repro.obs import trace

    with trace.capture() as tracer:          # install a tracer
        with trace.span("autotune", bits=4): # record spans anywhere below
            ...
    tracer.write("out.json")                 # load in Perfetto

Design rules:

* **One event stream, two sinks.**  A span is recorded as one
  :class:`~repro.obs.flight.FlightEvent` through
  :func:`repro.obs.flight.record_span`, which fans it out to the bounded
  flight ring (on unless ``REPRO_FLIGHT=0``) and to the installed
  :class:`Tracer` (while one is).  Instants come from
  :func:`repro.obs.flight.instant` and reach the same sinks, so a tracer
  holds fault injections, breaker transitions and autotune sweep
  markers next to the spans they belong to.
* **Cheap by default.**  ``span()`` reads two module globals; with no
  tracer installed and the flight ring disabled it returns a shared
  stateless null context manager.  With only the (default-on) ring
  active, a span costs one context derivation, two clock reads and a
  ring append — both regimes are bounded by tests
  (``tests/test_obs_trace.py``, ``tests/test_obs_flight.py``).
* **Thread-safe and nestable.**  Events record their OS thread id, so the
  :class:`~repro.perf.parallel.ParallelRunner` workers appear as separate
  tracks in Perfetto; recording appends under a lock.  Every real span
  derives a :class:`~repro.obs.flight.TraceContext` on entry, so events
  carry explicit ``trace_id``/``span_id``/``parent_id`` linkage on top
  of the visual time-containment nesting.
* **Timestamps share one monotonic base**
  (:func:`repro.obs.flight.monotonic_us`), so events recorded by
  different workers (or different sinks) merge in a consistent order.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterator

from . import flight as _flight

monotonic_us = _flight.monotonic_us


class _Span:
    """Live span context manager: derives a trace context on entry and
    records one span event on exit."""

    __slots__ = ("_name", "_cat", "_args", "_start", "_ctx", "_prev")

    def __init__(self, name: str, cat: str, args: dict) -> None:
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0
        self._ctx: _flight.TraceContext | None = None
        self._prev: _flight.TraceContext | None = None

    def __enter__(self) -> "_Span":
        self._prev = _flight.current_context()
        self._ctx = _flight.derive(self._prev)
        _flight._set_context(self._ctx)
        self._start = monotonic_us()
        return self

    def __exit__(self, *exc) -> None:
        end = monotonic_us()
        _flight._set_context(self._prev)
        ctx = self._ctx
        assert ctx is not None  # __enter__ ran
        _flight.record_span(
            self._name, self._cat, self._args, self._start, end, ctx)


class _NullSpan:
    """Shared no-op stand-in returned while all recording is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer(_flight.FlightRecorder):
    """An unbounded :class:`~repro.obs.flight.FlightRecorder` that,
    while installed, receives every event of the stream.

    Export (:meth:`chrome_trace`, :meth:`write`) is the flight
    recorder's: spans as ``"X"``, instants as ``"i"``.
    """

    process_name = "repro"

    def __init__(self) -> None:
        super().__init__(capacity=None)

    def spans(self) -> list[_flight.FlightEvent]:
        """The recorded span events (instants excluded), oldest first."""
        return _flight.span_events(self.events())


# ---------------------------------------------------------------------------
# Module-level switchboard (the hot-path API)
# ---------------------------------------------------------------------------

_INSTALL_LOCK = threading.Lock()


def active() -> bool:
    """True while a tracer is installed (detailed instrumentation gate).

    Deliberately *not* influenced by the flight ring: per-item detail
    (bound-gap histograms, per-candidate timings) stays gated on an
    explicit tracer so the always-on ring keeps its coarse, bounded
    event rate.
    """
    return _flight._SUBSCRIBER is not None


def current() -> Tracer | None:
    return _flight._SUBSCRIBER  # type: ignore[return-value]


def install(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process tracer."""
    tracer = tracer if tracer is not None else Tracer()
    with _INSTALL_LOCK:
        _flight._subscribe(tracer)
    return tracer


def uninstall() -> Tracer | None:
    """Remove and return the installed tracer (None if none was)."""
    with _INSTALL_LOCK:
        return _flight._subscribe(None)  # type: ignore[return-value]


@contextlib.contextmanager
def capture(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install a tracer for the ``with`` body, restoring the previous one.

    The yielded tracer keeps its events after exit, ready for
    :meth:`Tracer.write`.
    """
    installed = tracer if tracer is not None else Tracer()
    with _INSTALL_LOCK:
        prev = _flight._subscribe(installed)
    try:
        yield installed
    finally:
        with _INSTALL_LOCK:
            _flight._subscribe(prev)


def span(name: str, *, cat: str = "repro", **args: Any):
    """A span recorded by every active sink, or a shared no-op when
    none is."""
    if not _flight.recording():
        return _NULL_SPAN
    return _Span(name, cat, args)


__all__ = [
    "Tracer", "active", "capture", "current", "install", "monotonic_us",
    "span", "uninstall",
]
