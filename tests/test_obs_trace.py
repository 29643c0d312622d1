"""The span tracer: disabled-by-default, nesting, threads, Chrome export.

The contract under test: with no tracer installed every instrumented path
is a no-op (and cheap enough to leave compiled in); under ``capture()``
spans nest, record their thread, and export as a Perfetto-loadable Chrome
``trace_event`` JSON object.
"""

import json
import threading
import time

import pytest

from repro.obs import flight, metrics, trace


def test_disabled_by_default():
    assert trace.active() is False
    assert trace.current() is None
    with flight.suspended():
        # with the flight recorder also off, the null span is shared
        # and stateless — the true zero-cost path
        s1 = trace.span("anything", bits=4)
        s2 = trace.span("else")
        assert s1 is s2
        with s1:
            pass  # records nowhere, raises nothing
        flight.instant("marker")  # also a no-op


def test_spans_land_in_flight_ring_without_a_tracer():
    """No tracer installed, flight recorder on (the default): spans are
    still captured in the ring, carrying trace-context ids."""
    assert trace.active() is False
    with flight.capture() as rec:
        with trace.span("orphanless", cat="test", k=1):
            pass
    spans = flight.span_events(rec.events())
    assert [s.name for s in spans] == ["orphanless"]
    assert spans[0].trace_id and spans[0].span_id
    assert flight.unresolved_parents(rec.events()) == []


def test_instrumented_paths_add_no_spans_when_disabled():
    from repro.perf.parallel import ParallelRunner

    assert not trace.active()
    out = ParallelRunner(2).map(lambda x: x * x, [1, 2, 3])
    assert out == [1, 4, 9]
    assert not trace.active()  # nothing got installed behind our back
    # the same call under a tracer *does* produce spans
    with trace.capture() as tracer:
        ParallelRunner(2).map(lambda x: x * x, [1, 2, 3])
    assert any(r.name == "parallel.map" for r in tracer.spans())


def test_capture_records_nested_spans():
    with trace.capture() as tracer:
        with trace.span("outer", cat="test", layer="conv1"):
            with trace.span("inner", cat="test"):
                time.sleep(0.001)
    assert trace.active() is False  # restored on exit
    by_name = {r.name: r for r in tracer.spans()}
    assert set(by_name) == {"outer", "inner"}
    outer, inner = by_name["outer"], by_name["inner"]
    assert outer.args == {"layer": "conv1"}
    # nesting is time containment on one thread
    assert outer.tid == inner.tid
    assert outer.ts_us <= inner.ts_us
    assert outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us
    assert inner.dur_us >= 500  # the sleep is visible


def test_capture_restores_previous_tracer():
    with trace.capture() as t_outer:
        with trace.span("a"):
            pass
        with trace.capture() as t_inner:
            assert trace.current() is t_inner
            with trace.span("b"):
                pass
        assert trace.current() is t_outer
        with trace.span("c"):
            pass
    assert [r.name for r in t_outer.spans()] == ["a", "c"]
    assert [r.name for r in t_inner.spans()] == ["b"]


def test_install_uninstall():
    tracer = trace.install()
    try:
        assert trace.active() and trace.current() is tracer
        with trace.span("x"):
            pass
    finally:
        assert trace.uninstall() is tracer
    assert not trace.active()
    assert len(tracer) == 1
    assert trace.uninstall() is None  # idempotent


def test_spans_record_thread_ids():
    # all three threads are alive at once, so the OS cannot hand a
    # finished thread's id to the next one
    barrier = threading.Barrier(3)
    with trace.capture() as tracer:
        def work(i):
            with trace.span("worker", idx=i):
                barrier.wait()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    spans = tracer.spans()
    assert len(spans) == 3
    assert len({r.tid for r in spans}) == 3  # one track per thread


def test_chrome_trace_schema(tmp_path):
    with trace.capture() as tracer:
        with trace.span("autotune", cat="gpu", bits=4, obj=object()):
            pass
        flight.instant("mark", note="hi")
    doc = tracer.chrome_trace(process_name="unit-test")
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["ph"] for e in events} == {"M", "X", "i"}
    assert any(e["name"] == "process_name"
               and e["args"]["name"] == "unit-test" for e in meta)
    assert any(e["name"] == "thread_name" for e in meta)
    assert len(complete) == 1 and len(instants) == 1
    for e in complete:
        assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(e)
    assert instants[0]["name"] == "mark"
    assert instants[0]["args"]["note"] == "hi"
    span_ev = complete[0]
    assert span_ev["name"] == "autotune"
    assert span_ev["cat"] == "gpu"
    assert span_ev["args"]["bits"] == 4
    assert isinstance(span_ev["args"]["obj"], str)  # non-JSON args stringify

    out = tracer.write(tmp_path / "nested" / "dir" / "t.json",
                       process_name="unit-test")
    assert out.is_file()
    assert json.loads(out.read_text()) == json.loads(
        json.dumps(doc))  # round-trips


def test_chrome_trace_round_trip_reconstructs_span_tree(tmp_path):
    """Export -> reload -> rebuild: nesting (time containment per thread)
    and the cross-thread layout must survive the Chrome trace_event file."""
    with trace.capture() as tracer:
        with trace.span("root", cat="test"):
            with trace.span("child_a", cat="test"):
                with trace.span("grandchild", cat="test"):
                    time.sleep(0.001)
            with trace.span("child_b", cat="test"):
                time.sleep(0.001)

        barrier = threading.Barrier(2)  # both alive at once: distinct tids

        def work(i):
            with trace.span("thread_root", idx=i):
                with trace.span("thread_child", idx=i):
                    time.sleep(0.001)
                    barrier.wait()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    path = tracer.write(tmp_path / "trace.json", process_name="round-trip")
    events = [e for e in json.loads(path.read_text())["traceEvents"]
              if e["ph"] == "X"]

    # rebuild parent links: a span's parent is the innermost same-thread
    # span whose [ts, ts+dur] interval contains it
    def parent_of(ev):
        best = None
        for other in events:
            if other is ev or other["tid"] != ev["tid"]:
                continue
            if (other["ts"] <= ev["ts"]
                    and other["ts"] + other["dur"] >= ev["ts"] + ev["dur"]):
                if best is None or other["dur"] < best["dur"]:
                    best = other
        return best

    tree = {}
    for ev in events:
        p = parent_of(ev)
        tree.setdefault(ev["name"], set()).add(p["name"] if p else None)

    assert tree["root"] == {None}
    assert tree["child_a"] == tree["child_b"] == {"root"}
    assert tree["grandchild"] == {"child_a"}
    # the worker trees live on their own threads, re-rooted there
    assert tree["thread_root"] == {None}
    assert tree["thread_child"] == {"thread_root"}
    tids = {e["tid"] for e in events if e["name"] == "thread_root"}
    assert len(tids) == 2 and all(
        e["tid"] not in tids for e in events if e["name"] == "root")


def _serve_and_sweep():
    """A 200-request serve replay and one cold autotune sweep under a
    fault plan that fires on the serve primary."""
    from repro.gpu.autotune import autotune_conv, clear_cache
    from repro.models import get_model_layers
    from repro.resilience.faults import fault_plan
    from repro.serve import CostTable, ServeConfig, run_serve

    primary = CostTable(backend="prim", model="toy", bits=4,
                        service_us=(200.0, 250.0, 280.0, 300.0),
                        overhead_us=10.0)
    fallback = CostTable(backend="fb", model="toy", bits=4,
                         service_us=(5000.0, 10_000.0, 15_000.0, 20_000.0),
                         overhead_us=10.0)
    cfg = ServeConfig(
        backend="prim", fallback="fb", qps=5000.0, requests=200, seed=11,
        slo_ms=20.0, lanes=2, max_batch=4, queue_cap=64, hold_us=300.0,
        retries=2, backoff_ms=0.1, fault_detect_us=100.0,
        breaker_threshold=3, breaker_open_ms=50.0)
    spec = get_model_layers("resnet50", batch=1)[0]
    clear_cache()
    try:
        with fault_plan("serve.backend.prim:raise:0.3:1", seed=11):
            summary = run_serve(cfg, primary_table=primary,
                                fallback_table=fallback)
            autotune_conv(spec, bits=4)
    finally:
        clear_cache()
    assert sum(summary["faults_injected"].values()) > 0


@pytest.mark.parametrize("ring", ["on", "off"])
def test_tracer_receives_the_whole_event_stream(ring, tmp_path, monkeypatch):
    """Serve spans, autotune sweep markers and fault injections all reach
    an installed tracer, with or without the flight ring, and every
    parent link resolves inside the tracer's own events."""
    from repro.perf.cache import CACHE_DIR_ENV

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    ring_ctx = flight.capture() if ring == "on" else flight.suspended()
    with ring_ctx as rec, trace.capture() as tracer:
        _serve_and_sweep()
    events = tracer.events()
    spans = {e.name for e in events if e.kind == "span"}
    instants = {e.name for e in events if e.kind == "instant"}
    assert "serve.run" in spans
    assert any(name.startswith("serve.batch.") for name in spans)
    assert {"autotune.sweep", "fault_injected"} <= instants
    assert flight.unresolved_parents(events) == []
    if ring == "on":
        # both sinks saw the same stream
        assert {e.span_id for e in rec.events()} == {
            e.span_id for e in events}


def test_exemplar_captured_with_ring_off():
    """A tracer alone is an active sink: an observation inside a span
    carries that span's id even with the flight ring suspended."""
    hist = metrics.Histogram()
    with flight.suspended(), trace.capture() as tracer:
        with trace.span("observe", cat="test"):
            hist.observe(0.5)
    [(value, trace_id, span_id)] = hist.exemplars().values()
    [span_ev] = tracer.spans()
    assert value == 0.5
    assert (trace_id, span_id) == (span_ev.trace_id, span_ev.span_id)


def test_disabled_span_overhead_is_negligible():
    """The ISSUE budget: instrumentation compiled into hot paths must be
    near-free while no tracer is installed — and the *default* default is
    flight recording ON, so this measures the always-on ring-append path,
    not a pure no-op.  Bound the per-call cost very loosely (CI machines
    vary wildly) — the point is catching an accidental heavyweight
    allocation or lock convoy, which costs 100x this bound."""
    assert not trace.active()
    was = flight.enabled()
    flight.enable()  # measuring the realistic default path
    try:
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with trace.span("hot", k=1):
                pass
        per_call = (time.perf_counter() - t0) / n
    finally:
        (flight.enable if was else flight.disable)()
    assert per_call < 20e-6, f"flight-only span costs {per_call * 1e6:.2f} us"


def test_fully_disabled_span_overhead_is_negligible():
    """With the flight recorder suspended too, the shared null span is
    returned and the per-call cost is two global reads."""
    assert not trace.active()
    n = 20_000
    with flight.suspended():
        t0 = time.perf_counter()
        for _ in range(n):
            with trace.span("hot", k=1):
                pass
        per_call = (time.perf_counter() - t0) / n
    assert per_call < 20e-6, f"disabled span costs {per_call * 1e6:.2f} us"
