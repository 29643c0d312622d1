"""The flight recorder: trace contexts, the bounded ring, propagation.

The contract under test: contexts derive parent-linked children and
propagate across ``ParallelRunner`` workers (threads *and* processes);
the ring is bounded, thread-safe and exports a Perfetto-loadable Chrome
trace; every recorded span tree resolves — no orphan parents.
"""

import json
import threading

import pytest

from repro.obs import flight, trace


# ---------------------------------------------------------------------------
# Trace contexts
# ---------------------------------------------------------------------------


def test_new_trace_and_child_linkage():
    root = flight.new_trace()
    assert root.parent_id is None
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id


def test_derive_without_parent_starts_fresh_trace():
    a = flight.derive(None)
    b = flight.derive(None)
    assert a.parent_id is None and b.parent_id is None
    assert a.trace_id != b.trace_id


def test_context_manager_activates_and_restores():
    assert flight.current_context() is None
    ctx = flight.new_trace()
    with flight.context(ctx):
        assert flight.current_context() is ctx
        inner = flight.derive(flight.current_context())
        assert inner.trace_id == ctx.trace_id
    assert flight.current_context() is None


def test_context_none_is_a_no_op():
    outer = flight.new_trace()
    with flight.context(outer):
        with flight.context(None):
            assert flight.current_context() is outer


def test_context_is_picklable():
    import pickle

    ctx = flight.new_trace().child()
    assert pickle.loads(pickle.dumps(ctx)) == ctx


def test_ids_are_unique_across_threads():
    ids, lock = set(), threading.Lock()

    def mint():
        local = [flight.new_trace().span_id for _ in range(200)]
        with lock:
            ids.update(local)

    threads = [threading.Thread(target=mint) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(ids) == 4 * 200


# ---------------------------------------------------------------------------
# The ring buffer
# ---------------------------------------------------------------------------


def _mk_event(name="e", kind="span", ts=0.0, dur=1.0, ctx=None):
    ctx = ctx or flight.new_trace()
    return flight.FlightEvent(
        kind=kind, name=name, cat="test", ts_us=ts, dur_us=dur,
        tid=threading.get_ident(), trace_id=ctx.trace_id,
        span_id=ctx.span_id, parent_id=ctx.parent_id)


def test_ring_bounds_and_drop_accounting():
    rec = flight.FlightRecorder(capacity=4)
    for i in range(10):
        rec.record(_mk_event(name=f"e{i}"))
    assert len(rec) == 4
    assert rec.total_recorded == 10
    assert rec.dropped == 6
    assert [e.name for e in rec.events()] == ["e6", "e7", "e8", "e9"]


def test_ring_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        flight.FlightRecorder(capacity=0)
    with pytest.raises(ValueError):
        flight.FlightRecorder(capacity=8).resize(-1)


def test_resize_keeps_newest():
    rec = flight.FlightRecorder(capacity=8)
    for i in range(6):
        rec.record(_mk_event(name=f"e{i}"))
    rec.resize(2)
    assert [e.name for e in rec.events()] == ["e4", "e5"]


def test_events_last_s_window():
    rec = flight.FlightRecorder(capacity=16)
    now = flight.monotonic_us()
    rec.record(_mk_event(name="old", ts=now - 60e6, dur=1.0))
    rec.record(_mk_event(name="new", ts=now - 0.01e6, dur=1.0))
    names = [e.name for e in rec.events(last_s=1.0)]
    assert names == ["new"]
    assert len(rec.events()) == 2  # the full ring is untouched


def test_concurrent_records_are_not_lost():
    rec = flight.FlightRecorder(capacity=10_000)

    def worker():
        for _ in range(500):
            rec.record(_mk_event())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert rec.total_recorded == 2000
    assert len(rec) == 2000


# ---------------------------------------------------------------------------
# Enablement and capture
# ---------------------------------------------------------------------------


def test_enabled_by_default_and_suspended_restores():
    assert flight.enabled()
    with flight.suspended():
        assert not flight.enabled()
        flight.instant("ignored")  # must not raise, must not record
    assert flight.enabled()


def test_capture_clears_ring_and_restores_state():
    with flight.capture() as rec:
        assert flight.enabled()
        assert len(rec) == 0
        flight.instant("inside")
        assert len(rec) == 1
    assert flight.enabled()  # default state restored


def test_record_span_noop_while_disabled():
    with flight.capture() as rec:
        with flight.suspended():
            flight.record_span("s", "test", {}, 0.0, 1.0, flight.new_trace())
        assert len(rec) == 0


# ---------------------------------------------------------------------------
# Span capture via the trace layer
# ---------------------------------------------------------------------------


def test_nested_spans_form_a_resolvable_tree():
    with flight.capture() as rec:
        with trace.span("root", cat="test"):
            with trace.span("child", cat="test"):
                pass
            with trace.span("sibling", cat="test"):
                pass
    spans = flight.span_events(rec.events())
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"root", "child", "sibling"}
    root = by_name["root"]
    assert root.parent_id is None
    for name in ("child", "sibling"):
        assert by_name[name].trace_id == root.trace_id
        assert by_name[name].parent_id == root.span_id
    # children land before their parent (spans record at exit) and the
    # validator still resolves every link
    assert spans.index(by_name["child"]) < spans.index(root)
    assert flight.unresolved_parents(rec.events()) == []
    assert flight.trace_ids(rec.events()) == {root.trace_id}


def test_instants_attach_to_the_active_span():
    with flight.capture() as rec:
        with trace.span("op", cat="test"):
            flight.instant("marker", cat="test", k=1)
    events = rec.events()
    instant = next(e for e in events if e.kind == "instant")
    op = next(e for e in events if e.kind == "span")
    assert instant.trace_id == op.trace_id
    assert instant.parent_id == op.span_id
    assert instant.args == {"k": 1}
    assert flight.unresolved_parents(events) == []


def test_unresolved_parents_flags_evicted_parent():
    ctx = flight.new_trace()
    orphan = ctx.child()
    rec = flight.FlightRecorder(capacity=4)
    rec.record(_mk_event(name="child", ctx=orphan))
    assert [e.name for e in flight.unresolved_parents(rec.events())] == [
        "child"]


# ---------------------------------------------------------------------------
# Worker propagation (the tentpole claim)
# ---------------------------------------------------------------------------


def test_parallel_map_propagates_context():
    from repro.perf.parallel import ParallelRunner

    with flight.capture() as rec:
        with trace.span("sweep", cat="test"):
            out = ParallelRunner(2).map(_square, list(range(8)))
    assert out == [i * i for i in range(8)]
    events = rec.events()
    spans = flight.span_events(events)
    sweep = next(s for s in spans if s.name == "sweep")
    # one coherent trace: every span shares the sweep's trace id and
    # resolves to a recorded parent
    assert flight.trace_ids(events) == {sweep.trace_id}
    assert flight.unresolved_parents(events) == []
    chunks = [s for s in spans if s.name == "parallel.chunk"]
    assert chunks and all(s.parent_id for s in chunks)


def _square(x):
    return x * x


# ---------------------------------------------------------------------------
# Chrome export
# ---------------------------------------------------------------------------


def test_chrome_trace_schema_and_write(tmp_path):
    with flight.capture() as rec:
        with trace.span("outer", cat="test", bits=4, obj=object()):
            flight.instant("ping", cat="test")
    doc = rec.chrome_trace(process_name="unit-test")
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["trace_epoch_wall_us"] > 0
    events = doc["traceEvents"]
    assert {e["ph"] for e in events} <= {"M", "X", "i"}
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name"
               and e["args"]["name"] == "unit-test" for e in meta)
    span_ev = next(e for e in events if e["ph"] == "X")
    assert span_ev["args"]["bits"] == 4
    assert isinstance(span_ev["args"]["obj"], str)  # non-JSON args stringify
    assert span_ev["args"]["trace_id"] and span_ev["args"]["span_id"]
    inst = next(e for e in events if e["ph"] == "i")
    assert inst["s"] == "t"
    assert inst["args"]["parent_id"] == span_ev["args"]["span_id"]

    out = rec.write(tmp_path / "deep" / "flight.json")
    assert out.is_file()
    assert json.loads(out.read_text())["traceEvents"]


def test_fault_injection_emits_instant():
    from repro.resilience import faults

    with flight.capture() as rec:
        with faults.fault_plan("unit.site:raise:1.0:1", seed=7):
            with pytest.raises(faults.InjectedFault):
                faults.inject("unit.site", key="k0")
    instants = [e for e in rec.events() if e.kind == "instant"]
    assert [e.name for e in instants] == ["fault_injected"]
    assert instants[0].cat == "fault"
    assert instants[0].args["site"] == "unit.site"
    assert instants[0].args["kind"] == "raise"


# ---------------------------------------------------------------------------
# The row-based ring: reads rebuild the events exactly
# ---------------------------------------------------------------------------


def _fixed_events():
    root = flight.TraceContext("t0", "s0", None)
    child = flight.TraceContext("t0", "s1", "s0")
    tid = threading.get_ident()
    return [
        flight.FlightEvent(kind="span", name="child", cat="test", ts_us=15.0,
                           dur_us=2.5, tid=tid, trace_id=child.trace_id,
                           span_id=child.span_id, parent_id=child.parent_id,
                           args={"bits": 4, "obj": ("x", 1)}),
        flight.FlightEvent(kind="instant", name="mark", cat="fault",
                           ts_us=16.25, dur_us=0.0, tid=tid, trace_id="t0",
                           span_id="s2", parent_id="s1", args={"k": None}),
        flight.FlightEvent(kind="span", name="root", cat="test", ts_us=10.0,
                           dur_us=20.0, tid=tid, trace_id=root.trace_id,
                           span_id=root.span_id, parent_id=None),
    ]


def _reference_chrome(events, pid, thread_names, process_name):
    """The Chrome export written out event by event."""
    t0 = min(e.ts_us for e in events)
    out = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name}}]
    out += [{"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": name}}
            for tid, name in sorted(thread_names.items())]
    for e in events:
        args = {k: v if v is None or isinstance(v, (bool, int, float, str))
                else str(v) for k, v in e.args.items()}
        args.update(trace_id=e.trace_id, span_id=e.span_id)
        if e.parent_id is not None:
            args["parent_id"] = e.parent_id
        ev = {"name": e.name, "cat": e.cat, "ts": round(e.ts_us - t0, 3),
              "pid": pid, "tid": e.tid, "args": args}
        if e.kind == "span":
            ev.update(ph="X", dur=round(e.dur_us, 3))
        else:
            ev.update(ph="i", s="t")
        out.append(ev)
    return out


def test_row_ring_reads_back_the_recorded_events():
    import os

    events = _fixed_events()
    rec = flight.FlightRecorder(capacity=8)
    for e in events:
        rec.record(e)
    assert rec.events() == events
    doc = rec.chrome_trace(process_name="unit")
    names = {threading.get_ident(): threading.current_thread().name}
    assert doc["traceEvents"] == _reference_chrome(
        events, os.getpid(), names, "unit")
    assert doc["otherData"]["events_recorded"] == 3
    assert doc["otherData"]["events_dropped"] == 0
    # a span recorded through the hot path lands as the same row
    with trace.capture() as tracer:
        flight.record_span("child", "test", events[0].args, 15.0, 17.5,
                           flight.TraceContext("t0", "s1", "s0"))
    assert tracer.events() == events[:1]


def test_drop_accounting_after_wrap_and_resize():
    rec = flight.FlightRecorder(capacity=4)
    for i in range(10):
        rec.record(_mk_event(name=f"e{i}"))
    assert (len(rec), rec.total_recorded, rec.dropped) == (4, 10, 6)
    rec.resize(2)
    assert (len(rec), rec.total_recorded, rec.dropped) == (2, 10, 8)
    rec.record(_mk_event(name="e10"))
    assert (len(rec), rec.total_recorded, rec.dropped) == (2, 11, 9)
    assert [e.name for e in rec.events()] == ["e9", "e10"]
    rec.resize(8)
    rec.record(_mk_event(name="e11"))
    assert (len(rec), rec.total_recorded, rec.dropped) == (3, 12, 9)
    doc = rec.chrome_trace()
    assert doc["otherData"]["events_recorded"] == 12
    assert doc["otherData"]["events_dropped"] == 9
    rec.clear()
    assert (len(rec), rec.total_recorded, rec.dropped) == (0, 0, 0)


def test_record_child_span_links_to_its_parent():
    parent = flight.new_trace()
    with flight.capture() as rec:
        span_id = flight.record_child_span(
            "leaf", "test", {"n": 1}, 5.0, 4.0, parent, tid=7)
    [e] = rec.events()
    assert (e.trace_id, e.span_id, e.parent_id) == (
        parent.trace_id, span_id, parent.span_id)
    assert (e.ts_us, e.dur_us, e.tid, e.args) == (5.0, 0.0, 7, {"n": 1})
    with flight.suspended():
        assert flight.record_child_span(
            "leaf", "test", {}, 0.0, 1.0, parent) is None


# ---------------------------------------------------------------------------
# Track names in the Chrome export
# ---------------------------------------------------------------------------


def test_foreign_tid_is_not_named_after_the_caller():
    rec = flight.FlightRecorder(capacity=8)
    rec.record(_mk_event())
    foreign = flight.FlightEvent(
        kind="span", name="lane", cat="test", ts_us=0.0, dur_us=1.0, tid=0,
        trace_id="t", span_id="s")
    rec.record(foreign)
    meta = {e["tid"]: e["args"]["name"]
            for e in rec.chrome_trace()["traceEvents"]
            if e["name"] == "thread_name"}
    assert meta == {threading.get_ident(): threading.current_thread().name}


def test_serve_lanes_get_their_own_named_tracks():
    from repro.serve import CostTable, ServeConfig, run_serve

    table = CostTable(backend="prim", model="toy", bits=4,
                      service_us=(200.0, 250.0, 280.0, 300.0))
    cfg = ServeConfig(backend="prim", fallback="prim", qps=5000.0,
                      requests=200, seed=1, lanes=2, max_batch=4)
    with flight.capture() as rec:
        run_serve(cfg, primary_table=table, fallback_table=table)
    doc = rec.chrome_trace()
    meta = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"]
            if e["name"] == "thread_name"}
    assert meta[0] == "serve lane 0" and meta[1] == "serve lane 1"
    assert meta[threading.get_ident()] == threading.current_thread().name
    assert len(meta) == 3
    # every batch span sits on a lane track; the run span on the caller's
    lanes = {e["tid"] for e in doc["traceEvents"]
             if e["name"].startswith("serve.batch.")}
    assert lanes <= {0, 1}
    [run] = [e for e in doc["traceEvents"] if e["name"] == "serve.run"]
    assert run["tid"] == threading.get_ident()
