"""The metrics registry: labeled series, snapshots, thread-safety.

Most tests use a private :class:`MetricsRegistry` so they can't interfere
with the process default that library instrumentation writes into; the
default-registry convenience API gets its own reset-bracketed test.
"""

import json
import threading
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry, metric_key


def test_metric_key_canonicalization():
    assert metric_key("hits", {}) == "hits"
    assert metric_key("hits", {"ns": "gpu", "bits": 4}) == \
        metric_key("hits", {"bits": 4, "ns": "gpu"}) == "hits{bits=4,ns=gpu}"


def test_metric_key_escapes_special_label_values():
    """Regression: values containing the key's own structural characters
    (`,` `{` `}` `=`) used to collide — ``{"a": "1,b=2"}`` keyed the same
    as ``{"a": "1", "b": "2"}``."""
    collide_a = metric_key("m", {"a": "1,b=2"})
    collide_b = metric_key("m", {"a": "1", "b": "2"})
    assert collide_a != collide_b
    assert collide_a == "m{a=1\\,b\\=2}"
    # backslashes themselves escape, so escaping never cascades ambiguously
    assert metric_key("m", {"a": "\\"}) == "m{a=\\\\}"
    assert metric_key("m", {"p": "x{y}"}) == "m{p=x\\{y\\}}"


def test_metric_key_round_trips_through_parse():
    cases = [
        ("plain", {}),
        ("hits", {"ns": "gpu", "bits": "4"}),
        ("m", {"a": "1,b=2"}),
        ("m", {"a": "1", "b": "2"}),
        ("m", {"path": "a\\b{c}=d,e"}),
    ]
    for name, labels in cases:
        parsed = metrics.parse_metric_key(metric_key(name, labels))
        assert parsed == (name, labels), f"round-trip failed for {labels}"


def test_metric_key_distinct_labels_stay_distinct():
    nasty = [
        {"a": "1,b=2"}, {"a": "1", "b": "2"}, {"a": "1\\,b\\=2"},
        {"a": "{"}, {"a": "}"}, {"a": "="}, {"a": ","}, {"a": "\\"},
    ]
    keys = [metric_key("m", labels) for labels in nasty]
    assert len(set(keys)) == len(nasty)


def test_metric_key_rejects_malformed_names():
    with pytest.raises(ValueError):
        metric_key("bad{name", {})
    with pytest.raises(ValueError):
        metric_key("m", {"not a name": "v"})
    with pytest.raises(ValueError):
        metric_key("m", {"no=eq": "v"})


def test_escape_label_value_inverse():
    for raw in ("", "plain", "a,b", "{x}", "k=v", "\\", "a\\,b", "\\\\"):
        assert metrics.unescape_label_value(
            metrics.escape_label_value(raw)) == raw


def test_counter_inc_and_identity():
    reg = MetricsRegistry()
    c = reg.counter("lookups", ns="a", outcome="hit")
    c.inc()
    c.inc(3)
    # keyword order doesn't split the series: same object comes back
    assert reg.counter("lookups", outcome="hit", ns="a") is c
    assert c.value == 4
    assert reg.counter("lookups", ns="a", outcome="miss").value == 0


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("c").inc(-1)


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    g = reg.gauge("cycles", layer="conv1")
    g.set(100.0)
    g.set(42.5)
    assert g.value == 42.5


def test_histogram_summary_stats():
    reg = MetricsRegistry()
    h = reg.histogram("gap", bits=4)
    for v in (3.0, 1.0, 2.0):
        h.observe(v)
    d = h.as_dict()
    assert d == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
                 "buckets": _buckets(3.0, 1.0, 2.0), "exemplars": []}
    assert reg.histogram("gap", bits=8).as_dict()["count"] == 0


def _buckets(*values):
    """Per-bucket counts of ``values``, spelled out from the bounds."""
    out = [0] * (len(metrics.BUCKET_BOUNDS) + 1)
    for v in values:
        out[sum(bound < v for bound in metrics.BUCKET_BOUNDS)] += 1
    return out


def test_histogram_percentile_empty_raises():
    h = MetricsRegistry().histogram("h")
    with pytest.raises(ValueError):
        h.percentile(50.0)


def test_histogram_percentile_out_of_range_raises():
    h = MetricsRegistry().histogram("h")
    h.observe(1.0)
    for q in (-0.1, 100.1):
        with pytest.raises(ValueError):
            h.percentile(q)


def test_histogram_percentile_single_sample():
    h = MetricsRegistry().histogram("h")
    h.observe(7.5)
    assert h.percentile(0.0) == h.percentile(50.0) == h.percentile(100.0) == 7.5


def test_histogram_percentile_multi_sample():
    h = MetricsRegistry().histogram("h")
    for v in (4.0, 1.0, 3.0, 2.0):  # order must not matter
        h.observe(v)
    assert h.percentile(0.0) == 1.0
    assert h.percentile(100.0) == 4.0
    assert h.percentile(50.0) == pytest.approx(2.5)  # linear interpolation
    assert h.percentile(25.0) == pytest.approx(1.75)


def test_histogram_percentile_under_decimation():
    """Past SAMPLE_CAP the retained samples are a deterministic stride
    subsample — quantiles stay close to the true distribution."""
    from repro.obs.metrics import SAMPLE_CAP

    h = MetricsRegistry().histogram("h")
    n = SAMPLE_CAP * 4
    for i in range(n):
        h.observe(float(i))
    assert h.count == n
    assert h.percentile(50.0) == pytest.approx((n - 1) / 2, rel=0.01)
    assert h.percentile(90.0) == pytest.approx(0.9 * (n - 1), rel=0.01)


def test_histogram_merge():
    from repro.obs.metrics import Histogram

    a, b = Histogram(), Histogram()
    for v in (1.0, 2.0):
        a.observe(v)
    b.observe(10.0)
    m = Histogram.merge([a, b])
    assert m.count == 3
    assert m.as_dict() == {"count": 3, "sum": 13.0, "min": 1.0, "max": 10.0,
                           "mean": 13.0 / 3,
                           "buckets": _buckets(1.0, 2.0, 10.0),
                           "exemplars": []}
    assert m.percentile(100.0) == 10.0
    # merging is non-destructive
    assert a.count == 2 and b.count == 1


def test_histogram_merge_empty_inputs():
    from repro.obs.metrics import Histogram

    m = Histogram.merge([])
    assert m.count == 0
    m2 = Histogram.merge([Histogram(), Histogram()])
    assert m2.count == 0


def test_snapshot_layout_and_sorting():
    reg = MetricsRegistry()
    reg.counter("b_counter").inc(2)
    reg.counter("a_counter", x=1).inc()
    reg.gauge("g").set(7.0)
    reg.histogram("h").observe(1.5)
    snap = reg.snapshot()
    assert snap["schema"] == metrics.SCHEMA_VERSION
    assert list(snap) == ["schema", "counters", "gauges", "histograms"]
    assert list(snap["counters"]) == ["a_counter{x=1}", "b_counter"]
    assert snap["counters"]["b_counter"] == 2
    assert snap["gauges"] == {"g": 7.0}
    assert snap["histograms"]["h"]["count"] == 1
    import json

    json.dumps(snap)  # plain JSON, no custom types


def test_reset_drops_every_series():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.gauge("g").set(1.0)
    reg.histogram("h").observe(1.0)
    reg.reset()
    snap = reg.snapshot()
    assert snap["counters"] == snap["gauges"] == snap["histograms"] == {}


def test_concurrent_increments_do_not_lose_updates():
    reg = MetricsRegistry()

    def work():
        for _ in range(1000):
            reg.counter("racy", src="t").inc()
            reg.histogram("racy_h").observe(1.0)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.counter("racy", src="t").value == 8000
    assert reg.histogram("racy_h").count == 8000


def test_default_registry_convenience_api():
    metrics.reset()
    try:
        metrics.counter("conv_runs", backend="arm").inc(5)
        metrics.gauge("cycles", layer="conv1").set(123.0)
        snap = metrics.snapshot()
        assert snap["counters"]["conv_runs{backend=arm}"] == 5
        assert snap["gauges"]["cycles{layer=conv1}"] == 123.0
        assert metrics.registry().snapshot() == snap
    finally:
        metrics.reset()  # leave no residue for other tests


# ---------------------------------------------------------------------------
# Histogram.observe against a plain reference observer
# ---------------------------------------------------------------------------


class _ReferenceObserver:
    """Histogram.observe spelled out through the public flight API."""

    def __init__(self):
        self.count, self.sum, self.min, self.max = 0, 0.0, None, None
        self.samples, self.stride = [], 1
        self.buckets = [0] * (len(metrics.BUCKET_BOUNDS) + 1)
        self.exemplars = {}

    def observe(self, value):
        import bisect

        from repro.obs import flight

        value = float(value)
        bucket = bisect.bisect_left(metrics.BUCKET_BOUNDS, value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.buckets[bucket] += 1
        ctx = flight.current_context()
        if flight.recording() and ctx is not None:
            self.exemplars[bucket] = (value, ctx.trace_id, ctx.span_id)
        if (self.count - 1) % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) >= metrics.SAMPLE_CAP:
                self.samples = self.samples[::2]
                self.stride *= 2


def _assert_same(h, ref):
    assert (h.count, h.sum, h.min, h.max) == (
        ref.count, ref.sum, ref.min, ref.max)
    assert h.bucket_counts() == ref.buckets
    assert h._samples == ref.samples
    assert h.exemplars() == ref.exemplars


_values = st.lists(
    st.one_of(st.floats(-1e13, 1e13, allow_nan=False),
              st.integers(-10**6, 10**14),
              st.sampled_from(metrics.BUCKET_BOUNDS)),
    max_size=60)


@given(values=_values, with_context=st.booleans(), ring=st.booleans())
@settings(max_examples=150, deadline=None)
def test_histogram_observe_matches_reference(values, with_context, ring):
    from repro.obs import flight

    h, ref = metrics.Histogram(), _ReferenceObserver()
    ctx = flight.new_trace() if with_context else None
    state = flight.capture() if ring else flight.suspended()
    with state, flight.context(ctx):
        for v in values:
            h.observe(v)
            ref.observe(v)
    _assert_same(h, ref)
    if with_context and ring and values:
        assert h.exemplars()
    if not (with_context and ring):
        assert h.exemplars() == {}


def test_histogram_observe_matches_reference_past_decimation():
    from repro.obs import flight

    h, ref = metrics.Histogram(), _ReferenceObserver()
    with flight.capture(), flight.context(flight.new_trace()):
        for i in range(3 * metrics.SAMPLE_CAP + 7):
            h.observe(i * 0.37)
            ref.observe(i * 0.37)
    _assert_same(h, ref)
    assert h._stride > 1


# ---------------------------------------------------------------------------
# The snapshot carries buckets and exemplars
# ---------------------------------------------------------------------------


def test_snapshot_carries_buckets_and_a_resolvable_exemplar():
    from repro.obs import flight, trace

    metrics.reset()
    try:
        with flight.capture() as rec:
            with trace.span("probe", cat="test"):
                metrics.histogram("probe_seconds").observe(0.003)
        h = metrics.snapshot()["histograms"]["probe_seconds"]
    finally:
        metrics.reset()
    bucket = bisect_left(metrics.BUCKET_BOUNDS, 0.003)
    assert h["buckets"] == [int(i == bucket)
                            for i in range(len(metrics.BUCKET_BOUNDS) + 1)]
    [ex] = h["exemplars"]
    assert ex["bucket"] == bucket and ex["value"] == 0.003
    # the exemplar names the span that made the observation
    [probe] = flight.span_events(rec.events())
    assert (ex["trace_id"], ex["span_id"]) == (probe.trace_id, probe.span_id)
    json.dumps(h)  # plain JSON, like the rest of the snapshot


def test_snapshot_has_no_exemplars_without_a_sink_or_context():
    from repro.obs import flight, trace

    metrics.reset()
    try:
        with flight.suspended(), trace.span("quiet", cat="test"):
            metrics.histogram("quiet_seconds").observe(0.5)
        with flight.capture():
            metrics.histogram("quiet_seconds").observe(0.5)  # no span
        h = metrics.snapshot()["histograms"]["quiet_seconds"]
    finally:
        metrics.reset()
    assert sum(h["buckets"]) == h["count"] == 2
    assert h["exemplars"] == []
