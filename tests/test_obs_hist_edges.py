"""Histogram edge cases: empty, single-sample, merge across decimated
windows, and bucket-count invariants.

These are the inputs the regression checker and the differential-
profiling engine actually hand the histogram — tiny warm-up windows,
merges of per-worker windows where one side already hit SAMPLE_CAP, and
the bucket vectors :func:`repro.obs.diff.histogram_delta` subtracts.
"""

import pytest

from repro.obs.metrics import BUCKET_BOUNDS, SAMPLE_CAP, Histogram


def test_empty_histogram_aggregates_and_percentile():
    h = Histogram()
    assert h.count == 0 and h.sum == 0.0
    assert h.min is None and h.max is None
    assert h.mean == 0.0  # defined (not a ZeroDivisionError)
    assert h.bucket_counts() == [0] * (len(BUCKET_BOUNDS) + 1)
    with pytest.raises(ValueError, match="empty"):
        h.percentile(50)
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        h.percentile(101)


def test_single_sample_every_percentile_is_that_sample():
    h = Histogram()
    h.observe(0.25)
    for q in (0.0, 1.0, 50.0, 99.9, 100.0):
        assert h.percentile(q) == 0.25
    assert h.min == h.max == 0.25 and h.mean == 0.25
    assert sum(h.bucket_counts()) == 1


def test_merge_of_empties_is_empty():
    merged = Histogram.merge([Histogram(), Histogram()])
    assert merged.count == 0 and merged.min is None
    with pytest.raises(ValueError):
        merged.percentile(50)
    # merging nothing at all also works
    assert Histogram.merge([]).count == 0


def test_merge_after_stride_decimation_keeps_exact_aggregates():
    """One window decimated past SAMPLE_CAP, one small: the merged
    aggregates stay exact even though the big window's sample set is a
    1-in-stride subsample."""
    big, small = Histogram(), Histogram()
    n = SAMPLE_CAP + 100
    for i in range(n):
        big.observe(float(i))
    assert big._stride > 1  # decimation actually kicked in
    assert len(big._samples) < n
    for v in (1e6, 2e6):
        small.observe(v)

    merged = Histogram.merge([big, small])
    # aggregates add exactly — they never go through the sample set
    assert merged.count == n + 2
    assert merged.sum == pytest.approx(sum(range(n)) + 3e6)
    assert merged.min == 0.0 and merged.max == 2e6
    # sample set is bounded and quantiles stay sane: the median of
    # ~uniform 0..n plus two outliers is still near n/2
    assert len(merged._samples) < SAMPLE_CAP
    assert merged.percentile(50) == pytest.approx(n / 2, rel=0.1)
    # bucket counts add exactly too (histogram_delta depends on this)
    assert sum(merged.bucket_counts()) == n + 2
    for b_big, b_small, b_merged in zip(
            big.bucket_counts(), small.bucket_counts(),
            merged.bucket_counts()):
        assert b_merged == b_big + b_small


def test_decimation_is_deterministic():
    def fill():
        h = Histogram()
        for i in range(SAMPLE_CAP * 2 + 7):
            h.observe(i * 0.001)
        return h

    a, b = fill(), fill()
    assert a._samples == b._samples and a._stride == b._stride
    assert a.percentile(95) == b.percentile(95)


def test_bucket_counts_monotone_boundaries():
    """Bounds are *inclusive* upper edges: a value equal to a bound lands
    in that bound's bucket, epsilon above rolls into the next."""
    h = Histogram()
    h.observe(1.0)  # == bound 10^0
    h.observe(1.0000001)  # just above
    counts = h.bucket_counts()
    one = BUCKET_BOUNDS.index(1.0)
    assert counts[one] == 1 and counts[one + 1] == 1
    # the implicit +Inf bucket catches everything beyond the top bound
    h.observe(BUCKET_BOUNDS[-1] * 10)
    assert h.bucket_counts()[-1] == 1
    # cumulative view (what OpenMetrics exports) is monotone
    cum = 0
    for c in h.bucket_counts():
        assert c >= 0
        cum += c
    assert cum == h.count


def test_as_dict_snapshot_shape():
    h = Histogram()
    h.observe(2.0)
    h.observe(4.0)
    buckets = [0] * (len(BUCKET_BOUNDS) + 1)
    buckets[BUCKET_BOUNDS.index(10.0)] = 2  # both in (1, 10]
    assert h.as_dict() == {
        "count": 2, "sum": 6.0, "min": 2.0, "max": 4.0, "mean": 3.0,
        "buckets": buckets, "exemplars": []}
