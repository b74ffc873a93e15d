"""Unit tests for the execution trace."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.oracles import busy_time_reference
from repro.sim import Interval, Trace


def test_interval_duration():
    assert Interval("e", "l", 2.0, 5.0).duration == 3.0


def test_interval_backwards_rejected():
    with pytest.raises(ValueError):
        Interval("e", "l", 5.0, 2.0)


def test_interval_nan_start_rejected():
    with pytest.raises(ValueError):
        Interval("e", "l", float("nan"), 2.0)


def test_interval_nan_end_rejected():
    with pytest.raises(ValueError):
        Interval("e", "l", 0.0, float("nan"))


def test_interval_negative_start_rejected():
    with pytest.raises(ValueError):
        Interval("e", "l", -1.0, 2.0)


def test_interval_zero_start_allowed():
    assert Interval("e", "l", 0.0, 0.0).duration == 0.0


def test_busy_time_merges_overlaps():
    trace = Trace()
    trace.record("core", "a", 0.0, 10.0)
    trace.record("core", "b", 5.0, 15.0)
    assert trace.busy_time("core") == 15.0


def test_busy_time_clips_to_window():
    trace = Trace()
    trace.record("core", "a", 0.0, 100.0)
    assert trace.busy_time("core", 20.0, 30.0) == 10.0


def test_busy_time_ignores_other_engines():
    trace = Trace()
    trace.record("core", "a", 0.0, 10.0)
    trace.record("dma", "b", 0.0, 50.0)
    assert trace.busy_time("core") == 10.0


def test_utilization_full_window():
    trace = Trace()
    trace.record("core", "a", 0.0, 25.0)
    assert trace.utilization("core", 0.0, 50.0) == pytest.approx(0.5)


def test_utilization_empty_window_is_zero():
    trace = Trace()
    assert trace.utilization("core", 10.0, 10.0) == 0.0


def test_utilization_disjoint_intervals():
    trace = Trace()
    trace.record("core", "a", 0.0, 10.0)
    trace.record("core", "b", 20.0, 30.0)
    assert trace.utilization("core", 0.0, 40.0) == pytest.approx(0.5)


def test_end_time_tracks_latest():
    trace = Trace()
    trace.record("a", "x", 0.0, 10.0)
    trace.record("b", "y", 5.0, 99.0)
    assert trace.end_time() == 99.0


def test_end_time_empty_is_zero():
    assert Trace().end_time() == 0.0


def test_counters_accumulate():
    trace = Trace()
    trace.bump("ops")
    trace.bump("ops", 2.5)
    assert trace.counters["ops"] == 3.5


def test_by_label_aggregates_durations():
    trace = Trace()
    trace.record("core", "conv", 0.0, 10.0)
    trace.record("dma", "conv", 0.0, 4.0)
    trace.record("core", "pool", 10.0, 11.0)
    totals = trace.by_label()
    assert totals["conv"] == 14.0
    assert totals["pool"] == 1.0


def test_engines_listing():
    trace = Trace()
    trace.record("a", "x", 0.0, 1.0)
    trace.record("b", "x", 0.0, 1.0)
    assert trace.engines() == {"a", "b"}


_ENGINES = ("mxu", "vpu", "dma")
_TIMES = st.one_of(
    st.integers(0, 40).map(float),  # grid points: touching intervals
    st.floats(0.0, 40.0),  # arbitrary IEEE-754 endpoints
)
_LENGTHS = st.one_of(
    st.just(0.0), st.integers(1, 8).map(float), st.floats(0.0, 8.0)
)
_STEPS = st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0))
_RECORD = st.tuples(st.just("record"), st.sampled_from(_ENGINES), _TIMES, _LENGTHS)
_QUERY = st.tuples(
    st.just("query"), st.sampled_from(_ENGINES + ("idle",)), _STEPS, _LENGTHS
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(st.one_of(_RECORD, _QUERY), max_size=60), monotone=st.booleans())
def test_busy_time_equals_reference_scan(ops, monotone):
    """The skip-pointer merge is bit-identical to the full scan.

    Records and window queries interleave the way the power loop issues
    them. With ``monotone`` the window starts never decrease (the skip
    pointer only advances); otherwise negative steps move a start
    backwards and reset it. Zero-length intervals, touching intervals,
    empty (zero-width) windows and engines with no intervals all occur.
    """
    trace = Trace()
    start = 0.0
    for op, engine, value, length in ops:
        if op == "record":
            trace.record(engine, "k", value, value + length)
            continue
        start = max(0.0, start + (abs(value) if monotone else value))
        end = start + length
        assert trace.busy_time(engine, start, end) == busy_time_reference(
            trace, engine, start, end
        )
    for engine in _ENGINES:
        assert trace.busy_time(engine) == busy_time_reference(
            trace, engine, 0.0, trace.end_time()
        )
