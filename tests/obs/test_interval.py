"""Unit tests for the windowed counter table shared by the divergence
sampler and the trace probes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simt.stats import WindowCounters


def test_rejects_bad_layouts():
    with pytest.raises(ValueError):
        WindowCounters(0, 1)
    with pytest.raises(ValueError):
        WindowCounters(16, 0)


def test_add_lands_in_the_right_row():
    counters = WindowCounters(100, 2)
    counters.row(0)[0] += 1
    counters.row(99)[0] += 1
    counters.row(100)[1] += 5
    assert counters.rows == [[2, 0], [0, 5]]
    assert counters.totals() == [2, 5]


def test_add_survives_reallocation():
    """Growth appends to ``rows`` in place, so a caller holding the list
    across a ``row`` call (as the sampler's hot path does) sees the new
    rows."""
    counters = WindowCounters(10, 1)
    rows = counters.rows
    for cycle in range(0, 10_000, 7):
        counters.row(cycle)[0] += 1
    assert counters.rows is rows
    assert len(rows) == 1_000
    assert counters.totals() == [len(range(0, 10_000, 7))]


@pytest.mark.parametrize("start,stop", [
    (0, 1), (0, 256), (255, 256), (250, 260), (3, 2_000), (511, 513),
    (1_000, 50_000),
])
def test_add_span_equals_per_cycle_adds(start, stop):
    window = 256
    spanned = WindowCounters(window, 1)
    looped = WindowCounters(window, 1)
    spanned.add_span(start, stop, 0, weight=3)
    for cycle in range(start, stop):
        looped.row(cycle)[0] += 3
    assert spanned.rows == looped.rows


def test_add_span_empty_is_noop():
    counters = WindowCounters(16, 1)
    counters.add_span(5, 5, 0)
    counters.add_span(9, 4, 0)
    assert counters.rows == []


def test_summed_pads_to_longest():
    a = WindowCounters(16, 2)
    b = WindowCounters(16, 2)
    a.row(0)[0] += 1
    b.row(40)[1] += 2
    a.merge(b)
    assert a.rows == [[1, 0], [0, 0], [0, 2]]
    assert b.rows == [[0, 0], [0, 0], [0, 2]]


def test_summed_rejects_layout_mismatch():
    a = WindowCounters(16, 1)
    with pytest.raises(ValueError):
        a.merge(WindowCounters(16, 2))
    with pytest.raises(ValueError):
        a.merge(WindowCounters(32, 1))


def test_summed_empty():
    a = WindowCounters(16, 1)
    a.merge(WindowCounters(16, 1))
    assert a.rows == []
    assert a.array().shape == (0, 1)
    assert a.totals() == [0]


def test_trimmed_is_int64():
    """The exporters' array holds exactly the touched rows, as int64."""
    counters = WindowCounters(8, 3)
    counters.row(9)[2] += 4
    array = counters.array()
    assert array.dtype == np.int64
    assert array.tolist() == [[0, 0, 0], [0, 0, 4]]
