"""Tests for the benchmark's own arithmetic (``pbstats``)."""

import asyncio
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pbstats  # noqa: E402


# -- nearest-rank percentiles and the ten-beyond rule -----------------------


def test_nearest_rank_picks_ceil_rank():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    assert pbstats.nearest_rank(values, 50.0) == 50
    assert pbstats.nearest_rank(values, 99.0) == 99
    assert pbstats.nearest_rank(values, 100.0) == 100
    assert pbstats.nearest_rank(values, 0.5) == 1
    assert pbstats.nearest_rank([7.0, 3.0, 5.0], 50.0) == 5.0


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        pbstats.nearest_rank([], 50.0)
    with pytest.raises(ValueError):
        pbstats.nearest_rank([1.0], 0.0)


def test_infinite_latencies_count_as_misses():
    # 989 fast requests and 11 refused: the p99 request is a refused one.
    values = [1.0] * 989 + [math.inf] * 11
    assert pbstats.nearest_rank(values, 99.0) == math.inf
    assert pbstats.nearest_rank(values[:-1] + [1.0], 99.0) == 1.0


def test_supported_needs_ten_samples_beyond():
    assert pbstats.supported(1000, 99.0)  # rank 990, ten beyond
    assert not pbstats.supported(999, 99.0)  # rank 990, nine beyond
    assert pbstats.supported(20, 50.0)
    assert not pbstats.supported(19, 50.0)
    assert not pbstats.supported(0, 50.0)


def test_tail_reports_highest_supported_percentile():
    assert pbstats.tail(list(range(1000)))[0] == 99.0
    assert pbstats.tail(list(range(10_000)))[0] == 99.9
    p, value = pbstats.tail(list(range(1, 201)))
    assert (p, value) == (95.0, 190)  # p98 would leave only four beyond
    assert pbstats.tail(list(range(19))) is None


# -- self time with nested spans --------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, -1, "request", 0.0, 10.0),
        (1, 0, "execute", 1.0, 4.0),
        (2, 1, "cache", 1.5, 2.5),
        (3, 0, "encode", 6.0, 7.0),
    ]
    assert pbstats.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        (0, -1, "batch", 0.0, 10.0),
        (1, 0, "a", 1.0, 3.0),
        (2, 0, "b", 2.0, 5.0),  # overlaps a: union is [1, 5]
        (3, 0, "c", 9.0, 12.0),  # runs past the parent: clipped to [9, 10]
    ]
    assert pbstats.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_totals_sum_calls_and_self_time():
    spans = [
        (0, -1, "unit", 0.0, 4.0),
        (1, 0, "solve", 0.0, 1.0),
        (2, -1, "unit", 4.0, 6.0),
        (3, 2, "solve", 4.0, 5.5),
    ]
    totals = pbstats.layer_totals(spans)
    assert totals["unit"] == (2, pytest.approx(3.5))
    assert totals["solve"] == (2, pytest.approx(2.5))


# -- rate search: ramp, bisection, censoring --------------------------------


def search(passes, **kwargs):
    """Run the search against a stub probe that passes when ``passes(rate)``."""

    async def probe(rate):
        await asyncio.sleep(0)
        return passes(rate)

    return asyncio.run(pbstats.search_rate(probe, **kwargs))


def test_search_ramps_then_bisects_between_last_pass_and_first_fail():
    outcome = search(lambda r: r <= 437.0, start=100.0, factor=2.0, cap=4000.0, steps=4)
    assert [r for r, _ in outcome["probes"]] == [100.0, 200.0, 400.0, 800.0, 600.0, 500.0, 450.0, 425.0]
    assert outcome["rate"] == 425.0
    assert outcome["censored"] is False


def test_search_flags_censored_when_the_top_of_the_ramp_passes():
    outcome = search(lambda r: True, start=500.0, factor=2.0, cap=3000.0, steps=4)
    assert [r for r, _ in outcome["probes"]] == [500.0, 1000.0, 2000.0, 3000.0]
    assert outcome["rate"] == 3000.0
    assert outcome["censored"] is True


def test_search_bisects_down_from_a_failing_start():
    outcome = search(lambda r: r <= 130.0, start=400.0, factor=1.5, cap=4000.0, steps=3)
    assert [r for r, _ in outcome["probes"]] == [400.0, 200.0, 100.0, 150.0]
    assert outcome["rate"] == 100.0
    assert outcome["censored"] is False


def test_search_bisects_from_a_known_floor():
    outcome = search(
        lambda r: r <= 130.0, start=400.0, factor=1.5, cap=4000.0, steps=2, floor=120.0
    )
    assert [r for r, _ in outcome["probes"]] == [400.0, 260.0, 190.0]
    assert outcome["rate"] == 120.0


def test_search_rejects_a_ramp_that_cannot_grow():
    with pytest.raises(ValueError):
        search(lambda r: True, start=100.0, factor=1.0, cap=4000.0, steps=3)
    with pytest.raises(ValueError):
        search(lambda r: True, start=100.0, factor=2.0, cap=4000.0, steps=3, floor=100.0)
