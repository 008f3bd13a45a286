import pytest

from stats import (
    MIN_BEYOND,
    median,
    percentile,
    samples_beyond,
    tail_percentile,
)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


@pytest.mark.parametrize(
    "count, expected_q",
    [
        (10_000, 99.9),  # 10 samples beyond p99.9
        (9_999, 99.0),   # only 9 beyond p99.9
        (1_000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(count, expected_q):
    values = [float(i) for i in range(count)]
    q, value = tail_percentile(values)
    assert q == expected_q
    assert samples_beyond(count, q) >= MIN_BEYOND
    assert value == percentile(values, q)
    # Every higher candidate has fewer than ten samples beyond it.
    for higher in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if higher > q:
            assert samples_beyond(count, higher) < MIN_BEYOND


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail_percentile([1.0] * 19) is None


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

