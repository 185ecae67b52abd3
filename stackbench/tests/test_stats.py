import random

import pytest

from stackbench.stats import median, percentile, sum_of_fastest, tail_percentile


def test_tail_of_a_hundred_samples_is_p90():
    values = list(range(1, 101))
    q, value = tail_percentile(values)
    assert q == 90.0
    assert value == 90
    assert sum(1 for other in values if other > value) == 10


@pytest.mark.parametrize("count", [11, 12, 24, 57, 100, 1000])
def test_tail_keeps_exactly_ten_samples_beyond(count):
    rng = random.Random(count)
    values = [rng.random() for _ in range(count)]
    q, value = tail_percentile(values)
    assert sum(1 for other in values if other > value) == 10
    assert q == pytest.approx(100.0 * (count - 10) / count)
    # The nearest-rank percentile at q selects that same sample.
    assert percentile(values, q) == value


def test_tail_rises_with_the_sample_count():
    small, _ = tail_percentile(list(range(20)))
    large, _ = tail_percentile(list(range(2000)))
    assert small < large


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def test_percentile_is_nearest_rank():
    assert percentile([4, 1, 3, 2], 50) == 2
    assert percentile([4, 1, 3, 2], 51) == 3
    assert percentile([4, 1, 3, 2], 100) == 4
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_median_of_no_samples_is_an_error():
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        median([])


def test_sum_of_fastest_takes_each_segments_minimum():
    rows = [[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 2.0, 0.5]]
    assert sum_of_fastest(rows) == 1.0 + 1.0 + 0.5
    assert sum_of_fastest([[4.0, 2.0]]) == 6.0
    with pytest.raises(ValueError):
        sum_of_fastest([[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        sum_of_fastest([])
