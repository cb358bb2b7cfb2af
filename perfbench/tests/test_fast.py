"""The statistics of repeated windows: the fastest share of them."""

from report import fast_median, row_latencies


def test_fast_median_keeps_the_fastest_quarter():
    # Eight windows: the two fastest count, slow stretches never do.
    assert fast_median([5.0, 1.0, 9.0, 1.2, 3.0, 7.0, 2.0, 8.0]) == 1.1
    assert fast_median([4.0, 2.0], share=1.0) == 3.0


def test_fast_median_keeps_at_least_one_window():
    assert fast_median([3.0, 2.0, 4.0]) == 2.0
    assert fast_median([]) == 0.0


def test_row_latencies_take_each_row_across_rounds():
    rounds = [[1.0, 5.0, 2.0, 9.0],
              [3.0, 4.0, 2.5, 8.0],
              [2.0, 6.0, 1.5, 7.0],
              [4.0, 7.0, 3.0, 6.5]]
    # Four rounds: each row's fastest round.
    assert row_latencies(rounds) == [1.0, 4.0, 1.5, 6.5]
