"""Tests for multi-seed aggregation and the paired t-test helper."""

import pytest

from repro.bench.repeats import AggregateRun, paired_t_test, run_repeated


def test_run_repeated_aggregates():
    agg = run_repeated("dboost", "beers", seeds=(0, 1, 2), n_rows=150)
    assert agg.n_runs == 3
    assert 0.0 <= agg.f1_mean <= 1.0
    assert agg.f1_std >= 0.0
    assert len(agg.f1_values) == 3


def test_as_row_formats_mean_std():
    agg = run_repeated("nadeef", "beers", seeds=(0, 1), n_rows=120)
    row = agg.as_row()
    assert "±" in row["f1"]
    assert row["runs"] == 2


def make_agg(f1_values):
    return AggregateRun(
        method="m", dataset="d", n_runs=len(f1_values),
        precision_mean=0, precision_std=0, recall_mean=0, recall_std=0,
        f1_mean=sum(f1_values) / len(f1_values), f1_std=0.0,
        f1_values=tuple(f1_values),
    )


# A degenerate input (e.g. pairs differing by one constant, where
# scipy warns of catastrophic cancellation) fails instead of warning.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_paired_t_test_significant_difference():
    a = make_agg([0.80, 0.84, 0.81])
    b = make_agg([0.50, 0.51, 0.53])
    statistic, p = paired_t_test(a, b)
    assert statistic == pytest.approx(20.88, abs=0.01)
    assert p < 0.05


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_paired_t_test_no_difference():
    a = make_agg([0.7, 0.8, 0.75])
    b = make_agg([0.71, 0.79, 0.74])
    _, p = paired_t_test(a, b)
    assert p > 0.05


def test_paired_t_test_requires_alignment():
    with pytest.raises(ValueError):
        paired_t_test(make_agg([0.5, 0.6]), make_agg([0.5, 0.6, 0.7]))
