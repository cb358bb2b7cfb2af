"""Tests for columnar value interning and its Table cache."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.encoding import ColumnEncoding, joint_counts, unique_keys
from repro.data.table import Table
from repro.ml.kmeans import KMeans, _count_distinct_rows


def test_factorization_round_trip_and_counts():
    values = ["b", "a", "b", "c", "a", "b", ""]
    enc = ColumnEncoding.from_values(values)
    assert enc.uniques == ["b", "a", "c", ""]  # first-appearance order
    assert [enc.uniques[c] for c in enc.codes] == values
    assert enc.counts.tolist() == [3, 2, 1, 1]
    assert enc.n_rows == 7 and enc.n_unique == 4


def test_per_unique_scatter_pattern():
    # The idiom every consumer relies on: evaluate per unique, gather
    # back per row with `per_unique[codes]`.
    enc = ColumnEncoding.from_values(["x", "yy", "x", "zzz"])
    lengths = np.asarray([len(u) for u in enc.uniques])
    assert lengths[enc.codes].tolist() == [1, 2, 1, 3]


def test_joint_counts_sparse_pairs():
    lhs = ColumnEncoding.from_values(["p", "p", "q", "q", "p"])
    rhs = ColumnEncoding.from_values(["1", "2", "1", "1", "1"])
    l_codes, r_codes, counts, inverse = joint_counts(lhs, rhs)
    pairs = {
        (lhs.uniques[lc], rhs.uniques[rc]): c
        for lc, rc, c in zip(l_codes.tolist(), r_codes.tolist(), counts.tolist())
    }
    assert pairs == {("p", "1"): 2, ("p", "2"): 1, ("q", "1"): 2}
    # counts[inverse] is the per-row count of the row's own pair
    assert counts[inverse].tolist() == [2, 1, 2, 2, 2]


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def _np_unique(key):
    return np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )


@pytest.mark.parametrize(
    "key", [[], [5], [3, 3], [9, -2], [4, -1, 4, 9, 0, 9, 4]]
)
def test_unique_keys_equals_np_unique(key):
    key = np.asarray(key, dtype=np.int64)
    _assert_same_arrays(unique_keys(key), _np_unique(key))


# Small values make repeated keys likely; the full range reaches the
# int64 extremes.
int64_keys = st.lists(
    st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
    ),
    max_size=40,
)


@given(int64_keys)
@settings(max_examples=60, deadline=None)
def test_unique_keys_equals_np_unique_on_drawn_keys(values):
    key = np.asarray(values, dtype=np.int64)
    _assert_same_arrays(unique_keys(key), _np_unique(key))


@pytest.mark.parametrize(
    ("lhs_values", "rhs_values"), [([], []), (["p"], ["1"])]
)
def test_joint_counts_of_short_columns_equal_the_sorted_path(
    lhs_values, rhs_values
):
    lhs = ColumnEncoding.from_values(lhs_values)
    rhs = ColumnEncoding.from_values(rhs_values)
    width = max(rhs.n_unique, 1)
    pairs, first_rows, inverse, counts = _np_unique(
        lhs.codes * width + rhs.codes
    )
    sorted_path = np.divmod(pairs, width) + (
        counts.astype(np.int64), inverse, first_rows
    )
    _assert_same_arrays(
        joint_counts(lhs, rhs, return_index=True), sorted_path
    )


def test_table_encoding_is_cached_and_invalidated_by_set_cell():
    table = Table.from_rows(
        ["a", "b"], [["x", "1"], ["y", "2"], ["x", "3"]]
    )
    enc = table.encoding("a")
    assert table.encoding("a") is enc  # cached
    assert enc.uniques == ["x", "y"]
    table.set_cell(2, "a", "z")
    enc2 = table.encoding("a")
    assert enc2 is not enc  # invalidated by the mutation
    assert enc2.uniques == ["x", "y", "z"]
    # the untouched column keeps its cache
    enc_b = table.encoding("b")
    table.set_cell(0, "a", "w")
    assert table.encoding("b") is enc_b


def test_attr_index_and_diff_mask():
    t1 = Table.from_rows(["a", "b", "c"], [["1", "2", "3"], ["4", "5", "6"]])
    assert [t1.attr_index(a) for a in ("a", "b", "c")] == [0, 1, 2]
    t2 = t1.copy()
    t2.set_cell(1, "b", "changed")
    assert t1.diff_mask(t2) == [
        [False, False, False],
        [False, True, False],
    ]
    assert t1.diff_mask(t1.copy()) == [[False] * 3, [False] * 3]


def test_count_distinct_rows_short_circuits():
    x = np.tile(np.arange(12.0).reshape(4, 3), (5, 1))  # 20 rows, 4 distinct
    assert _count_distinct_rows(x) == 4
    assert _count_distinct_rows(x, limit=2) == 2
    assert _count_distinct_rows(x, limit=100) == 4
    empty_width = np.zeros((5, 0))
    assert _count_distinct_rows(empty_width) == 1
    # signed zeros compare equal, matching np.unique(axis=0) semantics
    assert _count_distinct_rows(np.array([[0.0], [-0.0]])) == 1


def test_kmeans_empty_cluster_repair_uses_distinct_points(monkeypatch):
    # Force four simultaneously-empty clusters: all five initial
    # centers coincide, so every point lands in cluster 0 and clusters
    # 1-4 must be repaired in the same iteration.  The repair must
    # re-seed them onto *distinct points* — previously all of them
    # grabbed the same farthest point, and the farthest point (50, 50)
    # is duplicated here, so excluding only the chosen *row* would
    # still collapse two clusters onto its second copy.
    x = np.vstack(
        [
            np.zeros((10, 2)),
            np.full((10, 2), 1.0),
            [[50.0, 50.0]],
            [[50.0, 50.0]],
            [[-50.0, 40.0]],
            [[30.0, -30.0]],
        ]
    )
    monkeypatch.setattr(
        KMeans,
        "_init_plus_plus",
        lambda self, data, k: np.zeros((k, data.shape[1])),
    )
    model = KMeans(n_clusters=5, max_iter=1, seed=0).fit(x)
    centers = model.cluster_centers_
    dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    off_diag = dists[~np.eye(len(centers), dtype=bool)]
    assert off_diag.min() > 1e-6
    repaired = {tuple(c) for c in centers[1:].tolist()}
    assert repaired == {
        (50.0, 50.0),
        (-50.0, 40.0),
        (30.0, -30.0),
        (1.0, 1.0),
    }
