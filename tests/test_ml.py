"""Tests for the ML substrate: kmeans, agglomerative, MLP, metrics, NMI."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml.agglomerative import AgglomerativeClustering
from repro.ml.kmeans import KMeans
from repro.ml.metrics import precision_recall_f1, score_masks
from repro.ml.mlp import MLPClassifier
from repro.ml.nmi import (
    entropy,
    mutual_information,
    normalized_mutual_information,
)
from repro.ml.rng import as_generator, spawn
from repro.ml.scaler import StandardScaler
from repro.data.mask import ErrorMask


def blobs(seed=0, n=60, gap=8.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, (n, 2))
    b = rng.normal(gap, 1, (n, 2))
    x = np.vstack([a, b])
    y = np.array([0] * n + [1] * n)
    return x, y


class TestKMeans:
    def test_separates_blobs(self):
        x, y = blobs()
        labels = KMeans(2, seed=0).fit_predict(x)
        # Cluster ids are arbitrary; check agreement up to relabeling.
        agree = max(
            np.mean(labels == y), np.mean(labels == 1 - y)
        )
        assert agree > 0.95

    def test_deterministic(self):
        x, _ = blobs()
        l1 = KMeans(4, seed=3).fit_predict(x)
        l2 = KMeans(4, seed=3).fit_predict(x)
        assert np.array_equal(l1, l2)

    def test_k_clipped_to_distinct_points(self):
        x = np.array([[0.0, 0.0]] * 10)
        km = KMeans(5, seed=0).fit(x)
        assert len(np.unique(km.labels_)) == 1

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            KMeans(2).predict(np.zeros((1, 2)))

    def test_predict_new_points(self):
        x, _ = blobs()
        km = KMeans(2, seed=0).fit(x)
        pred = km.predict(np.array([[0.0, 0.0], [8.0, 8.0]]))
        assert pred[0] != pred[1]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KMeans(0)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            KMeans(2).fit(np.zeros((0, 2)))


class TestAgglomerative:
    def test_separates_blobs(self):
        x, y = blobs(n=40)
        labels = AgglomerativeClustering(2, seed=0).fit_predict(x)
        agree = max(np.mean(labels == y), np.mean(labels == 1 - y))
        assert agree > 0.95

    def test_subsampled_path(self):
        x, _ = blobs(n=300)
        agc = AgglomerativeClustering(4, max_points=100, seed=0)
        labels = agc.fit_predict(x)
        assert labels.shape == (600,)
        assert len(np.unique(labels)) <= 4

    def test_single_cluster(self):
        x, _ = blobs(n=10)
        labels = AgglomerativeClustering(1).fit_predict(x)
        assert set(labels.tolist()) == {0}


class TestMLP:
    def test_learns_blobs(self):
        x, y = blobs(n=100, gap=4.0)
        clf = MLPClassifier(hidden=16, epochs=40, seed=0).fit(x, y)
        acc = np.mean((clf.predict_proba(x) >= 0.5) == y.astype(bool))
        assert acc > 0.95

    def test_proba_in_range(self):
        x, y = blobs(n=30)
        p = MLPClassifier(epochs=5, seed=0).fit(x, y).predict_proba(x)
        assert np.all((p >= 0) & (p <= 1))

    def test_deterministic(self):
        x, y = blobs(n=30)
        p1 = MLPClassifier(epochs=5, seed=1).fit(x, y).predict_proba(x)
        p2 = MLPClassifier(epochs=5, seed=1).fit(x, y).predict_proba(x)
        assert np.allclose(p1, p2)

    def test_class_weighting_helps_minority(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(0, 1, (190, 2)), rng.normal(5, 1, (10, 2))])
        y = np.array([0] * 190 + [1] * 10)
        clf = MLPClassifier(epochs=40, class_weight="balanced", seed=0)
        clf.fit(x, y)
        recall = np.mean(clf.predict_proba(x[y == 1]) >= 0.5)
        assert recall > 0.8

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifier().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            MLPClassifier().predict_proba(np.zeros((1, 2)))

    def test_loss_decreases(self):
        x, y = blobs(n=50)
        clf = MLPClassifier(epochs=30, seed=0).fit(x, y)
        assert clf.loss_history_[-1] < clf.loss_history_[0]

    @pytest.mark.parametrize(
        "bad",
        [
            {"hidden": 0},
            {"epochs": 0},
            {"epochs": -3},
            {"batch_size": 0},
            {"lr": 0.0},
            {"lr": -1.0},
            {"lr": float("nan")},
            {"lr": float("inf")},
        ],
    )
    def test_invalid_settings_rejected(self, bad):
        # An untrained (epochs=0, lr=0) or ascending (lr<0) model would
        # otherwise score every cell; hidden=0 died in He init.
        with pytest.raises(ValueError, match=next(iter(bad))):
            MLPClassifier(**bad)


class TestMetrics:
    def test_perfect(self):
        truth = np.array([True, False, True])
        m = precision_recall_f1(truth, truth)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_counts(self):
        pred = np.array([True, True, False, False])
        truth = np.array([True, False, True, False])
        m = precision_recall_f1(pred, truth)
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(0.5)

    def test_zero_predictions_zero_precision(self):
        m = precision_recall_f1(np.zeros(3, bool), np.ones(3, bool))
        assert m.precision == 0.0 and m.f1 == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            precision_recall_f1(np.zeros(2, bool), np.zeros(3, bool))

    def test_score_masks(self):
        a = ErrorMask.from_cells(["x"], 3, [(0, "x")])
        b = ErrorMask.from_cells(["x"], 3, [(0, "x"), (1, "x")])
        m = score_masks(a, b)
        assert m.recall == pytest.approx(0.5)
        assert m.precision == pytest.approx(1.0)


class TestNMI:
    def test_entropy_uniform(self):
        assert entropy(["a", "b"]) == pytest.approx(np.log(2))

    def test_entropy_constant(self):
        assert entropy(["a", "a"]) == 0.0

    def test_perfect_dependency(self):
        xs = ["a", "b", "a", "b"] * 10
        ys = ["1", "2", "1", "2"] * 10
        assert normalized_mutual_information(xs, ys) == pytest.approx(1.0)

    def test_independent_columns(self):
        rng = np.random.default_rng(0)
        xs = [str(v) for v in rng.integers(0, 2, 2000)]
        ys = [str(v) for v in rng.integers(0, 2, 2000)]
        assert normalized_mutual_information(xs, ys) < 0.05

    def test_constant_column_zero(self):
        assert normalized_mutual_information(["a"] * 4, ["1", "2"] * 2) == 0.0

    def test_mi_nonnegative(self):
        assert mutual_information(["a", "b"], ["b", "a"]) >= 0.0

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(["a"], ["b", "c"])


class TestScalerAndRng:
    def test_scaler_standardizes(self):
        x = np.array([[1.0, 10.0], [3.0, 10.0], [5.0, 10.0]])
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0)
        assert np.allclose(z[:, 1], 0.0)  # constant feature untouched

    def test_scaler_not_fitted(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((1, 1)))

    def test_spawn_stable(self):
        a = spawn(7, "component").integers(0, 1000, 5)
        b = spawn(7, "component").integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_spawn_key_independent(self):
        a = spawn(7, "one").integers(0, 1000, 5)
        b = spawn(7, "two").integers(0, 1000, 5)
        assert not np.array_equal(a, b)

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g
