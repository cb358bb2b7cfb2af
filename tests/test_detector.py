"""Unit tests for repro.core.detector."""

import numpy as np
import pytest

from repro.config import ZeroEDConfig
from repro.core.detector import ErrorDetector
from repro.core.featurize import FeatureSpace
from repro.core.training_data import AttributeTrainingData
from repro.data.stats import compute_all_stats
from repro.data.table import Table
from repro.errors import NotFittedError


def make_space(table, config):
    stats = compute_all_stats(table)
    correlated = {a: [] for a in table.attributes}
    criteria = {a: [] for a in table.attributes}
    return FeatureSpace.from_table(table, stats, correlated, criteria, config)


def training(attr, features, labels):
    return AttributeTrainingData(
        attr=attr,
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels, dtype=float),
        row_indices=list(range(len(labels))),
    )


@pytest.fixture
def setup():
    config = ZeroEDConfig(
        embedding_dim=4, mlp_epochs=10, use_correlated_features=False,
        use_criteria_features=False,
    )
    table = Table.from_rows(
        ["x"], [["common"]] * 40 + [["@@@"]] * 10, name="t"
    )
    return config, table, make_space(table, config)


class TestErrorDetector:
    def test_predict_before_fit(self, setup):
        config, table, space = setup
        with pytest.raises(NotFittedError):
            ErrorDetector(config).predict(table, space)

    def test_learns_separable_training_data(self, setup):
        config, table, space = setup
        unified = space.unified_matrix("x")
        labels = np.array([0.0] * 40 + [1.0] * 10)
        detector = ErrorDetector(config).fit(
            {"x": training("x", unified, labels)}, space
        )
        mask = detector.predict(table, space)
        assert mask.column("x")[40:].all()
        assert not mask.column("x")[:40].any()

    def test_constant_class_fallback_clean(self, setup):
        config, table, space = setup
        unified = space.unified_matrix("x")
        detector = ErrorDetector(config).fit(
            {"x": training("x", unified, np.zeros(50))}, space
        )
        assert detector.predict(table, space).error_count() == 0

    def test_constant_class_fallback_dirty(self, setup):
        config, table, space = setup
        unified = space.unified_matrix("x")
        detector = ErrorDetector(config).fit(
            {"x": training("x", unified, np.ones(50))}, space
        )
        assert detector.predict(table, space).error_count() == 50

    def test_empty_training_predicts_clean(self, setup):
        config, table, space = setup
        data = AttributeTrainingData(
            attr="x", features=np.zeros((0, 5)), labels=np.zeros(0),
            row_indices=[],
        )
        detector = ErrorDetector(config).fit({"x": data}, space)
        assert detector.predict(table, space).error_count() == 0

    def test_missing_attribute_model_skipped(self, setup):
        config, table, space = setup
        detector = ErrorDetector(config).fit({}, space)
        detector._models = {"other": None}  # nothing for 'x'
        mask = detector.predict(table, space)
        assert mask.error_count() == 0
