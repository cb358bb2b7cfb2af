"""Unit tests for Algorithm 1 (verification + assembly) internals."""

import numpy as np
import pytest

from repro.config import ZeroEDConfig
from repro.core.featurize import FeatureSpace
from repro.core.sampling import sample_representatives
from repro.core.training_data import (
    assemble_training_data,
    construct_training_data,
    verify_attribute,
)
from repro.criteria import compile_criteria
from repro.data.stats import compute_all_stats
from repro.data.table import Table
from repro.llm.client import LLMClient, LLMRequest, LLMResponse
from repro.llm.simulated import codegen
from repro.llm.simulated.engine import SimulatedLLM


def fd_table(n=120):
    rng = np.random.default_rng(0)
    pairs = [("Boston", "MA"), ("Chicago", "IL"), ("Denver", "CO")]
    rows = []
    for i in range(n):
        city, state = pairs[int(rng.integers(3))]
        if i % 12 == 0:
            state = "XX"  # planted rule violations
        rows.append([city, state])
    return Table.from_rows(["city", "state"], rows, name="fd")


def make_setup(config=None):
    config = config or ZeroEDConfig(embedding_dim=4, mlp_epochs=5)
    table = fd_table()
    stats = compute_all_stats(table)
    correlated = {"city": ["state"], "state": ["city"]}
    rng = np.random.default_rng(0)
    rows = [table.row(i) for i in range(40)]
    criteria = {
        attr: compile_criteria(
            attr,
            codegen.generate_criteria(attr, rows, correlated[attr], 1.0, 0.0, rng),
        )
        for attr in table.attributes
    }
    space = FeatureSpace.from_table(table, stats, correlated, criteria, config)
    sampling = sample_representatives(
        space.unified_matrix("state"), 24, seed=0
    )
    return config, table, space, sampling


def truthful_labels(table, sampling):
    """Label representatives via ground truth (state == 'XX')."""
    return {
        i: int(table.cell(i, "state") == "XX")
        for i in sampling.sampled_indices
    }


class TestVerifyAttribute:
    def test_propagation_and_counters(self):
        config, table, space, sampling = make_setup()
        labels = truthful_labels(table, sampling)
        llm = SimulatedLLM(seed=0)
        outcome = verify_attribute(
            llm, table, "state", space, sampling, labels, ["city"], config
        )
        assert outcome.n_propagated >= len(labels)
        assert outcome.n_criteria_kept >= 1

    def test_no_verification_keeps_raw_propagation(self):
        config, table, space, sampling = make_setup(
            ZeroEDConfig(embedding_dim=4, use_verification=False)
        )
        labels = truthful_labels(table, sampling)
        llm = SimulatedLLM(seed=0)
        outcome = verify_attribute(
            llm, table, "state", space, sampling, labels, ["city"], config
        )
        assert outcome.refined_criteria == []
        assert outcome.n_removed == 0

    def test_no_propagation_config(self):
        config, table, space, sampling = make_setup(
            ZeroEDConfig(embedding_dim=4, propagate_labels=False)
        )
        labels = truthful_labels(table, sampling)
        llm = SimulatedLLM(seed=0)
        outcome = verify_attribute(
            llm, table, "state", space, sampling, labels, ["city"], config
        )
        assert set(outcome.propagated) == set(labels)

    def test_untrusted_criteria_cannot_remove_rows(self):
        # data_verify_accuracy > 1 is unreachable: no criterion may veto.
        config, table, space, sampling = make_setup(
            ZeroEDConfig(embedding_dim=4, data_verify_accuracy=1.01)
        )
        labels = truthful_labels(table, sampling)
        llm = SimulatedLLM(seed=0)
        outcome = verify_attribute(
            llm, table, "state", space, sampling, labels, ["city"], config
        )
        assert outcome.n_removed == 0


class _RefusingLLM(LLMClient):
    """An LLM that returns empty payloads (worst-case degradation)."""

    model_name = "refuser"

    def _complete(self, request: LLMRequest) -> LLMResponse:
        return LLMResponse(text="cannot help", payload=[])


class TestAssembly:
    def test_balanced_after_augmentation(self):
        config, table, space, sampling = make_setup()
        labels = truthful_labels(table, sampling)
        llm = SimulatedLLM(seed=0)
        data = construct_training_data(
            llm, table, "state", space, sampling, labels, ["city"], config
        )
        n_pos = int(data.labels.sum())
        n_neg = len(data.labels) - n_pos
        assert n_pos > 0 and n_neg > 0
        # Augmentation drives the classes toward balance.
        assert n_pos >= 0.3 * n_neg

    def test_features_aligned_with_labels(self):
        config, table, space, sampling = make_setup()
        labels = truthful_labels(table, sampling)
        llm = SimulatedLLM(seed=0)
        data = construct_training_data(
            llm, table, "state", space, sampling, labels, ["city"], config
        )
        assert data.features.shape[0] == len(data.labels)
        assert data.features.shape[1] == space.unified_matrix("state").shape[1]

    def test_refusing_llm_degrades_gracefully(self):
        config, table, space, sampling = make_setup()
        labels = truthful_labels(table, sampling)
        data = construct_training_data(
            _RefusingLLM(), table, "state", space, sampling, labels,
            ["city"], config,
        )
        # No criteria, no augmentation — but propagation still yields a
        # usable training set.
        assert data.n_augmented == 0
        assert len(data.labels) > 0

    def test_augmented_examples_differ_from_sources(self):
        config, table, space, sampling = make_setup()
        labels = truthful_labels(table, sampling)
        llm = SimulatedLLM(seed=0)
        outcome = verify_attribute(
            llm, table, "state", space, sampling, labels, ["city"], config
        )
        data = assemble_training_data(
            llm, table, "state", space, outcome, ["city"], config
        )
        assert data.n_augmented >= 0
