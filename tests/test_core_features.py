"""Tests for repro.core.correlation and repro.core.featurize."""

import dataclasses

import numpy as np
import pytest

from repro.config import ZeroEDConfig
from repro.core.correlation import correlated_attributes, nmi_matrix
from repro.core.featurize import FeatureSpace
from repro.criteria import compile_criteria
from repro.data.stats import compute_all_stats
from repro.data.table import Table
from repro.llm.simulated import codegen

from _reference_assembly import (
    reference_base_vector,
    reference_unified_vector,
)


def fd_table(n=200, seed=0):
    rng = np.random.default_rng(seed)
    cities = ["Boston", "Chicago", "Denver"]
    states = {"Boston": "MA", "Chicago": "IL", "Denver": "CO"}
    rows = []
    for i in range(n):
        city = cities[int(rng.integers(3))]
        noise = str(int(rng.integers(0, 10_000)))
        rows.append([city, states[city], noise])
    return Table.from_rows(["city", "state", "noise"], rows, name="fd")


class TestCorrelation:
    def test_fd_pair_has_high_nmi(self):
        matrix = nmi_matrix(fd_table())
        assert matrix[("city", "state")] > 0.9
        assert matrix[("city", "noise")] < 0.9

    def test_topk_selects_dependent_attr(self):
        corr = correlated_attributes(fd_table(), k=1)
        assert corr["city"] == ["state"]
        assert corr["state"] == ["city"]

    def test_k_zero(self):
        corr = correlated_attributes(fd_table(), k=0)
        assert all(v == [] for v in corr.values())

    def test_k_clipped(self):
        corr = correlated_attributes(fd_table(), k=10)
        assert len(corr["city"]) == 2

    def test_subsampling_path(self):
        corr = correlated_attributes(fd_table(n=500), k=1, max_rows=100)
        assert corr["city"] == ["state"]


def build_space(config=None):
    table = fd_table()
    config = config or ZeroEDConfig(embedding_dim=8)
    stats = compute_all_stats(table)
    correlated = correlated_attributes(table, config.n_correlated)
    rows = [table.row(i) for i in range(30)]
    criteria = {
        attr: compile_criteria(
            attr,
            codegen.generate_criteria(
                attr, rows, correlated[attr], 1.0, 0.0,
                np.random.default_rng(0),
            ),
        )
        for attr in table.attributes
    }
    return table, FeatureSpace.from_table(
        table, stats, correlated, criteria, config
    )


class TestFeatureSpace:
    def test_base_matrix_shape(self):
        table, fs = build_space()
        base = fs.blocks("city").take()
        assert base.shape[0] == table.n_rows
        assert base.shape[1] == fs.featurizers["city"].base_dim

    def test_unified_concatenates_correlated(self):
        table, fs = build_space()
        unified = fs.unified_matrix("city")
        expected = (
            fs.featurizers["city"].base_dim
            + fs.featurizers["state"].base_dim
            + fs.featurizers["noise"].base_dim
        )
        assert unified.shape[1] == expected

    def test_unified_without_correlated(self):
        config = ZeroEDConfig(embedding_dim=8, use_correlated_features=False)
        table, fs = build_space(config)
        assert fs.unified_matrix("city").shape[1] == fs.featurizers["city"].base_dim

    def test_block_ablations_reduce_dim(self):
        dims = {}
        for switch in (
            {}, {"use_criteria_features": False},
            {"use_semantic_features": False},
            {"use_statistical_features": False},
        ):
            config = ZeroEDConfig(embedding_dim=8, **switch)
            _, fs = build_space(config)
            key = tuple(sorted(switch)) or ("full",)
            dims[key] = fs.featurizers["city"].base_dim
        full = dims[("full",)]
        assert all(v < full for k, v in dims.items() if k != ("full",))

    def test_value_frequency_feature_value(self):
        table, fs = build_space()
        featurizer = fs.featurizers["city"]
        vec = reference_base_vector(
            featurizer, "Boston", {"state": "MA", "noise": "1"}
        )
        freq = featurizer.stats.value_frequency("Boston")
        assert vec[0] == pytest.approx(freq)

    def test_base_vector_matches_matrix_for_existing_cell(self):
        table, fs = build_space()
        i = 3
        row = table.row(i)
        vec = reference_base_vector(fs.featurizers["city"], row["city"], row)
        assert np.allclose(vec, fs.blocks("city").take()[i])

    def test_unified_vector_ad_hoc_value(self):
        table, fs = build_space()
        row = table.row(0)
        vec = reference_unified_vector(fs, "city", "NOTACITY", row, 0)
        assert vec.shape == (fs.unified_matrix("city").shape[1],)
        # Unknown value has zero value-frequency.
        assert vec[0] == 0.0

    def test_invalidate_recomputes_after_criteria_swap(self):
        table, fs = build_space()
        featurizer = fs.featurizers["city"]
        before = fs.unified_matrix("city").shape[1]
        featurizer.set_criteria(featurizer.criteria[:1])
        fs.invalidate("city")
        after = fs.unified_matrix("city").shape[1]
        assert after < before

    def test_cache_reused(self):
        table, fs = build_space()
        a = fs.blocks("city")
        b = fs.blocks("city")
        assert a is b
