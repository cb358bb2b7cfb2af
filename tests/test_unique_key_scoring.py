"""Scoring in vocabulary space: memory follows unique keys, not rows.

Pinned properties:

* **Memory follows unique keys** — scoring a table whose rows repeat
  40 times peaks at a small multiple of scoring its distinct rows
  once, on both detector engines: the detector builds feature rows
  only for unique keys, and the scorer caches per-value and narrow
  per-row feature blocks, never ``n × width`` base matrices.
* **Block boundaries are invisible** — the detector's prediction row
  block (``PREDICT_BLOCK_ROWS``) and the embedding's unseen-token
  block (``RESOLVE_BLOCK_TOKENS``) change only how much is held at
  once: masks and embeddings are byte-identical for blocks of 1, 7 and
  larger than the table, for any jobs count, on 0-row and 1-row tables
  too, on both detector engines.
* **A row scored alone is scored as in any batch** — every row of an
  unseen table scored alone (``score_rows([row])``, a one-row
  request) gets exactly its row of the whole-table mask, on both
  detector engines; any batch of 1–8 of its rows, in any order and
  with repeats, flags each row as when it is scored alone.  Tax brings
  criteria with context columns (``state``, ``rate``, ``*_exemp``).
* **A one-row score sorts nothing** — a row is its own unique key, so
  a warm one-row score calls ``np.unique`` zero times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ZeroEDConfig
from repro.core import detector
from repro.core.pipeline import ZeroED
from repro.data.registry import get_dataset, make_dataset
from repro.data.table import Table
from repro.text import embeddings, patterns
from repro.text.embeddings import SubwordHashEmbedding

BLOCK_SIZES = [1, 7, 1_000_000]
TABLE_ROWS = 90


def _sha(mask) -> str:
    return hashlib.sha256(mask.matrix.tobytes()).hexdigest()


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryFollowsUniqueKeys:
    @pytest.mark.parametrize("detector_engine", ["fast", "exact"])
    def test_tiled_rows_peak_near_distinct_rows_peak(
        self, detector_engine, monkeypatch
    ):
        # Every case starts from cold process-wide memo caches, so the
        # distinct rows' peak does not depend on what was scored before.
        monkeypatch.setattr(SubwordHashEmbedding, "_shared_instances", {})
        patterns.all_levels.cache_clear()
        patterns.generalize.cache_clear()
        config = ZeroEDConfig(
            seed=0,
            detector_engine=detector_engine,
            label_rate=0.1,
            mlp_epochs=8,
            criteria_sample_size=20,
        )
        scorer = ZeroED(config).fit(
            make_dataset("tax", n_rows=300, seed=0).dirty
        ).scorer()
        distinct = make_dataset("tax", n_rows=500, seed=4243).dirty
        rows = [distinct.row_tuple(i) for i in range(distinct.n_rows)]
        tiled = Table.from_rows(distinct.attributes, rows * 40, name="tiled")

        distinct_peak = _traced_peak(lambda: scorer.score_table(distinct))
        tiled_peak = _traced_peak(lambda: scorer.score_table(tiled))

        assert tiled_peak < 3 * distinct_peak, (
            f"20k tiled rows peaked at {tiled_peak / 2**20:.1f} MB, "
            f"500 distinct rows at {distinct_peak / 2**20:.1f} MB"
        )


@pytest.fixture(scope="module")
def fast_config() -> ZeroEDConfig:
    return ZeroEDConfig(
        label_rate=0.1,
        mlp_epochs=8,
        criteria_sample_size=20,
        embedding_dim=8,
        seed=0,
        detector_engine="fast",
    )


def _fit_case(dataset_name: str, config: ZeroEDConfig):
    """A scorer fitted on ``dataset_name`` and a table it never saw."""
    dataset = get_dataset(dataset_name)
    scorer = ZeroED(config).fit(dataset.make(n_rows=150, seed=7).dirty)
    return scorer.scorer(), dataset.make(n_rows=TABLE_ROWS, seed=29).dirty


@pytest.fixture(scope="module", params=["hospital", "beers", "tax"])
def case(request, fast_config):
    """A fast-engine scorer and a table it never saw."""
    return _fit_case(request.param, fast_config)


@pytest.fixture(scope="module")
def exact_case(case, fast_config):
    """``case`` with its scorer fitted on the exact detector engine."""
    _, table = case
    config = dataclasses.replace(fast_config, detector_engine="exact")
    return _fit_case(table.name, config)


def _patch_blocks(monkeypatch, scorer, block: int) -> None:
    monkeypatch.setattr(detector, "PREDICT_BLOCK_ROWS", block)
    monkeypatch.setattr(embeddings, "RESOLVE_BLOCK_TOKENS", block)
    # Resolve every token again, under the patched token block.
    for featurizer in scorer.featurizers.values():
        featurizer.embedding._token_cache.clear()


def _assert_block_invisible(case, engine, block, jobs, monkeypatch):
    scorer, table = case
    scorer = scorer.with_jobs(jobs)
    assert scorer.detector.engine == engine
    expected = _sha(scorer.score_table(table).mask)
    _patch_blocks(monkeypatch, scorer, block)
    assert _sha(scorer.score_table(table).mask) == expected


class TestBlockBoundaries:
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_fast_masks_byte_identical(self, case, block, jobs, monkeypatch):
        _assert_block_invisible(case, "fast", block, jobs, monkeypatch)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_exact_masks_byte_identical(
        self, exact_case, block, jobs, monkeypatch
    ):
        _assert_block_invisible(exact_case, "exact", block, jobs, monkeypatch)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_empty_and_single_row_tables(
        self, case, exact_case, block, monkeypatch
    ):
        cases = (case, exact_case)
        wholes = [
            scorer.score_table(table).mask.matrix for scorer, table in cases
        ]
        for (scorer, table), whole in zip(cases, wholes):
            _patch_blocks(monkeypatch, scorer, block)
            empty = scorer.score_table(table.select_rows([])).mask.matrix
            assert empty.shape == (0, table.n_attributes)
            for i in (0, table.n_rows - 1):
                one = scorer.score_table(table.select_rows([i])).mask.matrix
                np.testing.assert_array_equal(one, whole[i : i + 1])

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_embed_uniques_byte_identical(self, block, monkeypatch):
        values = (
            [f"{i:09d}" for i in range(300)]
            + ["", "a", "new york", "ab-cd ef", "St. Louis, MO 63101"]
            + [f"word{i} x{i % 7}" for i in range(40)]
        )
        expected = SubwordHashEmbedding(dim=16, seed=3).embed_uniques(values)
        monkeypatch.setattr(embeddings, "RESOLVE_BLOCK_TOKENS", block)
        model = SubwordHashEmbedding(dim=16, seed=3)
        got = model.embed_uniques(values)
        assert got.tobytes() == expected.tobytes()
        assert model.embed_uniques([]).shape == (0, 16)


def _rows(table: Table) -> list[dict[str, str]]:
    return [
        dict(zip(table.attributes, table.row_tuple(i)))
        for i in range(table.n_rows)
    ]


@pytest.fixture(scope="module", params=["fast", "exact"])
def engine_case(request, case, exact_case):
    """``case`` with its scorer fitted for the given detector engine."""
    return case if request.param == "fast" else exact_case


@pytest.fixture(scope="module")
def alone(engine_case):
    """The case table's rows each scored alone, stacked."""
    scorer, table = engine_case
    return np.vstack(
        [scorer.score_rows([row]).mask.matrix for row in _rows(table)]
    )


class TestOneRowScoring:
    def test_each_row_alone_equals_its_row_of_the_whole_mask(
        self, engine_case, alone
    ):
        scorer, table = engine_case
        if table.name == "tax":
            schema = set(table.attributes)
            assert any(
                (set(crit.context_attrs) - {attr}) & schema
                for attr, featurizer in scorer.featurizers.items()
                for crit in featurizer.criteria
            ), "the Tax fit has no criterion with a context column"
        whole = scorer.score_table(table).mask.matrix
        mismatched = np.nonzero((alone != whole).any(axis=1))[0].tolist()
        assert not mismatched, f"rows scored alone diverge: {mismatched}"

    @given(
        st.lists(
            st.integers(min_value=0, max_value=TABLE_ROWS - 1),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_any_batch_flags_each_row_as_alone(
        self, engine_case, alone, picks
    ):
        scorer, table = engine_case
        rows = _rows(table)
        batch = scorer.score_rows([rows[i] for i in picks]).mask.matrix
        np.testing.assert_array_equal(batch, alone[picks])

    def test_one_row_score_sorts_nothing(self, engine_case, monkeypatch):
        scorer, table = engine_case
        rows = _rows(table)
        for row in rows[:5]:
            scorer.score_rows([row])
        calls = []
        real_unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(1)
            return real_unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        for row in rows[5:15]:
            scorer.score_rows([row])
        assert not calls, f"{len(calls)} np.unique calls in 10 one-row scores"
