"""Scoring in vocabulary space: memory follows unique keys, not rows.

Pinned properties:

* **Memory follows unique keys** — scoring a table whose rows repeat
  40 times peaks at a small multiple of scoring its distinct rows
  once: the fast engine builds feature rows only for unique keys, and
  the scorer caches per-value and narrow per-row feature blocks, never
  ``n × width`` base matrices.
* **Block boundaries are invisible** — the fast engine's prediction
  row block (``FAST_PREDICT_BLOCK_ROWS``) and the embedding's
  unseen-token block (``RESOLVE_BLOCK_TOKENS``) change only how much is
  held at once: masks and embeddings are byte-identical for blocks of
  1, 7 and larger than the table, for any jobs count, on 0-row and
  1-row tables too.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.config import ZeroEDConfig
from repro.core import detector
from repro.core.pipeline import ZeroED
from repro.data.registry import get_dataset, make_dataset
from repro.data.table import Table
from repro.text import embeddings
from repro.text.embeddings import SubwordHashEmbedding

BLOCK_SIZES = [1, 7, 1_000_000]


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
    def test_tiled_rows_peak_near_distinct_rows_peak(self):
        config = ZeroEDConfig(
            seed=0,
            detector_engine="fast",
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


@pytest.fixture(scope="module", params=["hospital", "beers"])
def case(request, fast_config):
    """A fast-engine scorer and a table it never saw."""
    dataset = get_dataset(request.param)
    scorer = ZeroED(fast_config).fit(dataset.make(n_rows=150, seed=7).dirty)
    return scorer.scorer(), dataset.make(n_rows=90, seed=29).dirty


def _patch_blocks(monkeypatch, scorer, block: int) -> None:
    monkeypatch.setattr(detector, "FAST_PREDICT_BLOCK_ROWS", block)
    monkeypatch.setattr(embeddings, "RESOLVE_BLOCK_TOKENS", block)
    # Resolve every token again, under the patched token block.
    for featurizer in scorer.featurizers.values():
        featurizer.embedding._token_cache.clear()


class TestBlockBoundaries:
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_fast_masks_byte_identical(self, case, block, jobs, monkeypatch):
        scorer, table = case
        scorer = scorer.with_jobs(jobs)
        assert scorer.detector.engine == "fast"
        expected = _sha(scorer.score_table(table).mask)
        _patch_blocks(monkeypatch, scorer, block)
        assert _sha(scorer.score_table(table).mask) == expected

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_empty_and_single_row_tables(self, case, block, monkeypatch):
        scorer, table = case
        whole = scorer.score_table(table).mask.matrix
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
