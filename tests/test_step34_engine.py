"""Equivalence/property suite for the vectorized Step-3/4 engine (PR 3).

Locks down three rewrites against retained per-row reference
implementations (``tests/_reference_step34.py``):

* ``fold_codes`` / ``Criterion.evaluate_column`` over given rows — the
  unique-combo fold restricted to those rows must match per-row
  ``check`` calls and the whole-column verdicts at those rows (shared
  verdict cache, any row order);
* ``propagate_labels`` — the argsort group-by must reproduce the
  per-cluster ``nonzero`` scan exactly, including dict insertion order
  (downstream sampling draws depend on it), for list and folded-code
  evidence alike;
* ``verify_attribute`` — identical propagated dicts, criteria
  keep/drop decisions and row removals versus the seed loop;
* the flat in-place Adam trainer — bitwise-identical parameters, loss
  history and probabilities versus the seed dict-of-arrays loop; the
  workspace-buffered prediction path returns identical results;
* its bound per-shape step — on both engines, bitwise-identical
  parameters and loss history versus the flat trainer it replaced
  (``ReferenceFlatMLP``), also on the training sets of a real
  fast-engine fit; the shared sigmoid equals the branch-per-sign
  reference bit for bit;
* the detector engines — on both, duplicate feature rows get one
  verdict, the one a forward pass over every row gives; the opt-in
  ``detector_engine="fast"`` is deterministic and its downstream
  P/R/F1 stays within the recorded parity band.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cli import build_parser
from repro.config import DETECTOR_ENGINES, ZeroEDConfig
from repro.core.correlation import correlated_attributes
from repro.core.criteria_step import generate_initial_criteria
from repro.core.detector import ErrorDetector
from repro.core.featurize import FeatureSpace
from repro.core.pipeline import ZeroED
from repro.core.sampling import SamplingResult, sample_representatives
from repro.core.training_data import (
    VerificationOutcome,
    assemble_training_data,
    propagate_labels,
    verify_attribute,
)
from repro.criteria import Criterion, compile_criteria
from repro.data.encoding import ColumnEncoding, fold_codes
from repro.data.registry import make_dataset
from repro.data.stats import PairStats, compute_all_stats
from repro.data.table import Table
from repro.errors import ConfigError
from repro.llm.simulated import codegen
from repro.llm.simulated.engine import SimulatedLLM
from repro.ml.metrics import score_masks
from repro.ml.mlp import MLP_ENGINES, MLPClassifier, Workspace, _sigmoid
from repro.ml.rng import as_generator
from repro.ml.scaler import StandardScaler

from _reference_step34 import (
    ReferenceFlatMLP,
    ReferenceMLPClassifier,
    _reference_sigmoid,
    reference_context_row,
    reference_propagate_labels,
)


# ----------------------------------------------------------------------
# fold_codes
# ----------------------------------------------------------------------
class TestFoldCodes:
    def test_matches_tuple_equality(self):
        rng = np.random.default_rng(0)
        cols = [
            [f"v{rng.integers(5)}" for _ in range(200)],
            [f"w{rng.integers(7)}" for _ in range(200)],
            [f"x{rng.integers(3)}" for _ in range(200)],
        ]
        encs = [ColumnEncoding.from_values(c) for c in cols]
        key = fold_codes(encs)
        tuples = list(zip(*cols))
        for i in range(200):
            for j in range(i + 1, 200):
                assert (key[i] == key[j]) == (tuples[i] == tuples[j])

    def test_row_indices_restriction(self):
        values = [f"v{i % 4}" for i in range(50)]
        other = [f"u{i % 3}" for i in range(50)]
        encs = [
            ColumnEncoding.from_values(values),
            ColumnEncoding.from_values(other),
        ]
        idx = np.array([3, 1, 41, 7, 7, 0])
        np.testing.assert_array_equal(
            fold_codes(encs, row_indices=idx), fold_codes(encs)[idx]
        )

    def test_overflow_fallback_preserves_equality(self):
        # Fake encodings whose claimed cardinality overflows the
        # mixed-radix fold; the np.unique(axis=0) fallback must keep
        # tuple-equality semantics.
        class Huge:
            def __init__(self, codes):
                self.codes = np.asarray(codes, dtype=np.int64)
                self.n_unique = 2**32

        a = Huge([0, 1, 0, 1, 0])
        b = Huge([2, 3, 2, 2, 2])
        key = fold_codes([a, b])
        assert key[0] == key[2] == key[4]
        assert key[0] != key[1] and key[1] != key[3]

    def test_empty_encodings_rejected(self):
        with pytest.raises(ValueError):
            fold_codes([])


# ----------------------------------------------------------------------
# Criterion.evaluate_column over given rows
# ----------------------------------------------------------------------
def _criteria_setup(dataset="hospital", n_rows=70, seed=0):
    config = ZeroEDConfig(criteria_sample_size=15, seed=seed)
    table = make_dataset(dataset, n_rows=n_rows, seed=seed).dirty
    llm = SimulatedLLM(seed=seed)
    correlated = correlated_attributes(table, 2, seed=seed)
    criteria = generate_initial_criteria(llm, table, correlated, config)
    return table, correlated, criteria


class TestEvaluateRows:
    def test_matches_per_row_check(self):
        table, correlated, criteria = _criteria_setup()
        rng = np.random.default_rng(1)
        for attr, crits in criteria.items():
            context = correlated[attr]
            idx = rng.permutation(table.n_rows)[:40].tolist()
            for crit in crits:
                fast = crit.evaluate_column(table, idx)
                slow = np.array(
                    [
                        crit.check(
                            reference_context_row(table, i, attr, context)
                        )
                        for i in idx
                    ],
                    dtype=bool,
                )
                assert (fast == slow).all(), f"{attr}/{crit.name} diverged"

    def test_shares_cache_with_check(self):
        table, correlated, criteria = _criteria_setup()
        attr = next(a for a, cs in criteria.items() if cs)
        crit = criteria[attr][0]
        idx = list(range(table.n_rows))
        first = crit.evaluate_column(table, idx)
        cached = len(crit._cache)
        again = crit.evaluate_column(table, idx)
        np.testing.assert_array_equal(first, again)
        assert len(crit._cache) == cached  # no new evaluations

    def test_empty_rows(self):
        crit = Criterion.from_spec(
            "x",
            {
                "name": "non_empty",
                "source": "def non_empty(row, attr):\n"
                "    return bool(row[attr])\n",
            },
        )
        t = Table(["x"], {"x": ["a", "", "b"]})
        assert crit.evaluate_column(t, []).shape == (0,)

    @pytest.mark.parametrize("context", [[], ["zip"]])
    def test_context_free_rows_run_once_per_value_present(self, context):
        # No context column in the table: the criterion runs once per
        # distinct value among the rows ("c" is never evaluated), and
        # each verdict is cached under `_row_key`'s tuple.
        calls = []

        def is_clean(row, attr):
            calls.append(row[attr])
            return row[attr] != "b"

        crit = Criterion(
            attr="x", name="is_clean", source="", context_attrs=context,
            _fn=is_clean,
        )
        t = Table(["x"], {"x": ["a", "b", "c", "a"]})
        rows = [3, 0, 3, 1]
        got = crit.evaluate_column(t, rows)
        assert calls == ["a", "b"]
        assert set(crit._cache) == {
            crit._row_key({"x": "a"}), crit._row_key({"x": "b"})
        }
        assert crit.check({"x": "a"}) and calls == ["a", "b"]
        np.testing.assert_array_equal(got, crit.evaluate_column(t)[rows])
        assert got.tolist() == [True, True, True, False]

    def test_rows_equal_whole_column_at_those_rows(self):
        # Restricting the fold to some rows (in any order, with
        # repeats) changes which rows are evaluated, never a verdict:
        # a context attr is read from the table either way.
        crit = Criterion.from_spec(
            "x",
            {
                "name": "uses_ctx",
                "source": "def uses_ctx(row, attr):\n"
                "    return row.get('y', '') != 'bad'\n",
                "context_attrs": ["y"],
            },
        )
        t = Table(
            ["x", "y"],
            {"x": ["a", "a", "b", "b"], "y": ["bad", "ok", "bad", "ok"]},
        )
        whole = crit.evaluate_column(t)
        assert whole.tolist() == [False, True, False, True]
        for rows in ([0, 1, 2, 3], [2, 0, 3], [1, 1, 0], [3]):
            np.testing.assert_array_equal(
                crit.evaluate_column(t, rows), whole[rows]
            )
        table, _, criteria = _criteria_setup()
        idx = np.random.default_rng(2).permutation(table.n_rows)[:30]
        for crits in criteria.values():
            for crit in crits:
                np.testing.assert_array_equal(
                    crit.evaluate_column(table, idx),
                    crit.evaluate_column(table)[idx],
                )


# ----------------------------------------------------------------------
# propagate_labels group-by
# ----------------------------------------------------------------------
class TestPropagateGroupBy:
    def fuzz_case(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        k = int(rng.integers(1, 12))
        labels = rng.integers(0, k, size=n)
        representative_of = {}
        for cid in np.unique(labels):
            members = np.nonzero(labels == cid)[0]
            representative_of[int(cid)] = int(rng.choice(members))
        llm_labels = {
            rep: int(rng.integers(2))
            for rep in representative_of.values()
            if rng.random() > 0.2
        }
        sampling = SamplingResult(
            cluster_labels=labels,
            sampled_indices=sorted(set(representative_of.values())),
            representative_of=representative_of,
        )
        evidence = rng.integers(0, 6, size=n).astype(np.int64)
        return sampling, llm_labels, evidence

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_with_code_evidence(self, seed):
        sampling, llm_labels, evidence = self.fuzz_case(seed)
        new = propagate_labels(sampling, llm_labels, evidence=evidence)
        ref = reference_propagate_labels(
            sampling, llm_labels, evidence=evidence.tolist()
        )
        assert list(new.items()) == list(ref.items())  # incl. order

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_without_evidence(self, seed):
        sampling, llm_labels, _ = self.fuzz_case(seed)
        new = propagate_labels(sampling, llm_labels)
        ref = reference_propagate_labels(sampling, llm_labels)
        assert list(new.items()) == list(ref.items())

    def test_list_evidence_still_supported(self):
        sampling = SamplingResult(
            cluster_labels=np.array([0, 0, 0, 1, 1, 1]),
            sampled_indices=[0, 3],
            representative_of={0: 0, 1: 3},
        )
        out = propagate_labels(
            sampling, {0: 1, 3: 1}, evidence=["a", "a", "b", "c", "c", "d"]
        )
        assert out == {0: 1, 1: 1, 3: 1, 4: 1}

    def test_representative_without_llm_label_skipped(self):
        sampling = SamplingResult(
            cluster_labels=np.array([0, 0, 1, 1]),
            sampled_indices=[0, 2],
            representative_of={0: 0, 1: 2},
        )
        out = propagate_labels(sampling, {0: 0})
        assert out == {0: 0, 1: 0}


# ----------------------------------------------------------------------
# verify_attribute equivalence (vectorized vs seed per-row loop)
# ----------------------------------------------------------------------
def fd_table(n=120):
    rng = np.random.default_rng(0)
    pairs = [("Boston", "MA"), ("Chicago", "IL"), ("Denver", "CO")]
    rows = []
    for i in range(n):
        city, state = pairs[int(rng.integers(3))]
        if i % 12 == 0:
            state = "XX"
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
            codegen.generate_criteria(
                attr, rows, correlated[attr], 1.0, 0.0, rng
            ),
        )
        for attr in table.attributes
    }
    space = FeatureSpace.from_table(table, stats, correlated, criteria, config)
    sampling = sample_representatives(
        space.unified_matrix("state"), 24, seed=0
    )
    return config, table, space, sampling


def reference_verify_attribute(
    llm, table, attr, feature_space, sampling, llm_labels, correlated, config
):
    """The seed per-row verification loop (pre-PR 3), verbatim."""
    from repro.core.training_data import (
        VerificationOutcome,
        refine_criteria,
    )
    from repro.ml.rng import spawn

    if config.propagate_labels:
        code_cols = [table.encoding(attr).codes.tolist()] + [
            table.encoding(q).codes.tolist()
            for q in correlated
            if q in table.attributes
        ]
        evidence = list(zip(*code_cols))
        propagated = reference_propagate_labels(
            sampling, llm_labels, evidence=evidence
        )
    else:
        propagated = dict(llm_labels)
    outcome = VerificationOutcome(
        attr=attr, propagated=propagated, n_propagated=len(propagated)
    )
    if not (config.use_verification and propagated):
        return outcome
    error_rows = [
        reference_context_row(table, i, attr, correlated)
        for i, lab in sorted(llm_labels.items())
        if lab == 1
    ]
    clean_sample = [i for i, lab in propagated.items() if lab == 0]
    if len(clean_sample) > 400:
        rng = spawn(config.seed, f"contrastive/{attr}")
        picked = rng.choice(len(clean_sample), size=400, replace=False)
        clean_sample = [clean_sample[int(k)] for k in sorted(picked)]
    clean_rows = [
        reference_context_row(table, i, attr, correlated)
        for i in clean_sample
    ]
    if error_rows and clean_rows:
        candidates = refine_criteria(
            llm, table, attr, error_rows, clean_rows, correlated
        )
    else:
        candidates = []
    right_rows = [
        (i, reference_context_row(table, i, attr, correlated))
        for i, lab in propagated.items()
        if lab == 0
    ]
    row_dicts = [row for _, row in right_rows]
    initial = (
        feature_space.featurizers[attr].criteria
        if config.use_criteria_features
        else []
    )
    merged = {}
    for crit in list(candidates) + list(initial):
        merged.setdefault(crit.name, crit)
    refined, trusted = [], []
    for crit in merged.values():
        accuracy = (
            sum(1 for r in row_dicts if crit.check(r)) / len(row_dicts)
            if row_dicts else 0.0
        )
        if accuracy >= config.criteria_accuracy_threshold:
            refined.append(crit)
            outcome.n_criteria_kept += 1
            if accuracy >= config.data_verify_accuracy:
                trusted.append(crit)
        else:
            outcome.n_criteria_dropped += 1
    if trusted:
        for i, row in right_rows:
            passed = sum(1 for c in trusted if c.check(row))
            if passed / len(trusted) < config.data_pass_threshold:
                del propagated[i]
                outcome.n_removed += 1
    if refined and config.use_criteria_features:
        feature_space.featurizers[attr].set_criteria(refined)
        feature_space.invalidate(attr)
    outcome.refined_criteria = refined
    return outcome


def truthful_labels(table, sampling):
    return {
        i: int(table.cell(i, "state") == "XX")
        for i in sampling.sampled_indices
    }


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"data_verify_accuracy": 0.5},
        {"data_pass_threshold": 1.0},
        {"use_criteria_features": False},
        {"propagate_labels": False},
    ],
)
def test_verify_attribute_matches_seed_loop(overrides):
    outcomes = []
    for impl in (verify_attribute, reference_verify_attribute):
        config, table, space, sampling = make_setup(
            ZeroEDConfig(embedding_dim=4, mlp_epochs=5, **overrides)
        )
        labels = truthful_labels(table, sampling)
        llm = SimulatedLLM(seed=0)
        outcomes.append(
            impl(llm, table, "state", space, sampling, labels,
                 ["city"], config)
        )
    new, ref = outcomes
    assert list(new.propagated.items()) == list(ref.propagated.items())
    assert new.n_propagated == ref.n_propagated
    assert new.n_removed == ref.n_removed
    assert new.n_criteria_kept == ref.n_criteria_kept
    assert new.n_criteria_dropped == ref.n_criteria_dropped
    assert [c.name for c in new.refined_criteria] == [
        c.name for c in ref.refined_criteria
    ]


def test_verify_attribute_matches_seed_loop_on_generator_slice():
    results = []
    for impl in (verify_attribute, reference_verify_attribute):
        config = ZeroEDConfig(
            embedding_dim=8, criteria_sample_size=15, seed=0
        )
        table = make_dataset("beers", n_rows=120, seed=0).dirty
        llm = SimulatedLLM(seed=0)
        stats = compute_all_stats(table)
        correlated = correlated_attributes(table, 2, seed=0)
        criteria = generate_initial_criteria(llm, table, correlated, config)
        space = FeatureSpace.from_table(
            table, stats, correlated, criteria, config
        )
        per_attr = {}
        for attr in table.attributes:
            sampling = sample_representatives(
                space.unified_matrix(attr), 12, seed=0
            )
            labels = {
                i: int(k % 3 == 0)
                for k, i in enumerate(sampling.sampled_indices)
            }
            outcome = impl(
                llm, table, attr, space, sampling, labels,
                correlated[attr], config,
            )
            per_attr[attr] = (
                list(outcome.propagated.items()),
                outcome.n_removed,
                outcome.n_criteria_kept,
                outcome.n_criteria_dropped,
                [c.name for c in outcome.refined_criteria],
            )
        results.append(per_attr)
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# A criterion's context is the table's cells, not the correlated list
# ----------------------------------------------------------------------
class TestContextOutsideCorrelated:
    """A criterion may read an attribute that is not one of ``attr``'s
    correlated attributes (``parse_criteria`` infers context from any
    ``row[...]``).  Scoring evaluates it on the real cell, so
    verification and augmentation must too."""

    def case(self, spec):
        config = ZeroEDConfig(embedding_dim=4, mlp_epochs=5)
        ys = ["Alpha", "Beta", "Gamma", "Delta"]
        table = Table.from_rows(
            ["x", "y", "z"],
            [
                [ys[i % 4].lower(), ys[i % 4], f"z{i % 3}"]
                for i in range(40)
            ],
            name="ctx",
        )
        correlated = {"x": ["z"]}
        crit = Criterion.from_spec("x", spec)
        space = FeatureSpace.from_table(
            table, compute_all_stats(table), correlated, {"x": [crit]},
            config,
        )
        return config, table, space, crit

    def test_verification_reads_the_context_cell(self):
        config, table, space, crit = self.case(
            {
                "name": "matches_y",
                "source": "def matches_y(row, attr):\n"
                "    return row[attr] == row['y'].lower()\n",
                "context_attrs": ["y"],
            }
        )
        assert crit.evaluate_column(table).all()  # what scoring sees
        sampling = SamplingResult(
            cluster_labels=np.zeros(table.n_rows, dtype=np.int64),
            sampled_indices=[0],
            representative_of={0: 0},
        )
        outcome = verify_attribute(
            SimulatedLLM(seed=0), table, "x", space, sampling, {0: 0},
            ["z"], config,
        )
        assert outcome.n_propagated == table.n_rows
        assert outcome.n_criteria_dropped == 0
        assert [c.name for c in outcome.refined_criteria] == ["matches_y"]
        assert outcome.criteria_accuracies == {"matches_y": 1.0}

    def test_augmented_rows_read_the_context_cell(self):
        config, table, space, crit = self.case(
            {
                "name": "has_y",
                "source": "def has_y(row, attr):\n"
                "    return row['y'] != ''\n",
                "context_attrs": ["y"],
            }
        )
        outcome = VerificationOutcome(
            attr="x",
            propagated={i: 0 for i in range(table.n_rows)},
            refined_criteria=[crit],
            n_propagated=table.n_rows,
        )
        data = assemble_training_data(
            SimulatedLLM(seed=0), table, "x", space, outcome, ["z"], config
        )
        assert data.n_augmented > 0
        # The criterion is the last column of x's base block: every
        # source row has a non-empty y, on real and augmented rows.
        verdicts = data.features[:, space.featurizers["x"].base_dim - 1]
        assert (verdicts == 1.0).all()


# ----------------------------------------------------------------------
# Flat in-place Adam trainer: bitwise equivalence with the seed loop
# ----------------------------------------------------------------------
def training_blob(seed=0, n=700, d=23):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, d))
    y = (x[:, 0] + 0.3 * rng.normal(0, 1, n) > 0).astype(float)
    return x, y


class TestExactTrainerBitwise:
    def test_params_and_losses_bitwise_identical(self):
        x, y = training_blob()
        new = MLPClassifier(hidden=16, epochs=8, seed=7).fit(x, y)
        ref = ReferenceMLPClassifier(hidden=16, epochs=8, seed=7).fit(x, y)
        assert new.loss_history_ == ref.loss_history_
        for key in ("w1", "b1", "w2", "b2", "w3", "b3"):
            assert np.array_equal(new._params[key], ref._params[key]), key

    def test_probabilities_bitwise_identical(self):
        x, y = training_blob(seed=1)
        new = MLPClassifier(hidden=16, epochs=6, seed=3).fit(x, y)
        ref = ReferenceMLPClassifier(hidden=16, epochs=6, seed=3).fit(x, y)
        assert np.array_equal(new.predict_proba(x), ref.predict_proba(x))

    def test_partial_batch_and_unbalanced_weights(self):
        # n not a multiple of batch_size exercises the small-tail
        # buffers; unbalanced classes exercise the weight path.
        x, y = training_blob(seed=2, n=301)
        y[:280] = 0.0
        new = MLPClassifier(
            hidden=8, epochs=5, batch_size=64, seed=11
        ).fit(x, y)
        ref = ReferenceMLPClassifier(
            hidden=8, epochs=5, batch_size=64, seed=11
        ).fit(x, y)
        assert new.loss_history_ == ref.loss_history_
        for key in ("w1", "b1", "w2", "b2", "w3", "b3"):
            assert np.array_equal(new._params[key], ref._params[key]), key

    def test_early_stopping_history_identical(self):
        x, y = training_blob(seed=3, n=200)
        new = MLPClassifier(hidden=8, epochs=40, patience=3, seed=0).fit(x, y)
        ref = ReferenceMLPClassifier(
            hidden=8, epochs=40, patience=3, seed=0
        ).fit(x, y)
        assert new.loss_history_ == ref.loss_history_

    def test_workspace_reuse_identical_probabilities(self):
        x, y = training_blob(seed=4)
        clf = MLPClassifier(hidden=16, epochs=5, seed=0).fit(x, y)
        ws = Workspace()
        a = clf.predict_proba(x, workspace=ws)
        b = clf.predict_proba(x, workspace=ws)
        c = clf.predict_proba(x)
        assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_workspace_returns_same_buffer(self):
        ws = Workspace()
        a = ws.get("z", (4, 3), np.float64)
        b = ws.get("z", (4, 3), np.float64)
        c = ws.get("z", (5, 3), np.float64)
        assert a is b and a is not c


# ----------------------------------------------------------------------
# Bound-step trainer: bitwise equivalence with the flat trainer it
# replaced, on both engines
# ----------------------------------------------------------------------
def assert_same_training(new, ref):
    assert new.loss_history_ == ref.loss_history_
    assert (
        new.export_flat_params().tobytes()
        == ref.export_flat_params().tobytes()
    )


def train_both(x, y, sample_weight=None, **settings):
    seed = settings.pop("seed", 0)
    new = MLPClassifier(
        seed=copy.deepcopy(as_generator(seed)), **settings
    ).fit(x, y, sample_weight)
    ref = ReferenceFlatMLP(
        seed=copy.deepcopy(as_generator(seed)), **settings
    ).fit(x, y, sample_weight)
    return new, ref


@pytest.fixture(scope="module")
def fast_fit_training_sets():
    """Every ``MLPClassifier.fit`` call of a small fast-engine fit."""
    captured = []
    real_fit = MLPClassifier.fit

    def capture(self, x, y, sample_weight=None):
        captured.append({
            "settings": {
                "hidden": self.hidden, "epochs": self.epochs,
                "batch_size": self.batch_size, "lr": self.lr,
                "class_weight": self.class_weight,
                "patience": self.patience,
            },
            "seed": copy.deepcopy(self._rng),
            "x": np.array(x), "y": np.array(y),
            "sample_weight": (
                None if sample_weight is None else np.array(sample_weight)
            ),
        })
        return real_fit(self, x, y, sample_weight)

    config = ZeroEDConfig(
        seed=0, detector_engine="fast", label_rate=0.1, mlp_epochs=12,
        criteria_sample_size=20,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MLPClassifier, "fit", capture)
        ZeroED(config).fit(make_dataset("hospital", n_rows=160, seed=1).dirty)
    return captured


@pytest.mark.parametrize("engine", MLP_ENGINES)
class TestBoundStepBitwise:
    def test_balanced_blob(self, engine):
        x, y = training_blob(seed=10)
        assert_same_training(*train_both(
            x, y, hidden=16, epochs=6, seed=7, engine=engine
        ))

    def test_sample_weight_path(self, engine):
        x, y = training_blob(seed=11, n=400)
        w = np.random.default_rng(11).integers(1, 5, len(y)).astype(float)
        assert_same_training(*train_both(
            x, y, w, hidden=16, epochs=6, seed=3, engine=engine
        ))

    def test_ragged_tail(self, engine):
        x, y = training_blob(seed=12, n=301)
        y[:280] = 0.0
        new, ref = train_both(
            x, y, hidden=8, epochs=5, batch_size=64, seed=11, engine=engine
        )
        assert_same_training(new, ref)

    def test_single_batch(self, engine):
        x, y = training_blob(seed=13, n=50)
        assert_same_training(*train_both(
            x, y, hidden=8, epochs=10, batch_size=128, seed=5, engine=engine
        ))

    def test_early_stop(self, engine):
        # Noise labels and a large step: the loss plateaus early.
        x, _ = training_blob(seed=14, n=200)
        y = (np.random.default_rng(14).random(200) < 0.5).astype(float)
        new, ref = train_both(
            x, y, hidden=8, epochs=200, patience=3, lr=0.05, seed=0,
            engine=engine,
        )
        assert len(new.loss_history_) < 200      # it did stop early
        assert_same_training(new, ref)

    def test_real_detector_training_sets(self, engine, fast_fit_training_sets):
        assert len(fast_fit_training_sets) >= 5
        for rec in fast_fit_training_sets:
            assert_same_training(*train_both(
                rec["x"], rec["y"], rec["sample_weight"],
                seed=rec["seed"], engine=engine, **rec["settings"],
            ))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bitwise_equals_reference(dtype):
    # Scoring and training share the sigmoid; the reference is the
    # branch-per-sign form that indexes z >= 0 and z < 0 apart.
    info = np.finfo(dtype)
    special = [
        0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
        info.tiny, -info.tiny, 1e-30, -1e-30, 20.0, -20.0, 100.0,
        -100.0, 1e4, -1e4, info.max, -info.max, np.inf, -np.inf,
    ]
    rng = np.random.default_rng(0)
    spread = rng.standard_normal(4096) * 10.0 ** rng.integers(-8, 4, 4096)
    pool = np.concatenate([special, spread]).astype(dtype)
    for length in (1, 3, 4096):
        for start in range(len(special)):
            z = pool[start : start + length]
            got, want = _sigmoid(z), _reference_sigmoid(z)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), (length, start)


# ----------------------------------------------------------------------
# Fast engine: determinism + parity band (PR 2 test pattern)
# ----------------------------------------------------------------------
class TestFastEngine:
    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifier(engine="turbo")

    def test_deterministic_under_seed(self):
        x, y = training_blob(seed=5)
        a = MLPClassifier(hidden=16, epochs=5, seed=9, engine="fast").fit(x, y)
        b = MLPClassifier(hidden=16, epochs=5, seed=9, engine="fast").fit(x, y)
        assert np.array_equal(a.predict_proba(x), b.predict_proba(x))
        assert a.loss_history_ == b.loss_history_

    def test_fast_close_to_exact_on_separable_data(self):
        x, y = training_blob(seed=6)
        exact = MLPClassifier(hidden=16, epochs=10, seed=2).fit(x, y)
        fast = MLPClassifier(
            hidden=16, epochs=10, seed=2, engine="fast"
        ).fit(x, y)
        agree = np.mean(
            (exact.predict_proba(x) >= 0.5) == (fast.predict_proba(x) >= 0.5)
        )
        assert agree > 0.95

    def test_losses_stay_finite_on_saturated_predictions(self):
        # float32 regression: with the float64 clip bound, 1 - 1e-9
        # rounds to 1.0f and log(1 - p) returns -inf, turning the loss
        # into NaN once any positive row saturates.
        rng = np.random.default_rng(8)
        x = rng.normal(0, 5, (500, 12))
        y = (rng.random(500) < 0.3).astype(float)
        clf = MLPClassifier(hidden=16, epochs=6, seed=0, engine="fast")
        clf.fit(x, y)
        assert all(np.isfinite(v) for v in clf.loss_history_)


class TestDetectorEngine:
    def make_space(self, table, config):
        stats = compute_all_stats(table)
        correlated = {a: [] for a in table.attributes}
        criteria = {a: [] for a in table.attributes}
        return FeatureSpace.from_table(
            table, stats, correlated, criteria, config
        )

    def setup_detector(self, engine):
        from repro.core.training_data import AttributeTrainingData

        config = ZeroEDConfig(
            embedding_dim=4, mlp_epochs=10, use_correlated_features=False,
            use_criteria_features=False, detector_engine=engine,
        )
        table = Table.from_rows(
            ["x"], [["common"]] * 40 + [["@@@"]] * 10, name="t"
        )
        space = self.make_space(table, config)
        unified = space.unified_matrix("x")
        labels = np.array([0.0] * 40 + [1.0] * 10)
        data = AttributeTrainingData(
            attr="x", features=unified, labels=labels,
            row_indices=list(range(50)),
        )
        detector = ErrorDetector(config).fit({"x": data}, space)
        return detector, table, space

    @pytest.mark.parametrize("engine", DETECTOR_ENGINES)
    def test_learns_separable_training_data(self, engine):
        detector, table, space = self.setup_detector(engine)
        mask = detector.predict(table, space)
        assert mask.column("x")[40:].all()
        assert not mask.column("x")[:40].any()

    @pytest.mark.parametrize("engine", DETECTOR_ENGINES)
    def test_duplicate_rows_share_verdict(self, engine):
        detector, table, space = self.setup_detector(engine)
        mask = detector.predict(table, space)
        col = mask.column("x")
        # All 40 'common' rows are byte-identical feature rows; the
        # collapsed prediction must give them one shared verdict.
        assert len(set(col[:40].tolist())) == 1
        assert len(set(col[40:].tolist())) == 1

    def test_fast_deterministic(self):
        masks = []
        for _ in range(2):
            detector, table, space = self.setup_detector("fast")
            masks.append(detector.predict(table, space).matrix.copy())
        assert np.array_equal(masks[0], masks[1])

    @pytest.mark.parametrize("engine", DETECTOR_ENGINES)
    def test_code_dedup_matches_full_forward(self, engine):
        # The folded-code dedup must be a pure optimisation: same
        # verdicts as running the forward pass over every row.
        detector, table, space = self.setup_detector(engine)
        model = detector._models["x"]
        full = model.mlp.predict_proba(
            model.scaler.transform(space.unified_matrix("x"))
        )
        mask = detector.predict(table, space)
        np.testing.assert_array_equal(
            mask.column("x"),
            full >= detector.config.decision_threshold,
        )

    def test_unified_key_columns_cover_feature_dependencies(self):
        from repro.core.detector import _unified_key_columns

        table, correlated, criteria = _criteria_setup(n_rows=50)
        config = ZeroEDConfig(criteria_sample_size=15, seed=0)
        stats = compute_all_stats(table)
        space = FeatureSpace.from_table(
            table, stats, correlated, criteria, config
        )
        for attr in table.attributes:
            cols = _unified_key_columns(space, table, attr)
            assert cols[0] == attr
            expect = {attr}
            expect.update(correlated[attr])
            for owner in [attr] + correlated[attr]:
                expect.update(space.featurizers[owner].correlated)
                for crit in space.featurizers[owner].criteria:
                    expect.update(
                        a for a in crit.context_attrs
                        if a in table.attributes
                    )
            assert set(cols) == expect

    def test_subsample_rows_preserves_rare_class(self):
        from repro.core.detector import _subsample_rows

        rng = np.random.default_rng(0)
        n = 5000
        stacked = np.column_stack(
            [rng.normal(0, 1, (n, 3)), np.zeros(n)]
        )
        stacked[:2, -1] = 1.0  # two minority rows only
        weights = np.ones(n)
        kept, kept_w = _subsample_rows(
            stacked, weights, 500, np.random.default_rng(1)
        )
        assert len(kept) == len(kept_w) <= 500
        assert 1.0 in set(np.unique(kept[:, -1]).tolist())

    def test_subsample_rows_deterministic(self):
        from repro.core.detector import _subsample_rows

        rng = np.random.default_rng(2)
        stacked = np.column_stack(
            [rng.normal(0, 1, (1000, 2)), rng.integers(0, 2, 1000)]
        )
        w = np.ones(1000)
        a, aw = _subsample_rows(stacked, w, 100, np.random.default_rng(5))
        b, bw = _subsample_rows(stacked, w, 100, np.random.default_rng(5))
        assert np.array_equal(a, b) and np.array_equal(aw, bw)


#: Downstream tolerance band for the fast detector engine, the same
#: budget the fast sampling engine is held to (PR 2).
PRF_TOLERANCE = 0.12


def test_detection_prf_parity_between_detector_engines():
    data = make_dataset("beers", n_rows=200, seed=3)
    prf = {}
    for engine in DETECTOR_ENGINES:
        result = ZeroED(
            seed=0,
            label_rate=0.1,
            mlp_epochs=8,
            criteria_sample_size=20,
            embedding_dim=8,
            detector_engine=engine,
        ).detect(data.dirty)
        prf[engine] = score_masks(result.mask, data.mask)
    for field in ("precision", "recall", "f1"):
        delta = abs(
            getattr(prf["fast"], field) - getattr(prf["exact"], field)
        )
        assert delta <= PRF_TOLERANCE, (
            f"{field} drifted {delta:.4f} between detector engines "
            f"(exact {getattr(prf['exact'], field):.4f}, "
            f"fast {getattr(prf['fast'], field):.4f})"
        )


def test_default_config_uses_exact_detector_engine():
    assert ZeroEDConfig().detector_engine == "exact"
    with pytest.raises(ConfigError):
        ZeroEDConfig(detector_engine="turbo")


def test_cli_exposes_detector_engine():
    parser = build_parser()
    args = parser.parse_args(
        ["detect", "beers", "--detector-engine", "fast"]
    )
    assert args.detector_engine == "fast"
    args = parser.parse_args(["detect-csv", "f.csv"])
    assert args.detector_engine == "exact"


# ----------------------------------------------------------------------
# Table.pair_stats memoization
# ----------------------------------------------------------------------
class TestPairStatsMemo:
    def make_table(self):
        return Table.from_rows(
            ["city", "state"],
            [["Boston", "MA"], ["Boston", "MA"], ["Chicago", "IL"],
             ["Boston", "NH"], ["Chicago", "IL"]],
            name="memo",
        )

    def test_memoizes_per_ordered_pair(self):
        t = self.make_table()
        a = t.pair_stats("city", "state")
        assert t.pair_stats("city", "state") is a
        assert t.pair_stats("state", "city") is not a

    def test_matches_fresh_compute(self):
        t = self.make_table()
        cached = t.pair_stats("city", "state")
        fresh = PairStats.compute(t, "city", "state")
        assert cached.majority == fresh.majority
        assert cached.fd_strength == fresh.fd_strength

    def test_set_cell_invalidates_touching_pairs_only(self):
        t = Table.from_rows(
            ["a", "b", "c"],
            [["1", "x", "p"], ["1", "x", "q"], ["2", "y", "p"]],
        )
        ab = t.pair_stats("a", "b")
        bc = t.pair_stats("b", "c")
        t.set_cell(0, "c", "zz")
        assert t.pair_stats("a", "b") is ab       # untouched pair kept
        assert t.pair_stats("b", "c") is not bc   # recomputed
        assert t.pair_stats("b", "c").majority["x"][0] in ("zz", "q")

    def test_invalidation_reflects_new_content(self):
        t = self.make_table()
        before = t.pair_stats("city", "state")
        assert before.majority["Boston"][0] == "MA"
        t.set_cell(0, "state", "NH")
        t.set_cell(1, "state", "NH")
        after = t.pair_stats("city", "state")
        assert after.majority["Boston"][0] == "NH"

    def test_unknown_attr_rejected(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            self.make_table().pair_stats("city", "nope")


def test_detect_mask_with_explicit_exact_engines_matches_default():
    # detector_engine="exact" is the default: spelling it out must not
    # change a single cell (the hash-pinned seed masks stay valid).
    table = make_dataset("hospital", n_rows=120, seed=0).dirty
    base = ZeroED(seed=0).detect(table).mask.matrix
    explicit = (
        ZeroED(seed=0, detector_engine="exact", sampling_engine="exact")
        .detect(table)
        .mask.matrix
    )
    assert np.array_equal(base, explicit)


def test_scaler_then_collapse_consistency():
    # The fast detector collapses *before* scaling; scaling is affine
    # per-element, so equal rows stay equal and the scatter matches
    # scaling the full matrix.
    rng = np.random.default_rng(0)
    base = rng.normal(0, 1, (6, 4))
    x = base[rng.integers(0, 6, size=40)]
    from repro.ml.distance import collapse_duplicate_rows

    uniques, codes, _ = collapse_duplicate_rows(x)
    scaler = StandardScaler().fit(x)
    np.testing.assert_allclose(
        scaler.transform(uniques)[codes], scaler.transform(x), atol=1e-12
    )
