"""Timing gates for the paths the repository benchmark does not reach.

``perfbench/run.py`` fits at or above the ``AUTO_ENGINE_MIN_ROWS``
crossover, so both of its workloads run the fast engines, while
``ZeroEDConfig()`` defaults to the exact ones.  These gates time the
exact paths on small slices, plus the recording tracer's overhead:

* exact representative sampling over a 1k-row Tax slice;
* exact Step-3 verification + Step-4 train/predict, and Step-3
  training-data assembly, on a 1k-row Tax slice;
* warm exact scoring of Hospital/400 through a loaded artifact;
* recording vs no-op tracer while scoring 5k Tax rows.

Each measurement is divided by ``_common.calibrate_gemm_s()`` (a fixed
float64 GEMM timed in the same run) and compared against a baseline
recorded in those units on another machine; a gate fails above
``REGRESSION_FACTOR`` times its baseline.  The calibration absorbs a
uniformly slower machine, not a noisy one: on a shared host these
gates can still flip with the host's speed.  Each gate measures in a
fresh interpreter, so no gate times its code against the heap and
caches an earlier gate left behind.  Correctness checks live in
tier-1 (``tests/``); this module is not on its ``testpaths``.

Run (prints each measurement with ``-s``)::

    python -m pytest -q benchmarks/test_perf_gates.py
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from _common import calibrate_gemm_s

from repro.config import ZeroEDConfig
from repro.core.correlation import correlated_attributes
from repro.core.criteria_step import generate_initial_criteria
from repro.core.detector import ErrorDetector
from repro.core.featurize import FeatureSpace
from repro.core.guidelines import build_guideline
from repro.core.labeling import label_representatives
from repro.core.pipeline import ZeroED
from repro.core.sampling import sample_representatives
from repro.core.training_data import assemble_training_data, verify_attribute
from repro.data.registry import make_dataset
from repro.data.stats import compute_all_stats
from repro.llm.profiles import get_profile
from repro.llm.simulated.engine import SimulatedLLM
from repro.ml.rng import spawn
from repro.obs import trace
from repro.serving.scorer import BatchScorer

#: A gate fails when its calibrated time exceeds this multiple of its
#: recorded baseline.
REGRESSION_FACTOR = 2.0

#: Exact-engine sampling over the 1k Tax slice (all attributes), in
#: calibration units on the recording machine (0.52 s at PR 2).
SAMPLING_BASELINE_1K_UNITS = 12.5

#: Exact Step-3 verification + detector train + predict on the 1k Tax
#: slice, in calibration units (the vectorized PR 3 path).
STEP34_BASELINE_1K_UNITS = 179.0

#: Batched Step-3 training-data assembly on the 1k Tax slice, in
#: calibration units (PR 4).
ASSEMBLY_BASELINE_1K_UNITS = 12.5

#: Warm scoring of Hospital/400 (best of 3), in calibration units.
SCORE_BASELINE_HOSPITAL_400_UNITS = 0.8

#: Tracing overhead: the recording tracer may exceed the no-op one by
#: at most this factor, unless the absolute gap is below this many
#: calibration units (sub-noise differences never trip the gate).
MAX_TRACE_OVERHEAD_RATIO = 1.05
TRACE_ABS_SLACK_UNITS = 0.1


def _vs_baseline(seconds: float, calib: float, baseline_units: float) -> float:
    """``seconds`` in calibration units, relative to the baseline."""
    return round(round(seconds / calib, 2) / baseline_units, 2)


def _in_fresh_process(measure):
    """Run ``measure()`` in a new spawned interpreter; return its result."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(measure).result()


def _tax_up_to_features(n_rows: int, config: ZeroEDConfig):
    """Steps 1-2 inputs on a dirty Tax slice: table, LLM, feature space."""
    table = make_dataset("tax", n_rows=n_rows, seed=0).dirty
    llm = SimulatedLLM(profile=get_profile(config.llm_model), seed=0)
    stats = compute_all_stats(table)
    correlated = correlated_attributes(table, config.n_correlated, seed=0)
    criteria = generate_initial_criteria(llm, table, correlated, config)
    fs = FeatureSpace.from_table(table, stats, correlated, criteria, config)
    return table, llm, stats, correlated, fs


def _time_exact_sampling_1k() -> dict:
    config = ZeroEDConfig(seed=0)
    table, _, _, _, fs = _tax_up_to_features(1_000, config)
    matrices = {attr: fs.unified_matrix(attr) for attr in table.attributes}
    n_clusters = config.clusters_for(table.n_rows)

    t0 = time.perf_counter()
    for attr, matrix in matrices.items():
        sample_representatives(
            matrix,
            n_clusters=n_clusters,
            method="kmeans",
            seed=spawn(0, f"sample/{attr}"),
            engine="exact",
        )
    exact_s = time.perf_counter() - t0
    ratio = _vs_baseline(
        exact_s, calibrate_gemm_s(), SAMPLING_BASELINE_1K_UNITS
    )
    return {"exact_s": exact_s, "ratio": ratio}


def test_exact_sampling_1k():
    m = _in_fresh_process(_time_exact_sampling_1k)
    ratio = m["ratio"]
    print(f"exact sampling tax/1000: {m['exact_s']:.3f}s, {ratio}x baseline")
    assert ratio <= REGRESSION_FACTOR, (
        f"exact sampling {ratio}x its baseline (hardware-normalised)"
    )


def _time_exact_step34_and_assembly_1k() -> dict:
    # Steps 1-2 through LLM labeling; sampling on the fast engine keeps
    # the untimed setup cheap, the detector stays on the exact default.
    config = ZeroEDConfig(seed=0, sampling_engine="fast")
    table, llm, stats, correlated, fs = _tax_up_to_features(1_000, config)
    n_clusters = config.clusters_for(table.n_rows)
    sampling = {
        attr: sample_representatives(
            fs.unified_matrix(attr),
            n_clusters=n_clusters,
            method=config.clustering,
            seed=spawn(0, f"sample/{attr}"),
            engine=config.sampling_engine,
        )
        for attr in table.attributes
    }
    llm_labels = {}
    for attr in table.attributes:
        examples = [
            {attr: table.cell(i, attr),
             **{q: table.cell(i, q) for q in correlated[attr]}}
            for i in sampling[attr].sampled_indices[:15]
        ]
        guideline = build_guideline(llm, table, attr, examples).text
        llm_labels[attr] = label_representatives(
            llm=llm, table=table, attr=attr,
            sampled_indices=sampling[attr].sampled_indices,
            guideline_text=guideline, stats=stats[attr],
            pair_stats={q: table.pair_stats(q, attr) for q in correlated[attr]},
            correlated=correlated[attr], config=config,
        )

    t0 = time.perf_counter()
    outcomes = {
        attr: verify_attribute(
            llm=llm, table=table, attr=attr, feature_space=fs,
            sampling=sampling[attr], llm_labels=llm_labels[attr],
            correlated=correlated[attr], config=config,
        )
        for attr in table.attributes
    }
    verify_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    training = {
        attr: assemble_training_data(
            llm=llm, table=table, attr=attr, feature_space=fs,
            outcome=outcomes[attr], correlated=correlated[attr],
            config=config,
        )
        for attr in table.attributes
    }
    assemble_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    detector = ErrorDetector(config).fit(training, fs)
    train_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    detector.predict(table, fs)
    predict_s = time.perf_counter() - t0
    calib = calibrate_gemm_s()
    return {
        "engine": detector.engine,
        "verify_s": verify_s,
        "train_s": train_s,
        "predict_s": predict_s,
        "assemble_s": assemble_s,
        "combined": _vs_baseline(
            verify_s + train_s + predict_s, calib, STEP34_BASELINE_1K_UNITS
        ),
        "assembly": _vs_baseline(
            assemble_s, calib, ASSEMBLY_BASELINE_1K_UNITS
        ),
    }


def test_exact_step34_and_assembly_1k():
    m = _in_fresh_process(_time_exact_step34_and_assembly_1k)
    assert m["engine"] == "exact"
    combined, assembly = m["combined"], m["assembly"]
    print(
        f"exact step-3/4 tax/1000: verify {m['verify_s']:.3f}s + train "
        f"{m['train_s']:.3f}s + predict {m['predict_s']:.3f}s, {combined}x "
        f"baseline; assembly {m['assemble_s']:.3f}s, {assembly}x baseline"
    )
    assert combined <= REGRESSION_FACTOR and assembly <= REGRESSION_FACTOR, (
        f"exact step-3/4 {combined}x, assembly {assembly}x their "
        "baselines (hardware-normalised)"
    )


def _fresh_copy(table):
    """A content-equal table with cold encodings/pair-stat caches."""
    copy = table.copy()
    copy.name = table.name
    return copy


def _time_warm_exact_scoring_hospital_400() -> dict:
    table = make_dataset("hospital", n_rows=400, seed=0).dirty
    config = ZeroEDConfig(
        seed=0, sampling_engine="auto", detector_engine="auto"
    )
    fitted = ZeroED(config).fit(table)
    with tempfile.TemporaryDirectory() as tmp:
        scorer = BatchScorer.from_artifact(fitted.save(Path(tmp) / "art"))
    scorer.score_table(_fresh_copy(table))  # warm criteria/embedding caches
    best = np.inf
    for _ in range(3):
        fresh = _fresh_copy(table)
        t0 = time.perf_counter()
        scorer.score_table(fresh)
        best = min(best, time.perf_counter() - t0)
    ratio = _vs_baseline(
        best, calibrate_gemm_s(), SCORE_BASELINE_HOSPITAL_400_UNITS
    )
    return {"engine": scorer.detector.engine, "best_s": best, "ratio": ratio}


def test_warm_exact_scoring_hospital_400():
    m = _in_fresh_process(_time_warm_exact_scoring_hospital_400)
    assert m["engine"] == "exact"
    ratio = m["ratio"]
    print(
        f"warm exact scoring hospital/400: {m['best_s']:.4f}s, "
        f"{ratio}x baseline"
    )
    assert ratio <= REGRESSION_FACTOR, (
        f"warm scoring {ratio}x its baseline (hardware-normalised)"
    )


def _time_tracing_overhead() -> dict:
    """Best-of-3 scoring wall time, no-op vs recording tracer.

    The modes alternate (noop, enabled, noop, ...) so a host warming up
    or throttling mid-run penalises both sides alike.  A relative-only
    gate flakes on noise when the workload is fast; an absolute-only
    gate goes blind on slow hardware; so the gate needs both.
    """
    config = ZeroEDConfig(
        seed=0, sampling_engine="auto", detector_engine="auto"
    )
    scorer = ZeroED(config).fit(
        make_dataset("tax", n_rows=2_000, seed=0).dirty
    ).scorer()
    table = make_dataset("tax", n_rows=5_000, seed=1).dirty
    scorer.score_table(table)  # warm caches once, outside timing

    times = {"noop": [], "enabled": []}
    masks = set()
    for _ in range(3):
        for mode in ("noop", "enabled"):
            if mode == "enabled":
                trace.set_tracer(trace.Tracer())
            try:
                t0 = time.perf_counter()
                result = scorer.score_table(table)
                times[mode].append(time.perf_counter() - t0)
            finally:
                trace.set_tracer(None)
            masks.add(result.mask.matrix.tobytes())
    best_noop = min(times["noop"])
    best_enabled = min(times["enabled"])
    return {
        "n_masks": len(masks),
        "noop_s": best_noop,
        "enabled_s": best_enabled,
        "ratio": best_enabled / best_noop,
        "gap_units": (best_enabled - best_noop) / calibrate_gemm_s(),
    }


def test_tracing_overhead():
    m = _in_fresh_process(_time_tracing_overhead)
    assert m["n_masks"] == 1, "tracer modes scored different masks"
    ratio, gap_units = m["ratio"], m["gap_units"]
    print(
        f"tracing overhead tax/5000: noop {m['noop_s']:.4f}s, enabled "
        f"{m['enabled_s']:.4f}s ({ratio:.3f}x, gap {gap_units:.3f} units)"
    )
    assert not (
        ratio > MAX_TRACE_OVERHEAD_RATIO and gap_units > TRACE_ABS_SLACK_UNITS
    ), (
        f"enabled tracer is {ratio:.3f}x the no-op scoring time (gap "
        f"{gap_units:.3f} calibration units; gate "
        f"{MAX_TRACE_OVERHEAD_RATIO}x / {TRACE_ABS_SLACK_UNITS} units)"
    )
