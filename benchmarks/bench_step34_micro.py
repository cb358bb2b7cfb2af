"""Micro-benchmark: Step-3 verification + Step-4 train/predict.

Times Algorithm 1's mutual-verification phase (`verify_attribute` over
every attribute), training-data assembly, and the detector stage
(`ErrorDetector.fit` / `.predict`) on 1k/10k-row Tax slices, and writes
the results to ``BENCH_training.json`` so the performance trajectory is
tracked PR-over-PR.

The pipeline is built once per slice up to the LLM-labeling output
(features warm, sampling on the fast engine so setup stays cheap); the
timed sections are exactly the Step-3/Step-4 stage bodies the pipeline
runs.  The headline number is ``combined_s`` = verification + detector
train + predict — the post-PR 2 hot path this PR vectorizes.

When the config exposes ``detector_engine`` (PR 3), the detector stage
is additionally timed with the opt-in float32 ``fast`` engine and
reported alongside the exact numbers.

``--smoke`` runs the 1k slice only and **fails** (exit 1) when the
exact path — or, separately, the batched Step-3 assembly stage
(PR 4) — regresses more than 2x against its recorded baseline,
hardware-normalised by the shared in-run GEMM calibration
(``_common.calibrate_gemm_s``) — the same CI-gate pattern as
``bench_sampling_micro.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_step34_micro.py
    PYTHONPATH=src python benchmarks/bench_step34_micro.py --smoke
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path

from _common import calibrate_gemm_s

from repro.config import ZeroEDConfig
from repro.core.correlation import correlated_attributes
from repro.core.criteria_step import generate_initial_criteria
from repro.core.detector import ErrorDetector
from repro.core.featurize import FeatureSpace
from repro.core.guidelines import build_guideline
from repro.core.labeling import label_representatives
from repro.core.sampling import sample_representatives
from repro.core.training_data import assemble_training_data, verify_attribute
from repro.data.registry import make_dataset
from repro.data.stats import compute_all_stats
from repro.llm.profiles import get_profile
from repro.llm.simulated.engine import SimulatedLLM
from repro.ml.rng import spawn

#: Per-rowcount seconds measured at PR 3 time on the seed (per-row)
#: Step-3/4 implementation (single-core container), for the
#: speedup-trajectory columns.
SEED_BASELINE_S = {
    "1000": {"verify_s": 0.30, "train_s": 10.37, "predict_s": 0.03,
             "combined_s": 10.70},
    "10000": {"verify_s": 2.55, "train_s": 50.16, "predict_s": 0.46,
              "combined_s": 53.17},
}

#: The vectorized (PR 3) exact path's 1k combined measurement divided
#: by ``calibrate_gemm_s()`` on the recording machine.  The smoke gate
#: compares *calibration-units*, so slower CI hardware rescales both
#: sides instead of tripping it.
EXACT_BASELINE_1K_UNITS = 179.0

#: The batched (PR 4) Step-3 assembly's 1k measurement in the same
#: calibration units (``assemble_s / calibrate_gemm_s()`` on the
#: recording machine); the smoke gate fails on >2x regression of the
#: assembly stage, same pattern as the combined gate above.
ASSEMBLY_BASELINE_1K_UNITS = 12.5

SIZES = (1_000, 10_000)
SMOKE_REGRESSION_FACTOR = 2.0


def build_state(n_rows: int, seed: int = 0) -> dict:
    """Run the pipeline up to LLM labeling (Steps 1-2), warm features."""
    config = ZeroEDConfig(seed=seed, sampling_engine="fast")
    table = make_dataset("tax", n_rows=n_rows, seed=seed).dirty
    llm = SimulatedLLM(profile=get_profile(config.llm_model), seed=seed)
    stats = compute_all_stats(table)
    correlated = correlated_attributes(table, config.n_correlated, seed=seed)
    criteria = generate_initial_criteria(llm, table, correlated, config)
    fs = FeatureSpace.from_table(table, stats, correlated, criteria, config)
    n_clusters = config.clusters_for(table.n_rows)
    sampling = {
        attr: sample_representatives(
            fs.unified_matrix(attr),
            n_clusters=n_clusters,
            method=config.clustering,
            seed=spawn(seed, f"sample/{attr}"),
            engine=config.sampling_engine,
        )
        for attr in table.attributes
    }
    guidelines = {}
    for attr in table.attributes:
        examples = [
            {attr: table.cell(i, attr),
             **{q: table.cell(i, q) for q in correlated[attr]}}
            for i in sampling[attr].sampled_indices[:15]
        ]
        guidelines[attr] = build_guideline(llm, table, attr, examples).text
    llm_labels = {}
    for attr in table.attributes:
        pair_stats = {
            q: _pair_stats(table, q, attr) for q in correlated[attr]
        }
        llm_labels[attr] = label_representatives(
            llm=llm, table=table, attr=attr,
            sampled_indices=sampling[attr].sampled_indices,
            guideline_text=guidelines[attr], stats=stats[attr],
            pair_stats=pair_stats, correlated=correlated[attr],
            config=config,
        )
    return {
        "config": config, "table": table, "llm": llm, "fs": fs,
        "sampling": sampling, "correlated": correlated,
        "llm_labels": llm_labels,
    }


def _pair_stats(table, q, attr):
    """Use the Table-level memo when available (PR 3), else recompute."""
    if hasattr(table, "pair_stats"):
        return table.pair_stats(q, attr)
    from repro.data.stats import PairStats

    return PairStats.compute(table, q, attr)


def bench_size(n_rows: int) -> dict:
    state = build_state(n_rows)
    config, table, fs = state["config"], state["table"], state["fs"]
    out: dict = {"n_rows": n_rows, "n_attributes": table.n_attributes}

    # --- Step 3: mutual verification (the timed hot path) --------------
    t0 = time.perf_counter()
    outcomes = {
        attr: verify_attribute(
            llm=state["llm"], table=table, attr=attr, feature_space=fs,
            sampling=state["sampling"][attr],
            llm_labels=state["llm_labels"][attr],
            correlated=state["correlated"][attr], config=config,
        )
        for attr in table.attributes
    }
    out["verify_s"] = round(time.perf_counter() - t0, 4)

    # --- Step 3: assembly (reported, not part of the gated figure) -----
    t0 = time.perf_counter()
    training = {
        attr: assemble_training_data(
            llm=state["llm"], table=table, attr=attr, feature_space=fs,
            outcome=outcomes[attr], correlated=state["correlated"][attr],
            config=config,
        )
        for attr in table.attributes
    }
    out["assemble_s"] = round(time.perf_counter() - t0, 4)
    out["n_training_rows"] = int(
        sum(len(t.labels) for t in training.values())
    )

    # --- Step 4: detector train + predict, per engine ------------------
    engines = ["exact"]
    if any(
        f.name == "detector_engine"
        for f in dataclasses.fields(ZeroEDConfig)
    ):
        engines.append("fast")
    for engine in engines:
        cfg = (
            config if engine == "exact"
            else dataclasses.replace(config, detector_engine=engine)
        )
        t0 = time.perf_counter()
        detector = ErrorDetector(cfg).fit(training, fs)
        train_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        detector.predict(table, fs)
        predict_s = time.perf_counter() - t0
        prefix = "" if engine == "exact" else f"{engine}_"
        out[f"{prefix}train_s"] = round(train_s, 4)
        out[f"{prefix}predict_s"] = round(predict_s, 4)
    out["combined_s"] = round(
        out["verify_s"] + out["train_s"] + out["predict_s"], 4
    )
    if "fast_train_s" in out:
        out["fast_combined_s"] = round(
            out["verify_s"] + out["fast_train_s"] + out["fast_predict_s"], 4
        )

    baseline = SEED_BASELINE_S.get(str(n_rows))
    if baseline:
        out["speedup_vs_seed"] = round(
            baseline["combined_s"] / out["combined_s"], 2
        )
        out["verify_speedup_vs_seed"] = round(
            baseline["verify_s"] / out["verify_s"], 2
        )
        if "fast_combined_s" in out:
            out["fast_speedup_vs_seed"] = round(
                baseline["combined_s"] / out["fast_combined_s"], 2
            )
    if n_rows == 1_000:
        calib = calibrate_gemm_s()
        out["gemm_calibration_s"] = round(calib, 4)
        out["combined_units"] = round(out["combined_s"] / calib, 2)
        out["combined_units_vs_baseline"] = round(
            out["combined_units"] / EXACT_BASELINE_1K_UNITS, 2
        )
        out["assemble_units"] = round(out["assemble_s"] / calib, 2)
        out["assemble_units_vs_baseline"] = round(
            out["assemble_units"] / ASSEMBLY_BASELINE_1K_UNITS, 2
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="1k rows only; exit 1 on >2x regression of the exact "
        "Step-3/4 path against the recorded baseline (CI gate)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_training.json",
    )
    args = parser.parse_args()

    sizes = SIZES[:1] if args.smoke else SIZES
    results = {
        "protocol": (
            "dirty Tax slices, pipeline built through LLM labeling "
            "(fast sampling engine), then timed: Step-3 mutual "
            "verification over all attributes, training-data assembly, "
            "and detector fit/predict; combined_s = verify + train + "
            "predict; speedups compare against the recorded per-row "
            "seed implementation"
        ),
        "seed_baseline_s": SEED_BASELINE_S,
        "sizes": {},
    }
    failed = False
    for n_rows in sizes:
        entry = bench_size(n_rows)
        results["sizes"][str(n_rows)] = entry
        line = (
            f"tax/{n_rows}: verify {entry['verify_s']}s, "
            f"train {entry['train_s']}s, predict {entry['predict_s']}s "
            f"(combined {entry['combined_s']}s"
        )
        if "speedup_vs_seed" in entry:
            line += f", {entry['speedup_vs_seed']}x vs seed"
        line += ")"
        if "fast_combined_s" in entry:
            line += (
                f"; fast engine: train {entry['fast_train_s']}s, "
                f"predict {entry['fast_predict_s']}s "
                f"(combined {entry['fast_combined_s']}s"
            )
            if "fast_speedup_vs_seed" in entry:
                line += f", {entry['fast_speedup_vs_seed']}x vs seed"
            line += ")"
        ratio = entry.get("combined_units_vs_baseline")
        if ratio is not None:
            line += f" [{ratio}x vs baseline, hardware-normalised]"
            if args.smoke and ratio > SMOKE_REGRESSION_FACTOR:
                line += "  REGRESSION"
                failed = True
        assemble_ratio = entry.get("assemble_units_vs_baseline")
        if assemble_ratio is not None:
            line += (
                f"; assembly {entry['assemble_s']}s "
                f"[{assemble_ratio}x vs baseline]"
            )
            if args.smoke and assemble_ratio > SMOKE_REGRESSION_FACTOR:
                line += "  ASSEMBLY REGRESSION"
                failed = True
        print(line)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failed:
        print(
            f"FAIL: exact Step-3/4 path or assembly stage slower than "
            f"{SMOKE_REGRESSION_FACTOR}x its recorded baseline"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
