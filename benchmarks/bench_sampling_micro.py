"""Micro-benchmark: Step-2 representative sampling, exact vs fast.

Times k-means representative sampling over every attribute's unified
feature matrix — the post-PR 1 hot spot — on 1k/5k/10k-row Tax slices
for both sampling engines, and writes the results to
``BENCH_sampling.json`` so the performance trajectory is tracked
PR-over-PR.

Per size the report records wall time per engine, the fast/exact
speedup, and the worst and mean per-attribute inertia ratio (fast
engine objective / exact objective, computed from the returned labels
so the comparison is engine-neutral) — the quality telemetry behind
the tolerance band in ``tests/test_sampling_engine.py``.

``--smoke`` runs the 1k slice only and **fails** (exit 1) when the
exact engine regresses more than 2x against the recorded baseline —
the CI guard that fast-engine work never taxes the default path.  The
comparison is hardware-normalised: both the recorded baseline and the
measured time are divided by an in-run float64 GEMM calibration, so
the gate trips on code regressions, not on landing on a slower
runner.

Usage::

    PYTHONPATH=src python benchmarks/bench_sampling_micro.py
    PYTHONPATH=src python benchmarks/bench_sampling_micro.py --smoke
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from _common import calibrate_gemm_s

from repro.config import ZeroEDConfig
from repro.core.correlation import correlated_attributes
from repro.core.criteria_step import generate_initial_criteria
from repro.core.featurize import FeatureSpace
from repro.core.sampling import sample_representatives
from repro.data.registry import make_dataset
from repro.data.stats import compute_all_stats
from repro.llm.profiles import get_profile
from repro.llm.simulated.engine import SimulatedLLM
from repro.ml.rng import spawn

#: Exact-engine sampling seconds measured at PR 2 time (single-core
#: container, all attributes), for the speedup-trajectory columns.
EXACT_BASELINE_S = {"1000": 0.52, "5000": 10.5, "10000": 51.5}

#: The same 1k measurement divided by ``calibrate_gemm_s()`` on the
#: recording machine.  The smoke gate compares *calibration-units*, so
#: slower CI hardware rescales both sides instead of tripping it.
EXACT_BASELINE_1K_UNITS = 12.5

SIZES = (1_000, 5_000, 10_000)
SMOKE_REGRESSION_FACTOR = 2.0


def label_inertia(x: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances to own-cluster means, from labels."""
    total = 0.0
    for cid in np.unique(labels):
        members = x[labels == cid]
        centroid = members.mean(axis=0)
        total += float(((members - centroid) ** 2).sum())
    return total


def build_matrices(n_rows: int) -> dict[str, np.ndarray]:
    config = ZeroEDConfig(seed=0)
    table = make_dataset("tax", n_rows=n_rows, seed=0).dirty
    llm = SimulatedLLM(profile=get_profile(config.llm_model), seed=0)
    stats = compute_all_stats(table)
    correlated = correlated_attributes(table, config.n_correlated, seed=0)
    criteria = generate_initial_criteria(llm, table, correlated, config)
    fs = FeatureSpace.from_table(table, stats, correlated, criteria, config)
    return {attr: fs.unified_matrix(attr) for attr in table.attributes}


def bench_size(n_rows: int, engines: tuple[str, ...]) -> dict:
    config = ZeroEDConfig(seed=0)
    matrices = build_matrices(n_rows)
    n_clusters = config.clusters_for(n_rows)
    out: dict = {"n_rows": n_rows, "n_attributes": len(matrices)}
    inertia: dict[str, dict[str, float]] = {e: {} for e in engines}
    for engine in engines:
        t0 = time.perf_counter()
        results = {
            attr: sample_representatives(
                m,
                n_clusters=n_clusters,
                method="kmeans",
                seed=spawn(0, f"sample/{attr}"),
                engine=engine,
            )
            for attr, m in matrices.items()
        }
        out[f"{engine}_s"] = round(time.perf_counter() - t0, 4)
        for attr, r in results.items():
            inertia[engine][attr] = label_inertia(
                matrices[attr], r.cluster_labels
            )
    if "exact" in engines and "fast" in engines:
        out["speedup_fast_vs_exact"] = round(
            out["exact_s"] / out["fast_s"], 2
        )
        ratios = [
            inertia["fast"][a] / inertia["exact"][a]
            for a in inertia["exact"]
            if inertia["exact"][a] > 1e-9
        ]
        out["inertia_ratio_worst"] = round(max(ratios), 4)
        out["inertia_ratio_mean"] = round(
            float(np.mean(ratios)), 4
        )
        out["inertia_ratio_total"] = round(
            sum(inertia["fast"].values())
            / max(sum(inertia["exact"].values()), 1e-12),
            4,
        )
    baseline = EXACT_BASELINE_S.get(str(n_rows))
    if baseline and "exact" in engines:
        out["exact_vs_baseline"] = round(out["exact_s"] / baseline, 2)
    if n_rows == 1_000 and "exact" in engines:
        calib = calibrate_gemm_s()
        out["gemm_calibration_s"] = round(calib, 4)
        out["exact_units"] = round(out["exact_s"] / calib, 2)
        out["exact_units_vs_baseline"] = round(
            out["exact_units"] / EXACT_BASELINE_1K_UNITS, 2
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="1k rows, exact engine only; exit 1 on >2x regression "
        "against the recorded exact-engine baseline (CI gate)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_sampling.json",
    )
    args = parser.parse_args()

    sizes = SIZES[:1] if args.smoke else SIZES
    engines = ("exact",) if args.smoke else ("exact", "fast")
    results = {
        "protocol": (
            "kmeans representative sampling over every attribute's "
            "unified feature matrix on dirty Tax slices, k = rows x "
            "label_rate (capped at 500); speedup = exact wall time / "
            "fast wall time; inertia ratios compare the two engines' "
            "clustering objectives per attribute, computed from labels"
        ),
        "exact_baseline_s": EXACT_BASELINE_S,
        "sizes": {},
    }
    failed = False
    for n_rows in sizes:
        entry = bench_size(n_rows, engines)
        results["sizes"][str(n_rows)] = entry
        line = f"tax/{n_rows}: exact {entry['exact_s']}s"
        if "fast_s" in entry:
            line += (
                f", fast {entry['fast_s']}s "
                f"({entry['speedup_fast_vs_exact']}x, worst inertia "
                f"ratio {entry['inertia_ratio_worst']})"
            )
        ratio = entry.get("exact_units_vs_baseline")
        if ratio is not None:
            line += f" [{ratio}x vs baseline, hardware-normalised]"
            if args.smoke and ratio > SMOKE_REGRESSION_FACTOR:
                line += "  REGRESSION"
                failed = True
        print(line)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failed:
        print(
            f"FAIL: exact engine slower than "
            f"{SMOKE_REGRESSION_FACTOR}x the recorded baseline"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
