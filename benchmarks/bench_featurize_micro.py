"""Micro-benchmark: featurization + sampling on Tax slices.

Times the Step-1/Step-2 hot path — ``FeatureSpace`` construction plus
``unified_matrix`` for every attribute, and k-means representative
sampling — on 1k/5k/10k-row Tax slices, and writes the results to
``BENCH_featurize.json`` so the performance trajectory is tracked
PR-over-PR.

Each size is timed over several repeats.  The first repeat is reported
as ``cold`` (process-fresh memoization caches pay full price); the
fastest repeat is reported as ``best`` (steady state, the regime a
long-running service sees).  The ``seed_baseline`` block records the
same protocol measured on the pre-interning seed implementation, so
the file carries its own speedup denominator.

Usage::

    PYTHONPATH=src python benchmarks/bench_featurize_micro.py
    PYTHONPATH=src python benchmarks/bench_featurize_micro.py --smoke
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

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

#: Featurize seconds measured on the seed (pre-interning, per-row)
#: implementation with this same driver at PR 1 time, for the speedup
#: column.  cold = first repeat, best = fastest of 4.
SEED_BASELINE = {
    "1000": {"featurize_cold_s": 0.465, "featurize_best_s": 0.440},
    "5000": {"featurize_cold_s": 1.935, "featurize_best_s": 1.835},
    "10000": {"featurize_cold_s": 3.595, "featurize_best_s": 3.313},
}

SIZES = (1_000, 5_000, 10_000)


def bench_size(n_rows: int, repeats: int, sample: bool) -> dict:
    config = ZeroEDConfig(seed=0)
    table = make_dataset("tax", n_rows=n_rows, seed=0).dirty
    llm = SimulatedLLM(profile=get_profile(config.llm_model), seed=0)

    t0 = time.perf_counter()
    stats = compute_all_stats(table)
    stats_s = time.perf_counter() - t0
    correlated = correlated_attributes(table, config.n_correlated, seed=0)
    criteria = generate_initial_criteria(llm, table, correlated, config)

    featurize_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        feature_space = FeatureSpace.from_table(
            table, stats, correlated, criteria, config
        )
        for attr in table.attributes:
            feature_space.unified_matrix(attr)
        featurize_times.append(time.perf_counter() - t0)

    out = {
        "n_rows": n_rows,
        "n_attributes": table.n_attributes,
        "stats_s": round(stats_s, 4),
        "featurize_cold_s": round(featurize_times[0], 4),
        "featurize_best_s": round(min(featurize_times), 4),
        "featurize_repeats_s": [round(t, 4) for t in featurize_times],
    }
    baseline = SEED_BASELINE.get(str(n_rows))
    if baseline:
        out["speedup_vs_seed_cold"] = round(
            baseline["featurize_cold_s"] / out["featurize_cold_s"], 2
        )
        out["speedup_vs_seed_best"] = round(
            baseline["featurize_best_s"] / out["featurize_best_s"], 2
        )
    if sample:
        n_clusters = config.clusters_for(table.n_rows)
        t0 = time.perf_counter()
        for attr in table.attributes:
            sample_representatives(
                feature_space.unified_matrix(attr),
                n_clusters=n_clusters,
                method=config.clustering,
                seed=spawn(0, f"sample/{attr}"),
            )
        out["sampling_s"] = round(time.perf_counter() - t0, 4)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="1k rows only, no sampling stage (CI smoke run)",
    )
    parser.add_argument("--repeats", type=int, default=4)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_featurize.json",
    )
    args = parser.parse_args()

    sizes = SIZES[:1] if args.smoke else SIZES
    results = {
        "protocol": (
            "FeatureSpace construction + unified_matrix over all attributes "
            "on dirty Tax slices; cold = first repeat in a fresh process, "
            "best = fastest of N repeats (steady state); sampling = kmeans "
            "representative sampling over the unified matrices"
        ),
        "seed_baseline": SEED_BASELINE,
        "sizes": {},
    }
    for n_rows in sizes:
        entry = bench_size(n_rows, args.repeats, sample=not args.smoke)
        results["sizes"][str(n_rows)] = entry
        speedup = entry.get("speedup_vs_seed_best")
        print(
            f"tax/{n_rows}: featurize cold {entry['featurize_cold_s']}s, "
            f"best {entry['featurize_best_s']}s"
            + (f" ({speedup}x vs seed)" if speedup else "")
            + (f", sampling {entry['sampling_s']}s" if "sampling_s" in entry else "")
        )
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
