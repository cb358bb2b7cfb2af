"""Shared configuration for the benchmark drivers.

Every benchmark regenerates one of the paper's tables or figures.  By
default datasets are scaled down so the full suite completes in
minutes; set ``REPRO_FULL=1`` to run at the paper's full dataset sizes
(Table II).  Expectation checks are *shape-level* (who wins, rough
ordering), matching DESIGN.md §3.
"""

from __future__ import annotations

import os
import time

import numpy as np

FULL = os.environ.get("REPRO_FULL", "") == "1"

#: Rows per dataset for benchmark runs (None = the Table II size).
BENCH_ROWS: dict[str, int | None] = (
    {name: None for name in (
        "hospital", "flights", "beers", "rayyan", "billionaire", "movies",
    )}
    if FULL
    else {
        "hospital": 400,
        "flights": 600,
        "beers": 600,
        "rayyan": 400,
        "billionaire": 600,
        "movies": 800,
    }
)

#: Tax scalability sweep sizes (paper: 50k-200k).  The scaled default
#: reaches 16k — past the point where ZeroED's sub-linear token curve
#: crosses below FM_ED's linear one, so Fig. 8b's crossover is visible.
TAX_SIZES: list[int] = [50_000, 100_000, 150_000, 200_000] if FULL else [
    2_000, 8_000, 16_000,
]

#: Datasets used by the heavier sweeps (Figs. 9/10, Tables IV/V).
SWEEP_DATASETS: list[str] = (
    ["hospital", "flights", "beers", "rayyan", "billionaire", "movies"]
    if FULL
    else ["hospital", "flights", "beers"]
)

SEED = 0


def rows_for(dataset: str) -> int | None:
    return BENCH_ROWS.get(dataset)


def calibrate_gemm_s() -> float:
    """Seconds for a fixed float64 GEMM workload on this machine.

    Shaped like the pipeline's hot loops (tall-skinny times wide); the
    fastest of several repeats factors out one-off page faults.  The
    timing gates in ``test_perf_gates.py`` divide their measured wall
    time by this figure so they compare *calibration-units* — slower
    CI hardware rescales both sides instead of tripping the gate.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(0, 1, (2_000, 128))
    b = rng.normal(0, 1, (128, 500))
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(10):
            a @ b
        best = min(best, time.perf_counter() - t0)
    return best
