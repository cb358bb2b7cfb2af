"""Multi-seed experiment aggregation.

The paper reports every number as "the average of three repeated
experiments" (§IV-A) and backs Table III/IV claims with paired t-tests.
This module runs a method across seeds and aggregates mean/std, plus a
paired t-test helper built on scipy for method-vs-method comparisons.
``scipy.stats`` is imported on first use, in :func:`paired_t_test`, so
importing the CLI (which imports this package) loads no SciPy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.harness import MethodRun, run_method


@dataclass(frozen=True)
class AggregateRun:
    """Mean/std of P/R/F1 over repeated seeded runs."""

    method: str
    dataset: str
    n_runs: int
    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float
    f1_mean: float
    f1_std: float
    f1_values: tuple[float, ...]

    def as_row(self) -> dict:
        return {
            "method": self.method,
            "dataset": self.dataset,
            "runs": self.n_runs,
            "precision": f"{self.precision_mean:.3f}±{self.precision_std:.3f}",
            "recall": f"{self.recall_mean:.3f}±{self.recall_std:.3f}",
            "f1": f"{self.f1_mean:.3f}±{self.f1_std:.3f}",
        }


def run_repeated(
    method: str,
    dataset: str,
    seeds: tuple[int, ...] = (0, 1, 2),
    **kwargs,
) -> AggregateRun:
    """Run ``method`` on ``dataset`` once per seed and aggregate.

    Each seed re-generates the dataset (fresh clean data and fresh
    corruption) and re-seeds every stochastic pipeline component — the
    paper's repeated-experiments protocol.
    """
    runs: list[MethodRun] = [
        run_method(method, dataset, seed=seed, **kwargs) for seed in seeds
    ]
    precision = np.array([r.prf.precision for r in runs])
    recall = np.array([r.prf.recall for r in runs])
    f1 = np.array([r.prf.f1 for r in runs])
    return AggregateRun(
        method=method,
        dataset=dataset,
        n_runs=len(runs),
        precision_mean=float(precision.mean()),
        precision_std=float(precision.std()),
        recall_mean=float(recall.mean()),
        recall_std=float(recall.std()),
        f1_mean=float(f1.mean()),
        f1_std=float(f1.std()),
        f1_values=tuple(float(v) for v in f1),
    )


def paired_t_test(
    a: AggregateRun, b: AggregateRun
) -> tuple[float, float]:
    """Paired t-test on per-seed F1 values; returns (statistic, p).

    Pairs by seed (both aggregates must use the same seed list), the
    protocol behind the paper's "statistically significant with
    p < 0.05" claims.
    """
    if len(a.f1_values) != len(b.f1_values):
        raise ValueError("aggregates must have the same number of runs")
    from scipy import stats as scipy_stats

    statistic, p_value = scipy_stats.ttest_rel(a.f1_values, b.f1_values)
    return float(statistic), float(p_value)
