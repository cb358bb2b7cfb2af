"""Dataset specification type and generator helpers.

A :class:`DatasetSpec` bundles everything an experiment needs for one
benchmark dataset: a clean-table generator, the Table II error profile,
injector hints (numeric attributes, functional dependencies), the
NADEEF rule pack and the KATARA knowledge base.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.data.injector import (
    ErrorInjector,
    ErrorProfile,
    FunctionalDependency,
    InjectionResult,
)
from repro.data.kb import KnowledgeBase
from repro.data.rules import Rule
from repro.data.table import Table
from repro.ml.rng import RngLike, spawn


@dataclass
class DatasetSpec:
    """Everything needed to materialise one benchmark dataset."""

    name: str
    default_rows: int
    generate_clean: Callable[[int, np.random.Generator], Table]
    profile: ErrorProfile
    numeric_attributes: list[str] = field(default_factory=list)
    dependencies: list[FunctionalDependency] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    kb: KnowledgeBase = field(default_factory=KnowledgeBase)

    def make(
        self,
        n_rows: int | None = None,
        seed: RngLike = 0,
        profile: ErrorProfile | None = None,
    ) -> InjectionResult:
        """Generate a clean table and inject errors per the profile."""
        rows = n_rows if n_rows is not None else self.default_rows
        gen_rng = spawn(seed, f"{self.name}/clean")
        clean = self.generate_clean(rows, gen_rng)
        injector = ErrorInjector(
            profile or self.profile,
            numeric_attributes=self.numeric_attributes,
            dependencies=self.dependencies,
            seed=spawn(seed, f"{self.name}/inject"),
        )
        return injector.inject(clean)


def scaled_profile(
    total: float,
    missing: float,
    pattern: float,
    typo: float,
    outlier: float,
    rule: float,
) -> ErrorProfile:
    """Scale Table II's per-type masses so their sum equals ``total``.

    The paper's per-type percentages overlap (a cell can be counted
    under several types), so their sum exceeds the overall error rate.
    For injection we keep the *mix* and normalise the *mass* to the
    reported overall rate; all rates are fractions of cells.
    """
    masses = np.array([missing, pattern, typo, outlier, rule], dtype=float)
    mass_sum = float(masses.sum())
    if mass_sum <= 0:
        return ErrorProfile()
    scaled = masses / mass_sum * total
    return ErrorProfile(
        missing=float(scaled[0]),
        pattern=float(scaled[1]),
        typo=float(scaled[2]),
        outlier=float(scaled[3]),
        rule=float(scaled[4]),
    )


def pick(rng: np.random.Generator, pool: Sequence[str]) -> str:
    """Uniformly pick one value from a pool."""
    return pool[int(rng.integers(len(pool)))]


def pick_weighted(
    rng: np.random.Generator, pool: Sequence[str], zipf_a: float = 1.3
) -> str:
    """Zipf-weighted pick — real categorical columns are head-heavy."""
    ranks = np.arange(1, len(pool) + 1, dtype=float)
    weights = ranks**-zipf_a
    weights /= weights.sum()
    return pool[int(rng.choice(len(pool), p=weights))]


def phone(rng: np.random.Generator) -> str:
    area = int(rng.integers(200, 990))
    mid = int(rng.integers(200, 990))
    tail = int(rng.integers(0, 10_000))
    return f"{area}-{mid}-{tail:04d}"


def zipcode(rng: np.random.Generator, prefix: str = "") -> str:
    remaining = 5 - len(prefix)
    digits = "".join(str(int(rng.integers(10))) for _ in range(remaining))
    return prefix + digits


def time_hhmm(rng: np.random.Generator) -> str:
    """A 12-hour clock time like '7:45 a.m.' (Flights format)."""
    hour = int(rng.integers(1, 13))
    minute = int(rng.integers(0, 60))
    suffix = "a.m." if rng.random() < 0.5 else "p.m."
    return f"{hour}:{minute:02d} {suffix}"


def date_ymd(rng: np.random.Generator, year_lo: int, year_hi: int) -> str:
    year = int(rng.integers(year_lo, year_hi + 1))
    month = int(rng.integers(1, 13))
    day = int(rng.integers(1, 29))
    return f"{year}-{month:02d}-{day:02d}"
