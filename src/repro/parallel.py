"""Deterministic parallel execution of per-attribute stages.

The pipeline's three dominant stages — Step-2 sampling, Step-3
verification + training-data assembly, and Step-4 detector
train/predict — are *per-attribute independent*: every task is a pure
function of ``(table, config.seed, attr)`` whose randomness comes from
``ml.rng.spawn(seed, f"stage/{attr}")``, so no task reads another
task's output.  This module fans such stages across a thread pool and
collects results in attribute order.

Threads, not processes: the workers are NumPy/BLAS-bound (GEMMs release
the GIL) and share large read-only state — the table, its interned
column encodings, the feature space's cached base features — that
processes would have to pickle per worker.  Callers pre-warm any
*lazily built* shared caches serially before fanning out (the feature
spaces' ``warm()``), so workers only read them; the remaining shared
writes are idempotent memoizations of pure functions (same key, same
value), which cannot change results regardless of interleaving.

Determinism contract: for any ``n_jobs`` — including the default
``n_jobs=1``, which runs a plain serial loop, bit-for-bit the
historical code path — results are identical because per-attribute
seeds never depend on execution order and ``parallel_map`` returns
results in input order.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

from repro.errors import ConfigError
from repro.obs import trace as _trace

T = TypeVar("T")
R = TypeVar("R")


def effective_jobs(n_jobs: int, n_items: int | None = None) -> int:
    """Concrete worker count for a requested ``n_jobs``.

    ``-1`` means one worker per CPU core; any other value must be
    >= 1.  The result is clamped to ``n_items`` (no point spawning
    idle workers) and never below 1.
    """
    if n_jobs == -1:
        n_jobs = os.cpu_count() or 1
    elif n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    if n_items is not None:
        n_jobs = min(n_jobs, n_items)
    return max(1, n_jobs)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    n_jobs: int = 1,
) -> list[R]:
    """``[fn(item) for item in items]``, optionally across threads.

    Results come back in input order whatever the completion order
    (order-stable collection), and a worker exception propagates to the
    caller as it would from the serial loop.  With an effective job
    count of 1 this *is* the serial loop — no executor, no queueing —
    so the default path stays bit-for-bit the historical one.
    """
    items = list(items)
    jobs = effective_jobs(n_jobs, len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    # Pool threads start from a default contextvars context; carry the
    # caller's span context across so worker spans nest under it (a
    # no-op returning fn unchanged when tracing is off).
    fn = _trace.propagate(fn)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def parallel_map_stream(
    fn: Callable[[T], R],
    items: Iterable[T],
    n_jobs: int = 1,
    window: int | None = None,
) -> Iterator[R]:
    """Lazy ``parallel_map`` over an *iterator*, bounded in-flight work.

    The out-of-core primitive: ``items`` is consumed incrementally —
    never more than ``window`` items (default ``2 * jobs``) are pulled
    ahead of the slowest unconsumed result, so an arbitrarily long
    stream of chunks runs in fixed memory.  Results are yielded
    strictly in input order whatever the completion order, and a worker
    exception propagates at the yield point for its item.  With an
    effective job count of 1 this is the plain lazy generator — no
    executor, no read-ahead — bit-for-bit the serial loop.
    """
    jobs = effective_jobs(n_jobs)
    if jobs <= 1:
        for item in items:
            yield fn(item)
        return
    if window is None:
        window = 2 * jobs
    window = max(window, jobs)
    fn = _trace.propagate(fn)
    pending: deque = deque()
    pool = ThreadPoolExecutor(max_workers=jobs)
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            while len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # A consumer abandoning the generator, a worker error, or a
        # KeyboardInterrupt mid-wait must not leave queued chunks
        # running: cancel everything not yet started so teardown joins
        # at most the <= jobs shards already executing — the bounded
        # window is also the bound on shutdown latency.  (A plain
        # ``with`` block would wait for every queued future instead.)
        pool.shutdown(wait=True, cancel_futures=True)


def parallel_attr_map(
    fn: Callable[[str], R],
    attrs: Sequence[str],
    n_jobs: int = 1,
    span: str | None = None,
) -> dict[str, R]:
    """Per-attribute fan-out collected into an attr-keyed dict.

    Insertion order follows ``attrs`` (pipeline consumers iterate these
    dicts, and downstream RNG draws depend on that order), regardless
    of which worker finishes first.

    ``span`` names a per-attribute tracing span wrapping each call
    (attribute carried as the ``attr`` span attribute).  Only applied
    when a recording tracer is installed — the default no-op tracer
    leaves ``fn`` unwrapped, keeping the serial path bit-for-bit the
    historical loop.
    """
    if span is not None and _trace.get_tracer().enabled:
        inner = fn

        def fn(attr):
            with _trace.span(span, attr=attr):
                return inner(attr)

    return dict(zip(attrs, parallel_map(fn, attrs, n_jobs)))
