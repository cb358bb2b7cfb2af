"""Child processes of the benchmark.

``stream``: the timed part of ``fit-stream-tax`` in a process of its own,
so that its peak RSS is the scorer's.  Loads the artifact once plus
``--setups`` times (set-up time; half the timed loads before the
stream, half after), streams the CSV through ``BatchScorer.score_csv``,
re-scores the last shard in memory, and writes what it measured to
``<out-dir>/stream.json`` and the mask to ``<out-dir>/stream_mask.npy``.

``serve``: the traced launcher for ``serve-tax`` — installs the probes
and a recording tracer, then runs ``repro.cli.main(["serve", ...])``
unchanged and exports the spans when the server stops (SIGTERM).

Either mode with ``--trace-out`` writes Chrome trace-event JSON with
the tracer's ``perf_counter`` epoch under ``otherData.epoch_s``, so
the parent can put it on its own clock.

Run from the repository root with ``PYTHONPATH=src``::

    python3 perfbench/child.py stream --artifact A --csv C --out-dir D
    python3 perfbench/child.py serve --trace-out T.json -- --artifact A
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np


def start_tracing():
    """Install a recording tracer plus the probes; return the tracer
    and its epoch on this process's ``perf_counter`` clock."""
    import probes
    from repro.obs import trace

    tracer = trace.Tracer()
    epoch = time.perf_counter()
    trace.set_tracer(tracer)
    probes.install()
    return tracer, epoch


def export(tracer, epoch: float, path) -> None:
    doc = tracer.chrome_trace()
    doc["otherData"]["epoch_s"] = epoch
    Path(path).write_text(json.dumps(doc) + "\n")


def read_rows(path: Path, start: int, count: int | None):
    """Data rows ``start .. start+count`` of a CSV (header excluded)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for i, row in enumerate(reader):
            if i < start:
                continue
            if count is not None and len(rows) == count:
                break
            rows.append(row)
    return header, rows


def stream(args) -> int:
    from repro.data.table import Table
    from repro.llm.client import LLMClient
    from repro.serving.scorer import BatchScorer

    # Scoring must never reach an LLM: count every completion.
    llm_calls = [0]
    complete = LLMClient.complete

    def counted(self, request):
        llm_calls[0] += 1
        return complete(self, request)

    LLMClient.complete = counted
    tracer = epoch = None
    if args.trace_out:
        tracer, epoch = start_tracing()

    start = time.perf_counter()
    setups, loaded = [], []

    def setup():
        loaded.clear()
        t0 = time.perf_counter()
        loaded.append(BatchScorer.from_artifact(args.artifact, n_jobs=1))
        return time.perf_counter() - t0

    # The first load of a process also runs lazy imports: untimed.
    setup()
    scorer = loaded.pop()
    # Half the timed loads before the stream, half after: spread over
    # the run, they meet the host's fast stretches.
    for _ in range(args.setups // 2):
        setups.append(setup())
    loaded.clear()

    t0 = time.perf_counter()
    result = scorer.score_csv(args.csv, chunk_rows=args.chunk_rows, n_jobs=1)
    stream = (t0, time.perf_counter())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Collect the streamed shards' garbage first, or a collection of
    # it lands in whichever set-up happens to trigger it.
    gc.collect()
    for _ in range(args.setups - args.setups // 2):
        setups.append(setup())
    loaded.clear()

    manifest = result.manifest()
    last = manifest["shards"][-1]
    header, rows = read_rows(args.csv, last["row_offset"], None)
    again = scorer.score_table(Table.from_rows(header, rows, name="shard"))
    again_sha = hashlib.sha256(again.mask.matrix.tobytes()).hexdigest()
    wall = time.perf_counter() - start

    out = Path(args.out_dir)
    np.save(out / "stream_mask.npy", result.mask.matrix)
    (out / "stream.json").write_text(json.dumps({
        "setups": setups,
        "stream": stream,
        "rows": result.total_rows,
        "peak_rss_mb": peak_mb,
        "shards": manifest["shards"],
        "last_shard_rescored_sha256": again_sha,
        "llm_calls": llm_calls[0],
        "window": [start, start + wall],
    }))
    if tracer is not None:
        export(tracer, epoch, args.trace_out)
    return 0


def serve(args) -> int:
    from repro import cli

    tracer, epoch = start_tracing()
    try:
        return cli.main(["serve", *args.serve_args])
    finally:
        export(tracer, epoch, args.trace_out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("stream")
    p.add_argument("--artifact", required=True)
    p.add_argument("--csv", required=True, type=Path)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--chunk-rows", type=int, default=None)
    p.add_argument("--setups", type=int, default=3)
    p.add_argument("--trace-out", default=None)
    p = sub.add_parser("serve")
    p.add_argument("--trace-out", required=True)
    p.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "serve" and args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    return stream(args) if args.mode == "stream" else serve(args)


if __name__ == "__main__":
    sys.exit(main())
