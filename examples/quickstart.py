"""Quickstart: detect errors in a benchmark dataset with ZeroED.

Generates the Hospital benchmark (dirty table + ground truth), runs the
ZeroED pipeline, and prints precision/recall/F1, per-stage timing and
LLM token usage — then demonstrates the train-once / score-many
serving workflow: persist the fitted detector as an on-disk artifact
and warm-score fresh rows with zero LLM calls.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import BatchScorer, ErrorMask, ZeroED, make_dataset, score_masks


def main() -> None:
    # 1. A dirty dataset with ground truth (Table II's Hospital shape).
    data = make_dataset("hospital", n_rows=500, seed=0)
    print(f"dataset: {data.dirty.name}, shape={data.dirty.shape}, "
          f"true error rate={data.mask.error_rate():.3f}")

    # 2. Zero-shot detection: no labels, no rules, no knowledge base.
    #    Engines set to "auto" pick per table: the byte-reproducible
    #    exact paths below ~2k rows (as here), the ≥5x-faster
    #    approximate engines above.  For big tables also raise n_jobs
    #    (or pass --jobs on the CLI) to fan the per-attribute stages
    #    across worker threads — masks are byte-identical for every
    #    jobs count, e.g.:
    #        ZeroED(seed=0, sampling_engine="auto",
    #               detector_engine="auto", n_jobs=-1)
    #    detect() is fit-then-score; keeping the FittedZeroED around
    #    lets step 5 reuse the expensive fit instead of re-running it.
    zeroed = ZeroED(seed=0, sampling_engine="auto", detector_engine="auto")
    fitted = zeroed.fit(data.dirty)
    result = fitted.score(data.dirty)

    # 3. Score against ground truth.
    prf = score_masks(result.mask, data.mask)
    print(f"\nZeroED [{zeroed.llm.model_name}]: {prf}")

    print("\nPer-stage timing (seconds):")
    for stage in result.stages:
        print(f"  {stage.name:16s} {stage.seconds:7.2f}  "
              f"(tokens in/out: {stage.input_tokens}/{stage.output_tokens})")

    print(f"\nLLM requests: {result.n_llm_requests}, "
          f"tokens: {result.input_tokens} in / {result.output_tokens} out")

    # 4. Inspect a few detected error cells.
    print("\nSample detections (row, attribute, value):")
    for i, attr in result.mask.error_cells()[:8]:
        print(f"  ({i:4d}, {attr:16s}) -> {data.dirty.cell(i, attr)!r}")

    # 5. Train once, score many (the serving subsystem).  `fit` runs
    #    the expensive LLM-guided phase; the fitted detector persists
    #    as a versioned artifact (manifest.json + arrays.npz) and
    #    reloads in any process — scoring rows the fit never saw (the
    #    incremental-data scenario: today's rows against yesterday's
    #    detector) then costs one featurization pass plus one MLP
    #    sweep, no LLM, no sampling.
    #    (CLI: repro fit ... --artifact-out art/ ;
    #          repro score-csv new.csv --artifact art/ ;
    #          repro serve --artifact art/  for the HTTP service.)
    late = make_dataset("hospital", n_rows=620, seed=0)
    fresh = late.dirty.select_rows(range(500, 620))  # rows fit never saw
    fresh_mask = ErrorMask(
        fresh.attributes, late.mask.matrix[500:620].copy()
    )
    with tempfile.TemporaryDirectory() as tmp:
        artifact = fitted.save(Path(tmp) / "detector")
        scorer = BatchScorer.from_artifact(artifact)
        scored = scorer.score_table(fresh)
    print(f"\nWarm-scored {fresh.n_rows} unseen rows in "
          f"{scored.total_seconds:.3f}s with zero LLM calls: "
          f"{score_masks(scored.mask, fresh_mask)}")

    # 6. Fault tolerance against a real LLM API.  fit() wraps the
    #    client in ResilientLLM automatically (retry/backoff, circuit
    #    breaker, per-attribute degradation — see config knobs
    #    llm_max_retries / llm_timeout_s / llm_breaker_threshold /
    #    checkpoint_dir), but you can compose the wrapper yourself to
    #    tune the policy or reuse it outside the pipeline:
    #
    #        from repro.llm import HTTPChatLLM, ResilientLLM, RetryPolicy
    #        client = ResilientLLM(
    #            HTTPChatLLM("http://localhost:8000/v1", "qwen2.5-7b"),
    #            RetryPolicy(max_retries=3, timeout_s=60.0),
    #        )
    #        fitted = ZeroED(seed=0, llm=client).fit(data.dirty)
    #        print(client.stats.summary())   # retries, failed calls,
    #                                        # breaker opens, by kind
    #
    #    Attributes whose LLM stages exhausted all retries fall back
    #    to pattern/frequency-only detection and are listed in
    #    fitted.details["degraded_attrs"].

    # 7. Out-of-core: million-row tables with bounded memory.  For a
    #    table too big to fit (or even to load), fit on a seeded
    #    reservoir sample and stream-score the full file shard-by-
    #    shard — the chunked mask is byte-identical to the in-memory
    #    one for every chunk size and worker count:
    #
    #        repro fit --csv big.csv --sample-rows 5000 \
    #              --artifact-out art/      # one streaming pass samples
    #                                       # the fit rows; provenance
    #                                       # lands in the manifest
    #        repro score-csv big.csv --artifact art/ \
    #              --chunk-rows 50000 --jobs 4 \
    #              --manifest-out scores.json   # per-shard checksums
    #
    #    or in code: ZeroED(sample_rows=5000).fit(table), then
    #    scorer.score_csv(path, chunk_rows=50_000, n_jobs=4).
    #    See BENCH_streaming.json for recorded rows/s and peak-memory
    #    figures at 100k / 1M rows.

    # 8. Resilient serving (resumable jobs + a hardened service).  A
    #    multi-hour streaming job should survive a crash: pass a
    #    journal directory and every scored shard is checksummed to
    #    disk (journal.jsonl + masks.bin) the moment it completes.
    #    After a kill, --resume verifies the journaled prefix and
    #    continues from the first unscored shard — the final mask is
    #    byte-identical to an uninterrupted run, with zero re-scoring:
    #
    #        repro score-csv big.csv --artifact art/ \
    #              --chunk-rows 50000 --journal-dir job/
    #        # ...crash, power loss, OOM kill...
    #        repro score-csv big.csv --artifact art/ \
    #              --chunk-rows 50000 --journal-dir job/ --resume
    #
    #    The journal is fingerprinted (artifact checksum, source file,
    #    chunking, bad-row policy); resuming against anything that
    #    changed starts over instead of splicing incompatible shards.
    #    Malformed CSV rows abort the run by default; with
    #    --bad-rows quarantine they land in a JSONL sidecar
    #    (big.csv.quarantine.jsonl) with their line numbers and raw
    #    cells, and the remaining rows score normally.
    #
    #    The HTTP service (repro serve) is hardened for production:
    #    bounded admission queue that sheds overload with 503 +
    #    Retry-After (--max-queue-rows), per-request deadlines that
    #    504 instead of piling up (--deadline, or "deadline_s" in the
    #    payload), GET /readyz for load balancers (503 while
    #    draining) vs GET /healthz for liveness + shed/expired/reload
    #    counters, POST /reload to hot-swap a re-fitted artifact with
    #    no dropped requests, and SIGTERM triggering a graceful
    #    drain-then-stop (--drain-timeout).

    # 9. Scale-out serving: worker processes + a multi-tenant
    #    registry.  One process tops out at one core; --workers N
    #    fans micro-batches to N spawn-started scoring processes that
    #    each hold the frozen scorer, while the front keeps the PR 8
    #    admission/shed/deadline contract.  Masks are byte-identical
    #    to single-process scoring at every worker count:
    #
    #        repro serve --artifact art/ --workers 4
    #
    #    Every service is an artifact registry, and one --artifact
    #    is a registry of one.  Repeat --artifact to host MANY fitted
    #    datasets: requests route by schema fingerprint (or an
    #    explicit "dataset" field), and the first artifact is the
    #    pinned default tenant that answers unrouted requests:
    #
    #        repro serve --artifact tax_art/ --artifact beers_art/ \
    #              --registry-budget-mb 256 --workers 2
    #
    #        curl -s localhost:8537/score -d \
    #          '{"rows": [...], "dataset": "beers"}'
    #        curl -s localhost:8537/healthz   # registry residency,
    #                                         # hit/miss/eviction counts
    #
    #    The memory budget makes the registry an LRU: tenants other
    #    than the default are evicted under pressure and reload
    #    transparently on their next request, routed by fingerprint
    #    or dataset.  POST /reload upserts by schema fingerprint (same
    #    schema replaces, new schema adds a tenant), but re-reading a
    #    path a tenant is known by must keep that tenant's schema —
    #    else 400 "schema mismatch" and the old scorer keeps serving:
    #
    #        curl -s localhost:8537/reload -d '{"artifact": "beers_art/"}'
    #
    #    Artifacts are format v2 now — pooled deduplicated
    #    vocabularies in a compressed npz, several times smaller on
    #    disk, loading byte-identically (v1 artifacts still load; see
    #    BENCH_serving.json for the measured ratio and the workers
    #    throughput sweep).  GET /artifact/arrays streams the bulk
    #    file in chunks for replica warm-up.

    # 10. Unified telemetry (observe-only: masks are byte-identical
    #     with everything below on or off).  Three faces, one layer:
    #
    #     Span tracing — every fit stage, per-attribute fan-out task,
    #     and scoring pass runs inside a span; export a Chrome trace
    #     and load it at https://ui.perfetto.dev to see where a fit
    #     actually spends its time:
    #
    #         repro fit --dataset hospital --rows 500 \
    #               --artifact-out art/ --trace-out fit_trace.json
    #
    #     or in code:
    #
    #         from repro.obs import trace
    #         tracer = trace.Tracer()
    #         trace.set_tracer(tracer)
    #         try:
    #             fitted = ZeroED(seed=0).fit(data.dirty)
    #         finally:
    #             trace.set_tracer(None)
    #         tracer.export("fit_trace.json")
    #
    #     The default tracer is a no-op (~nanoseconds per span; the
    #     CI gate in benchmarks/bench_obs.py holds the enabled tracer
    #     within 5% of it).
    #
    #     Prometheus metrics — the service exposes GET /metrics in
    #     text exposition format: request/latency histograms and
    #     scored-row counters per tenant, queue/shed/deadline/worker
    #     gauges, registry hit/miss/eviction counts, plus fit-time
    #     provenance (LLM tokens, retries, breaker opens) from the
    #     loaded artifact:
    #
    #         repro serve --artifact art/ &
    #         curl -s localhost:8537/metrics | grep repro_
    #
    #     Structured logs — quiet by default; --log-json turns every
    #     lifecycle event (retries, breaker opens, shed requests,
    #     journal resume decisions) into one JSON line on stderr with
    #     trace_id/request_id correlation fields:
    #
    #         repro serve --artifact art/ --log-json --log-level debug
    #
    #     All CLI commands take --log-json/--log-level; fit-family
    #     commands also take --trace-out.


if __name__ == "__main__":
    main()
