"""Command-line interface for the repro package.

Subcommands::

    repro datasets                       list benchmark datasets
    repro generate beers out/ [--rows N] write dirty/clean/mask to disk
    repro detect beers [--method zeroed] run a detector, print P/R/F1
    repro detect-csv dirty.csv           detect on your own CSV
    repro fit beers --artifact-out art/  train once, persist the detector
    repro fit --csv big.csv --sample-rows 5000 --artifact-out art/
                                         out-of-core fit on a reservoir sample
    repro score-csv new.csv --artifact art/   warm-score unseen rows
    repro score-csv big.csv --artifact art/ --chunk-rows 50000
                                         stream-score shard-by-shard
    repro serve --artifact art/          HTTP scoring service
    repro compare [--datasets a,b] ...   Table III-style grid
    repro repair beers                   detect then suggest repairs

Run ``python -m repro <command> -h`` for per-command options.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import METHODS, format_table, run_method
from repro.config import (
    DETECTOR_ENGINE_CHOICES,
    SAMPLING_ENGINE_CHOICES,
    ZeroEDConfig,
)
from repro.core.pipeline import ZeroED
from repro.core.repair import RepairSuggester
from repro.data.csvio import read_csv
from repro.data.maskio import write_dataset, write_mask
from repro.errors import ReproError, error_code
from repro.data.registry import COMPARISON_DATASETS, dataset_names, get_dataset


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=int, default=None,
                        help="row count (default: Table II size)")
    parser.add_argument("--seed", type=int, default=0)


def _add_engine_flags(
    parser: argparse.ArgumentParser, *, engines: bool = True
) -> None:
    """The shared execution flags (one definition, every subcommand).

    ``--sampling-engine`` / ``--detector-engine`` / ``--jobs`` used to
    be duplicated (with drifting help text) between ``detect`` and
    ``detect-csv``; ``fit``, ``repair`` and — jobs only, its engines
    come from the artifact — ``score-csv`` reuse them too.
    """
    if engines:
        parser.add_argument(
            "--sampling-engine", default="exact",
            choices=SAMPLING_ENGINE_CHOICES,
            help="Step-2 clustering engine: 'exact' (reproducible "
                 "reference masks), 'fast' (mini-batch k-means, >=5x "
                 "faster on 10k+ rows, masks may shift within the "
                 "recorded tolerance band), or 'auto' (fast at >=2k "
                 "rows, exact below)")
        parser.add_argument(
            "--detector-engine", default="exact",
            choices=DETECTOR_ENGINE_CHOICES,
            help="Step-4 MLP engine; both predict once per unique "
                 "feature row: 'exact' (float64, trains on every row, "
                 "reproducible reference masks), 'fast' (float32, trains "
                 "on collapsed duplicate rows, masks may shift within the "
                 "recorded tolerance band), or 'auto' (fast at >=2k "
                 "rows, exact below)")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker threads for the per-attribute stages (sampling, "
             "verification+assembly, detector train/predict, scoring); "
             "-1 = one per CPU core; masks are byte-identical for "
             "every value (default: 1)")


def _add_zeroed_flags(parser: argparse.ArgumentParser) -> None:
    """The common ZeroED model knobs (LLM profile + label budget)."""
    parser.add_argument("--llm", default="qwen2.5-72b", help="LLM profile")
    parser.add_argument("--label-rate", type=float, default=0.05)
    _add_resilience_flags(parser)


def _add_obs_flags(
    parser: argparse.ArgumentParser, *, tracing: bool = True
) -> None:
    """The shared telemetry flags (span tracing + structured logs)."""
    group = parser.add_argument_group("telemetry")
    if tracing:
        group.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help="record every pipeline span and write a Chrome "
                 "trace-event JSON file (load it in Perfetto or "
                 "chrome://tracing); tracing is off by default and "
                 "observe-only — masks are byte-identical either way")
    group.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON-lines logs on stderr, each line "
             "carrying the trace/request ids for correlation")
    group.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="log verbosity (debug/info/warning/error/critical); "
             "implies logging output even without --log-json "
             "(default: logging stays off)")


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance knobs of the LLM phase (resilience layer)."""
    group = parser.add_argument_group("LLM fault tolerance")
    group.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retries per LLM call beyond the first attempt "
             "(default: 2; 0 disables retrying)")
    group.add_argument(
        "--llm-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock bound on each LLM call "
             "(default: trust the client's transport timeout)")
    group.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="N",
        help="consecutive failed attempts that open the circuit "
             "breaker (default: 10; 0 disables the breaker)")
    group.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist every LLM response under DIR so an interrupted "
             "fit resumes without re-spending tokens")
    group.add_argument(
        "--no-degrade", action="store_true",
        help="fail the fit on the first attribute whose LLM calls "
             "exhaust their retries, instead of falling back to "
             "pattern/frequency-only detection for that attribute")


def _zeroed_config(args) -> ZeroEDConfig:
    """A ZeroEDConfig from the shared flag set."""
    resilience = {}
    if getattr(args, "retries", None) is not None:
        resilience["llm_max_retries"] = args.retries
    if getattr(args, "llm_timeout", None) is not None:
        resilience["llm_timeout_s"] = args.llm_timeout
    if getattr(args, "breaker_threshold", None) is not None:
        resilience["llm_breaker_threshold"] = args.breaker_threshold
    if getattr(args, "checkpoint_dir", None):
        resilience["checkpoint_dir"] = args.checkpoint_dir
    if getattr(args, "no_degrade", False):
        resilience["degrade_on_failure"] = False
    return ZeroEDConfig(
        seed=args.seed,
        llm_model=getattr(args, "llm", "qwen2.5-72b"),
        label_rate=getattr(args, "label_rate", 0.05),
        sampling_engine=args.sampling_engine,
        detector_engine=args.detector_engine,
        n_jobs=args.jobs,
        trace_out=getattr(args, "trace_out", None),
        log_json=getattr(args, "log_json", False),
        log_level=getattr(args, "log_level", None),
        **resilience,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZeroED reproduction: zero-shot tabular error detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list benchmark datasets")

    p = sub.add_parser("generate", help="write a dataset to a directory")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("out", help="output directory")
    _add_common(p)

    p = sub.add_parser("detect", help="run a detector on a benchmark")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("--method", default="zeroed", choices=METHODS)
    _add_zeroed_flags(p)
    _add_engine_flags(p)
    _add_obs_flags(p)
    p.add_argument("--mask-out", default=None,
                   help="write the predicted mask JSON here")
    _add_common(p)

    p = sub.add_parser("detect-csv", help="run ZeroED on your own CSV")
    p.add_argument("csv", help="path to a dirty CSV file")
    _add_zeroed_flags(p)
    _add_engine_flags(p)
    _add_obs_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask-out", default=None)

    p = sub.add_parser(
        "fit",
        help="train ZeroED once and persist the detector artifact",
    )
    p.add_argument("dataset", nargs="?", choices=dataset_names(),
                   help="benchmark dataset to fit on (or use --csv)")
    p.add_argument("--csv", default=None,
                   help="fit on your own dirty CSV instead of a benchmark")
    p.add_argument("--artifact-out", required=True,
                   help="directory for the saved detector artifact "
                        "(manifest.json + arrays.npz)")
    p.add_argument("--sample-rows", type=int, default=None, metavar="N",
                   help="fit on a seeded reservoir sample of N rows "
                        "drawn in one streaming pass (out-of-core for "
                        "--csv sources); the artifact records the "
                        "sample provenance and still scores full "
                        "tables chunk-by-chunk")
    _add_zeroed_flags(p)
    _add_engine_flags(p)
    _add_obs_flags(p)
    _add_common(p)

    p = sub.add_parser(
        "score-csv",
        help="score a CSV with a fitted artifact (no LLM, no sampling)",
    )
    p.add_argument("csv", help="path to the CSV to score")
    p.add_argument("--artifact", required=True,
                   help="detector artifact directory written by "
                        "'repro fit --artifact-out'")
    _add_engine_flags(p, engines=False)
    _add_obs_flags(p)
    p.add_argument("--chunk-rows", type=int, default=None, metavar="N",
                   help="stream the CSV in shards of N rows instead of "
                        "loading it whole — bounded memory for "
                        "arbitrarily large files; the mask is "
                        "byte-identical to the in-memory path")
    p.add_argument("--manifest-out", default=None, metavar="PATH",
                   help="write the streaming scoring manifest (per-"
                        "shard row offsets + SHA-256 mask checksums) "
                        "as JSON; implies chunked scoring")
    p.add_argument("--journal-dir", default=None, metavar="DIR",
                   help="journal every completed shard under DIR "
                        "(mask bytes + checksums under the job's "
                        "fingerprint) so a killed run can be resumed; "
                        "implies chunked scoring")
    p.add_argument("--resume", action="store_true",
                   help="replay the journal's verified shards instead "
                        "of re-scoring them and continue from the "
                        "first incomplete shard (requires "
                        "--journal-dir; the final mask is byte-"
                        "identical to an uninterrupted run)")
    p.add_argument("--bad-rows", default=None,
                   choices=("fail", "quarantine"),
                   help="malformed-row policy: 'fail' stops on the "
                        "first row wider than the header (default); "
                        "'quarantine' records offenders in a JSONL "
                        "sidecar and scores the rest")
    p.add_argument("--quarantine-out", default=None, metavar="PATH",
                   help="sidecar path for quarantined rows (default: "
                        "<csv>.quarantine.jsonl)")
    p.add_argument("--mask-out", default=None)

    p = sub.add_parser(
        "serve",
        help="HTTP scoring service over a fitted artifact",
    )
    p.add_argument("--artifact", required=True, action="append",
                   help="detector artifact directory to serve; repeat "
                        "the flag to host several fitted datasets "
                        "behind one port (the first is the default "
                        "tenant; /score routes by fingerprint/dataset)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8537,
                   help="listen port (0 picks a free one)")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="scoring worker processes; 0 (default) scores "
                        "in-process, N fans micro-batches to N "
                        "processes with byte-identical masks")
    p.add_argument("--registry-budget-mb", type=float, default=None,
                   metavar="MB",
                   help="memory budget for resident artifacts; "
                        "least-recently-used tenants other than the "
                        "default are evicted and reload on demand "
                        "(default: unbounded)")
    p.add_argument("--read-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="socket read deadline per request; a stalled "
                        "client is disconnected (default: 30)")
    p.add_argument("--max-body-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="request-body cap; larger /score payloads get "
                        "HTTP 413 (default: 8 MiB)")
    p.add_argument("--max-queue-rows", type=int, default=None,
                   metavar="N",
                   help="admission cap: rows allowed to wait for a "
                        "micro-batch before new requests are shed "
                        "with HTTP 503 + Retry-After (default: 16384)")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="per-request deadline; a request still "
                        "unscored when it expires gets HTTP 504 "
                        "(default: none beyond the 120s request "
                        "timeout)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="on SIGTERM: stop admitting (503), wait up to "
                        "this long for queued work to finish, then "
                        "exit (default: 30)")
    _add_engine_flags(p, engines=False)
    # A long-running server would grow an unbounded span list; serve
    # gets the structured-log flags only (scrape /metrics for numbers).
    _add_obs_flags(p, tracing=False)

    p = sub.add_parser("compare", help="method x dataset comparison grid")
    p.add_argument("--datasets", default=",".join(COMPARISON_DATASETS))
    p.add_argument("--methods", default=",".join(METHODS))
    _add_common(p)

    p = sub.add_parser("repair", help="detect then suggest repairs")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("--limit", type=int, default=20,
                   help="show at most this many suggestions")
    p.add_argument("--artifact", default=None,
                   help="reuse a fitted detector artifact for the "
                        "detection pass instead of refitting")
    _add_zeroed_flags(p)
    _add_engine_flags(p)
    _add_obs_flags(p)
    _add_common(p)
    return parser


def cmd_datasets(_args) -> int:
    for name in dataset_names():
        spec = get_dataset(name)
        print(f"{name:12s} {spec.default_rows:>7d} rows x "
              f"{len(spec.make(n_rows=2, seed=0).dirty.attributes)} attrs")
    return 0


def cmd_generate(args) -> int:
    data = get_dataset(args.dataset).make(n_rows=args.rows, seed=args.seed)
    out = write_dataset(data, args.out)
    print(f"wrote {data.dirty.n_rows} rows "
          f"({data.mask.error_count()} error cells) to {out}/")
    return 0


def cmd_detect(args) -> int:
    config = _zeroed_config(args)
    run = run_method(
        args.method, args.dataset, n_rows=args.rows, seed=args.seed,
        llm_model=args.llm, zeroed_config=config,
    )
    print(f"{args.method} on {args.dataset}: {run.prf} "
          f"({run.seconds:.1f}s, tokens {run.input_tokens}/{run.output_tokens})")
    if args.mask_out and run.result is not None:
        write_mask(run.result.mask, args.mask_out)
        print(f"mask written to {args.mask_out}")
    return 0


def cmd_detect_csv(args) -> int:
    table = read_csv(args.csv)
    result = ZeroED(_zeroed_config(args)).detect(table)
    n = result.mask.error_count()
    print(f"flagged {n} cells "
          f"({100 * result.mask.error_rate():.2f}% of {table.shape})")
    for i, attr in result.mask.error_cells()[:20]:
        print(f"  ({i}, {attr}) -> {table.cell(i, attr)!r}")
    if args.mask_out:
        write_mask(result.mask, args.mask_out)
        print(f"mask written to {args.mask_out}")
    return 0


def cmd_fit(args) -> int:
    if (args.dataset is None) == (args.csv is None):
        print("fit needs exactly one of: a dataset name, or --csv",
              file=sys.stderr)
        return 2
    config = _zeroed_config(args)
    if args.sample_rows is not None:
        import dataclasses

        config = dataclasses.replace(config, sample_rows=args.sample_rows)
    sample = None
    if args.csv is not None:
        if args.sample_rows is not None and args.rows is None:
            # Out-of-core: one streaming reservoir pass over the file,
            # never materializing it whole (ZeroED.fit then sees a
            # table already within budget and fits it directly).
            from repro.serving.streaming import reservoir_sample_csv

            sample = reservoir_sample_csv(
                args.csv, args.sample_rows, seed=args.seed
            )
            table = sample.table
        else:
            table = read_csv(args.csv)
            if args.rows is not None:
                table = table.head(args.rows)
    else:
        table = get_dataset(args.dataset).make(
            n_rows=args.rows, seed=args.seed
        ).dirty
    fitted = ZeroED(config).fit(table)
    if sample is not None and sample.table.n_rows < sample.total_rows:
        # The fit saw a pre-drawn sample; carry its provenance into
        # the artifact manifest exactly as an in-memory sampled fit
        # would.
        fitted.details["sample"] = sample.provenance()
    prov = fitted.details.get("sample")
    if prov:
        print(f"fitted on a reservoir sample: {prov['sampled_rows']} of "
              f"{prov['source_rows']} rows (seed {prov['seed']})")
    degraded = fitted.details.get("degraded_attrs") or {}
    if degraded:
        print(f"warning: {len(degraded)} attribute(s) fell back to "
              f"statistical signals after exhausted LLM retries: "
              f"{', '.join(sorted(degraded))}", file=sys.stderr)
    path = fitted.save(args.artifact_out)
    ledger = fitted.ledger_summary
    print(f"fitted on {table.name} ({table.n_rows} rows x "
          f"{table.n_attributes} attrs; {ledger['requests']} LLM requests, "
          f"tokens {ledger['input_tokens']}/{ledger['output_tokens']})")
    print(f"artifact written to {path}/")
    return 0


def cmd_score_csv(args) -> int:
    from repro.errors import DataError
    from repro.serving.scorer import BatchScorer

    if args.resume and args.journal_dir is None:
        raise DataError("--resume requires --journal-dir")
    scorer = BatchScorer.from_artifact(args.artifact, n_jobs=args.jobs)
    chunked = (
        args.chunk_rows is not None
        or args.manifest_out is not None
        or args.journal_dir is not None
    )
    if chunked:
        # Out-of-core path: stream the file shard-by-shard; the mask
        # is byte-identical to the in-memory path below.
        result = scorer.score_csv(
            args.csv,
            chunk_rows=args.chunk_rows,
            n_jobs=args.jobs,
            journal_dir=args.journal_dir,
            resume=args.resume,
            bad_rows=args.bad_rows,
            quarantine_path=args.quarantine_out,
        )
        mask = result.mask
        print(f"flagged {mask.error_count()} cells "
              f"({100 * mask.error_rate():.2f}% of {mask.n_rows} rows) "
              f"in {result.seconds:.2f}s "
              f"({len(result.shards)} shards x <={result.chunk_rows} rows, "
              f"{result.rows_per_s:.0f} rows/s), zero LLM calls")
        resumed = result.details.get("resumed_shards")
        if resumed:
            print(f"resumed from the journal: {resumed} shard(s) "
                  f"replayed without re-scoring")
        elif args.resume and result.details.get("journal_invalidated"):
            print("journal invalidated (artifact, source or shard size "
                  "changed); re-scored from shard 0", file=sys.stderr)
        quarantined = result.details.get("quarantined_rows")
        if quarantined:
            print(f"quarantined {quarantined} malformed row(s) to "
                  f"{result.details['quarantine_path']}", file=sys.stderr)
        if args.manifest_out:
            result.write_manifest(args.manifest_out)
            print(f"manifest written to {args.manifest_out}")
    else:
        table = read_csv(args.csv)
        result = scorer.score_table(table)
        mask = result.mask
        print(f"flagged {mask.error_count()} cells "
              f"({100 * mask.error_rate():.2f}% of {table.shape}) "
              f"in {result.total_seconds:.2f}s, zero LLM calls")
        for i, attr in mask.error_cells()[:20]:
            print(f"  ({i}, {attr}) -> {table.cell(i, attr)!r}")
    if args.mask_out:
        write_mask(mask, args.mask_out)
        print(f"mask written to {args.mask_out}")
    return 0


def cmd_serve(args) -> int:
    import signal
    import threading

    from repro.serving.service import ScoringService

    hardening = {}
    if args.read_timeout is not None:
        hardening["read_timeout_s"] = args.read_timeout
    if args.max_body_bytes is not None:
        hardening["max_body_bytes"] = args.max_body_bytes
    if args.max_queue_rows is not None:
        hardening["max_queue_rows"] = args.max_queue_rows
    if args.deadline is not None:
        hardening["deadline_s"] = args.deadline
    if args.workers:
        hardening["workers"] = args.workers
    budget = (
        int(args.registry_budget_mb * 1024 * 1024)
        if args.registry_budget_mb is not None
        else None
    )
    service = ScoringService.from_artifacts(
        args.artifact, budget_bytes=budget, n_jobs=args.jobs,
        host=args.host, port=args.port, **hardening,
    )
    if args.workers:
        # Pay the per-worker artifact load before announcing readiness,
        # not on the first real request.
        service.warm_workers()
    info = service.scorer.info
    print(f"serving artifact for {info.get('dataset')!r} "
          f"({info.get('train_rows')} training rows) on {service.url}")
    if service.n_workers:
        print(f"scoring on {service.n_workers} worker process(es)")
    resident = service.registry.snapshot()["resident"]
    names = ", ".join(repr(entry["dataset"]) for entry in resident)
    print(f"registry: {len(resident)} resident artifact(s): {names}")
    degraded = (info.get("resilience") or {}).get("degraded_attrs") or {}
    if degraded:
        print(f"note: {len(degraded)} attribute(s) were fitted degraded "
              f"(see GET /healthz): {', '.join(sorted(degraded))}")
    print("endpoints: POST /score  POST /reload  GET /healthz  "
          "GET /readyz  GET /metrics  GET /artifact  "
          "GET /artifact/arrays")

    def _on_sigterm(signum, frame) -> None:
        # drain() ends with stop(), whose server.shutdown() must not
        # run on the thread inside serve_forever — hand it off.
        print("\nSIGTERM: draining (new requests get 503)",
              file=sys.stderr)
        threading.Thread(
            target=service.drain, args=(args.drain_timeout,), daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        service.stop()
    return 0


def cmd_compare(args) -> int:
    rows = []
    for dataset in args.datasets.split(","):
        for method in args.methods.split(","):
            run = run_method(
                method.strip(), dataset.strip(), n_rows=args.rows,
                seed=args.seed,
            )
            rows.append(run.as_row())
    print(format_table(
        rows, ["method", "dataset", "precision", "recall", "f1", "seconds"]
    ))
    return 0


def cmd_repair(args) -> int:
    data = get_dataset(args.dataset).make(n_rows=args.rows, seed=args.seed)
    if args.artifact:
        from repro.serving.scorer import BatchScorer

        scorer = BatchScorer.from_artifact(args.artifact, n_jobs=args.jobs)
        mask = scorer.score_table(data.dirty).mask
    else:
        mask = ZeroED(_zeroed_config(args)).detect(data.dirty).mask
    suggester = RepairSuggester(data.dirty)
    suggestions = suggester.suggest(mask)
    correct = sum(
        1 for s in suggestions
        if s.suggestion == data.clean.cell(s.row, s.attr)
    )
    print(f"{len(suggestions)} suggestions for "
          f"{mask.error_count()} flagged cells; "
          f"{correct} match the ground truth exactly")
    for s in suggestions[: args.limit]:
        print(f"  {s}")
    return 0


_COMMANDS = {
    "datasets": cmd_datasets,
    "generate": cmd_generate,
    "detect": cmd_detect,
    "detect-csv": cmd_detect_csv,
    "fit": cmd_fit,
    "score-csv": cmd_score_csv,
    "serve": cmd_serve,
    "compare": cmd_compare,
    "repair": cmd_repair,
}


def main(argv: list[str] | None = None) -> int:
    from repro import obs

    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    try:
        # One telemetry session around the whole command: spans from
        # every layer land in one trace, log lines share one config.
        # (ZeroED.fit opens its own session from the config; the
        # already-installed guard makes the inner one a no-op.)
        with obs.session(
            trace_out=trace_out,
            log_json=getattr(args, "log_json", False),
            log_level=getattr(args, "log_level", None),
        ):
            code = _COMMANDS[args.command](args)
        if trace_out is not None:
            print(f"trace written to {trace_out}")
        return code
    except ReproError as exc:
        # Library failures exit with a stable machine-readable JSON
        # line on stderr — the CLI twin of the service's error bodies
        # — never a raw traceback (a corrupt artifact or malformed CSV
        # is an operator problem, not a bug being reported).
        print(
            json.dumps({"error": str(exc), "code": error_code(exc)}),
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
