"""Benchmark: the serving subsystem (fit once, score many).

Measures, per dataset slice:

* ``fit_s`` — the LLM-guided training phase (``ZeroED.fit``);
* ``detect_s`` — full single-shot detection (= fit + the training
  table's prediction pass, which is exactly what ``detect`` runs);
* ``save_s`` / ``load_s`` / ``artifact_bytes`` — artifact round-trip;
* ``score_s`` / ``rows_per_s`` — *warm* ``BatchScorer.score_table`` on
  a fresh copy of the table (cold encodings, warm criteria/embedding
  caches — the steady-state serving cost), best of three;
* ``speedup_vs_detect`` — detect_s / score_s (the ≥10x acceptance
  figure at the 10k Tax slice);
* ``artifact_bytes`` vs ``artifact_bytes_v1`` — the PR 9 compressed
  v2 format against the raw v1 format, and their ratio (the ≥3x
  acceptance figure at the 10k Tax slice);
* service round-trip: single-row latency (median of 15, fresh
  connection per request *and* one keep-alive connection) and a
  256-row batch POST against a live ``ScoringService`` on an
  ephemeral port, with the response checked against the batch
  scorer's flags;
* load shedding under pressure (PR 8): concurrent clients hammer a
  service whose admission queue is sized *below* the offered load;
  records p50/p99 request latency, the shed rate, and the /healthz
  shed counter;
* workers sweep (PR 9): the same saturation load against a
  process-pool service at each worker count — accepted rows/s,
  p50/p99, shed rate, and mask equality against the single-process
  flags.

Writes ``BENCH_serving.json``.  ``--smoke`` runs a small Hospital
slice and **fails** (exit 1) when the warm scoring path regresses
more than 2x against its recorded baseline (hardware-normalised by
the shared GEMM calibration), when the loaded artifact's masks
diverge from the in-memory scorer's, when scoring touches the LLM,
when the service response disagrees with the batch scorer, when the
saturated service returns anything but well-formed 200/503
responses with exact shed accounting, when a multi-worker service's
flags differ from the single-process flags, or when the v2 artifact
fails to undercut v1 on disk — the CI gate for the serving layer.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from _common import calibrate_gemm_s

from repro.config import ZeroEDConfig
from repro.core.pipeline import ZeroED
from repro.data.registry import make_dataset
from repro.serving.artifact import DetectorArtifact
from repro.serving.scorer import BatchScorer
from repro.serving.service import ScoringService

#: Warm-scoring cost of the smoke slice (hospital/400) divided by
#: ``calibrate_gemm_s()`` on the recording machine; the smoke gate
#: fails on >2x regression in calibration units, the same pattern as
#: the sampling/step34 gates.
SCORE_BASELINE_SMOKE_UNITS = 0.8
SMOKE_REGRESSION_FACTOR = 2.0

#: The acceptance slice: warm scoring must beat full detect by >=10x
#: here (recorded as ``speedup_vs_detect``).
FULL_CASES = [("tax", 10_000)]
SMOKE_CASES = [("hospital", 400)]


def _fresh_copy(table):
    """A content-equal table with cold encodings/pair-stat caches."""
    copy = table.copy()
    copy.name = table.name
    return copy


def bench_case(dataset: str, n_rows: int, smoke: bool) -> tuple[dict, list[str]]:
    failures: list[str] = []
    data = make_dataset(dataset, n_rows=n_rows, seed=0)
    table = data.dirty
    config = ZeroEDConfig(
        seed=0, sampling_engine="auto", detector_engine="auto"
    )
    zeroed = ZeroED(config)
    out: dict = {
        "dataset": dataset,
        "n_rows": table.n_rows,
        "n_attributes": table.n_attributes,
    }

    # --- fit + the training-table prediction pass (= detect) ----------
    t0 = time.perf_counter()
    fitted = zeroed.fit(table)
    out["fit_s"] = round(time.perf_counter() - t0, 4)
    t0 = time.perf_counter()
    detect_result = fitted.score(table)
    predict_s = time.perf_counter() - t0
    out["detect_s"] = round(out["fit_s"] + predict_s, 4)
    out["engines"] = detect_result.details["engines"]
    out["llm_requests_fit"] = fitted.ledger_summary["requests"]

    # --- artifact round-trip (v2 default, v1 for the size ratio) -------
    tmp_ctx = TemporaryDirectory()
    tmp = tmp_ctx.name
    t0 = time.perf_counter()
    path = fitted.save(Path(tmp) / "artifact")
    out["save_s"] = round(time.perf_counter() - t0, 4)
    out["artifact_bytes"] = sum(f.stat().st_size for f in path.iterdir())
    v1_path = Path(tmp) / "artifact-v1"
    DetectorArtifact.from_fitted(fitted).save(v1_path, version=1)
    out["artifact_bytes_v1"] = sum(
        f.stat().st_size for f in v1_path.iterdir()
    )
    out["artifact_compression_ratio"] = round(
        out["artifact_bytes_v1"] / out["artifact_bytes"], 2
    )
    if out["artifact_bytes"] >= out["artifact_bytes_v1"]:
        failures.append(
            f"v2 artifact ({out['artifact_bytes']} B) is not smaller "
            f"than v1 ({out['artifact_bytes_v1']} B)"
        )
    t0 = time.perf_counter()
    scorer = BatchScorer.from_artifact(path)
    out["load_s"] = round(time.perf_counter() - t0, 4)

    # --- warm scoring throughput ---------------------------------------
    requests_before = fitted.llm.ledger.summary()["requests"]
    scorer.score_table(_fresh_copy(table))  # warm criteria/embedding caches
    best = np.inf
    for _ in range(3):
        fresh = _fresh_copy(table)
        t0 = time.perf_counter()
        result = scorer.score_table(fresh)
        best = min(best, time.perf_counter() - t0)
    out["score_s"] = round(best, 4)
    out["rows_per_s"] = round(table.n_rows / best, 1)
    out["speedup_vs_detect"] = round(out["detect_s"] / best, 1)
    out["llm_calls_during_scoring"] = (
        fitted.llm.ledger.summary()["requests"] - requests_before
    )
    if out["llm_calls_during_scoring"] != 0:
        failures.append("warm scoring issued LLM calls")

    # --- loaded-vs-in-memory equality ----------------------------------
    in_memory = fitted.scorer().score_table(_fresh_copy(table))
    out["roundtrip_masks_equal"] = bool(
        np.array_equal(in_memory.mask.matrix, result.mask.matrix)
    )
    if not out["roundtrip_masks_equal"]:
        failures.append("loaded artifact masks diverge from in-memory scorer")
    prf = result.score(data.mask)
    out["scored_prf"] = {
        "precision": round(prf.precision, 3),
        "recall": round(prf.recall, 3),
        "f1": round(prf.f1, 3),
    }

    # --- service round-trip --------------------------------------------
    service = ScoringService(scorer, port=0).start()
    try:
        batch_rows = [table.row(i) for i in range(min(256, table.n_rows))]
        expected = scorer.score_rows(batch_rows).mask.matrix.tolist()
        t0 = time.perf_counter()
        payload = _post(service.url + "/score", {"rows": batch_rows})
        out["service_batch_roundtrip_s"] = round(time.perf_counter() - t0, 4)
        out["service_mask_matches"] = payload["flags"] == expected
        if not out["service_mask_matches"]:
            failures.append("service response diverges from BatchScorer")
        latencies = []
        single = [table.row(0)]
        for _ in range(15):
            t0 = time.perf_counter()
            _post(service.url + "/score", {"rows": single})
            latencies.append(time.perf_counter() - t0)
        out["service_single_row_median_s"] = round(
            statistics.median(latencies), 5
        )
        # Same measurement over ONE persistent HTTP/1.1 connection:
        # the per-request TCP setup the keep-alive satellite removes.
        import http.client

        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=120
        )
        try:
            single_body = json.dumps({"rows": single}).encode()
            keepalive = []
            for _ in range(15):
                t0 = time.perf_counter()
                conn.request(
                    "POST", "/score", body=single_body,
                    headers={"Content-Type": "application/json"},
                )
                conn.getresponse().read()
                keepalive.append(time.perf_counter() - t0)
            out["service_single_row_keepalive_median_s"] = round(
                statistics.median(keepalive), 5
            )
        finally:
            conn.close()
    finally:
        service.stop()

    # --- load shedding under saturation (PR 8) -------------------------
    load, load_failures = bench_load(scorer, table, smoke=smoke)
    out["service_load"] = load
    failures.extend(load_failures)

    # --- workers sweep (PR 9) ------------------------------------------
    sweep, sweep_failures = bench_workers(
        path, scorer, table, smoke=smoke
    )
    out["workers_sweep"] = sweep
    failures.extend(sweep_failures)
    tmp_ctx.cleanup()

    # --- hardware-normalised smoke gate --------------------------------
    if smoke:
        calib = calibrate_gemm_s()
        out["gemm_calibration_s"] = round(calib, 4)
        out["score_units"] = round(out["score_s"] / calib, 2)
        out["score_units_vs_baseline"] = round(
            out["score_units"] / SCORE_BASELINE_SMOKE_UNITS, 2
        )
        if out["score_units_vs_baseline"] > SMOKE_REGRESSION_FACTOR:
            failures.append(
                f"warm scoring {out['score_units_vs_baseline']}x its "
                "recorded baseline (hardware-normalised)"
            )
    return out, failures


def _saturate(
    service, table, n_clients: int, requests_per_client: int
) -> tuple[dict, list[str]]:
    """Hammer a live service; return stats + contract violations.

    Shared by the single-process saturation run and the workers sweep
    so the two are the *same load* — the comparison between worker
    counts is apples to apples.
    """
    rows_per_request = 4
    rows = [table.row(i % table.n_rows) for i in range(rows_per_request)]
    body = json.dumps({"rows": rows}).encode()
    lock = threading.Lock()
    latencies_ok: list[float] = []
    statuses: list[int] = []
    malformed: list[str] = []

    def client() -> None:
        for _ in range(requests_per_client):
            request = urllib.request.Request(
                service.url + "/score",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            t0 = time.perf_counter()
            try:
                with urllib.request.urlopen(request, timeout=120) as resp:
                    status, payload = resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                status, payload = exc.code, json.loads(exc.read())
            except OSError as exc:
                # A dropped/reset connection is a contract violation:
                # overload must surface as a clean 503, never a hangup.
                with lock:
                    statuses.append(0)
                    malformed.append(f"connection error: {exc!r}")
                continue
            elapsed = time.perf_counter() - t0
            with lock:
                statuses.append(status)
                if status == 200:
                    latencies_ok.append(elapsed)
                    if len(payload.get("flags") or []) != rows_per_request:
                        malformed.append(f"bad 200 body: {payload}")
                elif status == 503:
                    if payload.get("code") != "overloaded":
                        malformed.append(f"bad 503 body: {payload}")
                else:
                    malformed.append(f"unexpected status {status}")

    threads = [threading.Thread(target=client) for _ in range(n_clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.perf_counter() - t0
    health = _get(service.url + "/healthz")

    total = len(statuses)
    ok = statuses.count(200)
    shed = statuses.count(503)
    quantiles = (
        statistics.quantiles(latencies_ok, n=100)
        if len(latencies_ok) >= 2
        else [0.0] * 99
    )
    out = {
        "clients": n_clients,
        "requests": total,
        "rows_per_request": rows_per_request,
        "wall_s": round(wall_s, 4),
        "ok": ok,
        "shed": shed,
        "shed_rate": round(shed / total, 4) if total else 0.0,
        "accepted_rows_per_s": round(ok * rows_per_request / wall_s, 1),
        "p50_latency_s": round(statistics.median(latencies_ok), 5)
        if latencies_ok
        else None,
        "p99_latency_s": round(quantiles[98], 5) if latencies_ok else None,
        "healthz_shed": health["shed"],
    }
    failures: list[str] = []
    if malformed:
        failures.append(
            f"saturated service broke the response contract: "
            f"{malformed[:3]}"
        )
    if health["shed"] != shed:
        failures.append(
            f"healthz shed counter {health['shed']} != observed 503s {shed}"
        )
    if not latencies_ok:
        failures.append("saturated service answered no request with 200")
    return out, failures


def bench_load(scorer, table, smoke: bool) -> tuple[dict, list[str]]:
    """Saturate a deliberately under-provisioned service.

    ``max_queue_rows`` is sized well below the offered concurrent
    load, so a healthy run *must* shed: the interesting numbers are
    the latency quantiles of the accepted requests and the fraction
    shed, and the gate is the response contract — every answer is a
    well-formed 200 or 503, and /healthz accounts for every shed.
    """
    n_clients = 16 if smoke else 32
    requests_per_client = 8 if smoke else 16
    service = ScoringService(
        scorer,
        port=0,
        max_queue_rows=4 * max(2, n_clients // 4),
        linger_s=0.005,
    ).start()
    try:
        return _saturate(service, table, n_clients, requests_per_client)
    finally:
        service.stop()


def bench_workers(
    artifact_path, scorer, table, smoke: bool
) -> tuple[dict, list[str]]:
    """The same saturation load against process-pool services.

    One service per worker count, warmed before the burst so the sweep
    measures steady-state scoring, not spawn latency.  The flags for a
    pinned batch must be byte-identical to the in-process scorer's at
    every count — the PR 9 equality gate.
    """
    failures: list[str] = []
    sweep: dict = {}
    counts = [1, 2] if smoke else [1, 4]
    n_clients = 16 if smoke else 32
    requests_per_client = 8 if smoke else 16
    # Must fit inside the saturation-sized admission queue (the
    # services below are deliberately under-provisioned).
    batch_rows = [table.row(i) for i in range(min(12, table.n_rows))]
    expected = scorer.score_rows(batch_rows).mask.matrix.tolist()
    for workers in counts:
        service = ScoringService.from_artifacts(
            [artifact_path],
            workers=workers,
            port=0,
            max_queue_rows=4 * max(2, n_clients // 4),
            linger_s=0.005,
        ).start()
        try:
            service.warm_workers()
            payload = _post(service.url + "/score", {"rows": batch_rows})
            equal = payload["flags"] == expected
            stats, sat_failures = _saturate(
                service, table, n_clients, requests_per_client
            )
        finally:
            service.stop()
        stats["mask_equals_single_process"] = equal
        if not equal:
            failures.append(
                f"workers={workers} flags diverge from the in-process "
                f"scorer's"
            )
        failures.extend(
            f"workers={workers}: {f}" for f in sat_failures
        )
        sweep[str(workers)] = stats
    return sweep, failures


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as resp:
        return json.loads(resp.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=120) as resp:
        return json.loads(resp.read())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small slice only; exit 1 on round-trip/equality/LLM-call "
        "failures or >2x warm-scoring regression (CI gate)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_serving.json",
    )
    args = parser.parse_args()

    cases = SMOKE_CASES if args.smoke else FULL_CASES
    results = {
        "protocol": (
            "per slice: ZeroED.fit timed, detect_s = fit + training-table "
            "prediction, artifact save/load timed, warm BatchScorer."
            "score_table on fresh table copies (best of 3, zero LLM "
            "calls), loaded-vs-in-memory mask equality, and a live "
            "ScoringService round-trip (single-row median + 256-row "
            "batch, response checked against the batch scorer), plus a "
            "saturation run against an under-provisioned admission "
            "queue (p50/p99 accepted-request latency, shed rate, "
            "healthz shed accounting); v2 artifact bytes vs a v1 "
            "re-save of the same fit; workers sweep = the identical "
            "saturation load against ScoringService(workers=N) with "
            "warmed pools, flags pinned against the in-process scorer"
        ),
        "cases": {},
    }
    all_failures: list[str] = []
    for dataset, n_rows in cases:
        entry, failures = bench_case(dataset, n_rows, smoke=args.smoke)
        results["cases"][f"{dataset}/{n_rows}"] = entry
        all_failures.extend(failures)
        line = (
            f"{dataset}/{n_rows}: detect {entry['detect_s']}s, "
            f"save {entry['save_s']}s, load {entry['load_s']}s, "
            f"artifact v2 {entry['artifact_bytes']} B "
            f"({entry['artifact_compression_ratio']}x vs v1), "
            f"warm score {entry['score_s']}s "
            f"({entry['rows_per_s']} rows/s, "
            f"{entry['speedup_vs_detect']}x vs detect), "
            f"service single-row {entry['service_single_row_median_s']}s "
            f"(keep-alive "
            f"{entry['service_single_row_keepalive_median_s']}s), "
            f"saturated p50/p99 "
            f"{entry['service_load']['p50_latency_s']}s/"
            f"{entry['service_load']['p99_latency_s']}s "
            f"shed {entry['service_load']['shed_rate'] * 100:.0f}%"
        )
        for workers, stats in entry["workers_sweep"].items():
            line += (
                f"\n  workers={workers}: "
                f"{stats['accepted_rows_per_s']} accepted rows/s, "
                f"shed {stats['shed_rate'] * 100:.0f}%, p50/p99 "
                f"{stats['p50_latency_s']}s/{stats['p99_latency_s']}s, "
                f"masks equal: {stats['mask_equals_single_process']}"
            )
        if "score_units_vs_baseline" in entry:
            line += (
                f" [{entry['score_units_vs_baseline']}x vs baseline, "
                "hardware-normalised]"
            )
        print(line)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.smoke and all_failures:
        for failure in all_failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
