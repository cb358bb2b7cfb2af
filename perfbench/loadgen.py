"""HTTP load generator for the scoring service.

One process, at most ``conns`` threads, each owning one keep-alive
connection (the default of 2 matches a 2-core box: the server gets its
own process, the generator never runs more threads than cores).

* :func:`open_loop` sends request ``k`` at its due time
  ``t0 + k / rate`` whether or not earlier requests have returned, as
  independent users would.  Latency is timed from the due time, so a
  stall also charges the requests that queued behind it.  The
  generator's own lateness — how long after ``max(due, connection
  free)`` a request actually left — is recorded apart: when it is
  large, the generator, not the server, set the schedule, and the
  phase is invalid.
* :func:`closed_loop` keeps every connection busy: each thread sends
  its next request as soon as the previous answer arrives.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

#: A paced phase whose generator lateness p99 exceeds this is invalid.
MAX_LATENESS_P99_S = 0.005


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parts = urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None):
        """``(status, body bytes)``; status 0 when the transport failed."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            resp = self._conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def get_json(self, path: str):
        status, body = self.request("GET", path)
        return status, (json.loads(body) if status == 200 else None)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Phase:
    """What one phase sent and what came back."""

    start: float = 0.0
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    statuses: dict[int, int] = field(default_factory=dict)
    bad_answers: int = 0
    rows: int = 0

    @property
    def sent(self) -> int:
        return sum(self.statuses.values())

    @property
    def ok(self) -> int:
        return self.statuses.get(200, 0) - self.bad_answers

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    def valid(self) -> bool:
        """False when the generator itself fell behind its schedule."""
        return _p99(self.lateness) <= MAX_LATENESS_P99_S

    def record(self, status: int, body: bytes, n_rows: int, width: int,
               latency: float, lateness: float | None, lock) -> None:
        good = status == 200 and _answer_ok(body, n_rows, width)
        with lock:
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status == 200 and not good:
                self.bad_answers += 1
            if good:
                self.rows += n_rows
            self.latencies.append(latency)
            if lateness is not None:
                self.lateness.append(lateness)


def _p99(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _answer_ok(body: bytes, n_rows: int, width: int) -> bool:
    """A 200 must carry one flag row of ``width`` booleans per row."""
    try:
        flags = json.loads(body)["flags"]
    except (ValueError, KeyError, TypeError):
        return False
    return len(flags) == n_rows and all(len(f) == width for f in flags)


def _payloads(rows) -> list[tuple[bytes, int]]:
    return [(json.dumps({"rows": [r]}).encode(), 1) for r in rows]


def open_loop(url: str, rows, width: int, rate: float, seconds: float,
              conns: int = 2) -> Phase:
    """Send ``rate * seconds`` one-row requests on a fixed schedule."""
    payloads = _payloads(rows)
    n = max(1, int(rate * seconds))
    phase = Phase()
    lock = threading.Lock()
    counter = iter(range(n))
    t0 = time.perf_counter() + 0.01
    phase.start = t0

    def worker() -> None:
        client = Client(url)
        try:
            while True:
                with lock:
                    k = next(counter, None)
                if k is None:
                    return
                free = time.perf_counter()
                due = t0 + k / rate
                if due > free:
                    time.sleep(due - free)
                sent = time.perf_counter()
                body, n_rows = payloads[k % len(payloads)]
                status, answer = client.request("POST", "/score", body)
                done = time.perf_counter()
                phase.record(status, answer, n_rows, width, done - due,
                             sent - max(due, free), lock)
        finally:
            client.close()

    _run(worker, conns)
    phase.seconds = time.perf_counter() - t0
    return phase


def closed_loop(url: str, rows, width: int, seconds: float,
                conns: int = 2) -> Phase:
    """Each connection sends its next request when the last returns."""
    payloads = _payloads(rows)
    phase = Phase()
    lock = threading.Lock()
    counter = iter(range(10**9))
    t0 = time.perf_counter()
    stop = t0 + seconds
    phase.start = t0

    def worker() -> None:
        client = Client(url)
        try:
            while time.perf_counter() < stop:
                with lock:
                    k = next(counter)
                body, n_rows = payloads[k % len(payloads)]
                sent = time.perf_counter()
                status, answer = client.request("POST", "/score", body)
                phase.record(status, answer, n_rows, width,
                             time.perf_counter() - sent, None, lock)
        finally:
            client.close()

    _run(worker, conns)
    phase.seconds = time.perf_counter() - t0
    return phase


def _run(worker, conns: int) -> None:
    threads = [threading.Thread(target=worker) for _ in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
