"""Due-time accounting of the open loop against a stalling fake server."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import loadgen

STALL_AT = 5
STALL_S = 0.2


class _Stalling(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    seen = 0
    lock = threading.Lock()

    def log_message(self, *args):
        pass

    def do_POST(self):
        rows = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.lock:
            type(self).seen += 1
            k = self.seen
        if k == STALL_AT + 1:
            time.sleep(STALL_S)
        body = json.dumps({"flags": [[False, False]] * len(rows["rows"])})
        body = body.encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def stalling_server():
    _Stalling.seen = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stalling)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_stall_is_charged_to_the_requests_queued_behind_it(stalling_server):
    rows = [{"a": "x", "b": "y"}]
    # One connection, a request every 20 ms for half a second.
    phase = loadgen.open_loop(stalling_server, rows, width=2, rate=50,
                              seconds=0.5, conns=1)
    assert phase.sent == 25 and phase.failed == 0
    lat = phase.latencies
    # The stalled request itself, then the next one: due 20 ms later
    # but sent only when the stall ends, so its latency from due time
    # is most of the stall although the server answered it at once.
    assert lat[STALL_AT] >= STALL_S
    assert lat[STALL_AT + 1] >= STALL_S - 0.05
    queued = [x for x in lat[STALL_AT + 1:] if x > 0.05]
    assert len(queued) >= 5
    # Waiting for the busy connection is the server's doing, not the
    # generator's: lateness stays small and the phase stays valid.
    assert max(phase.lateness) < 0.02
    assert phase.valid()


def test_a_late_generator_invalidates_the_phase():
    phase = loadgen.Phase(lateness=[0.0] * 90 + [0.05] * 10)
    assert not phase.valid()
    assert loadgen.Phase(lateness=[0.001] * 100).valid()


def test_bad_answers_count_as_failures(stalling_server):
    # width 3 against a server answering 2 flags per row
    phase = loadgen.closed_loop(stalling_server, [{"a": "x"}], width=3,
                                seconds=0.1, conns=2)
    assert phase.sent > 0 and phase.failed == phase.sent
