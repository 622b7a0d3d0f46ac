import json
import os
import pickle
import select
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from active_eval import Pool, SynthConfig, make_pool
from active_eval.estimate import BLOCK_TRIALS, estimate_blocks
from active_eval.harness import prepare_method


def pool_from_rows(rows, losses, ids=None):
    """A Pool of answer-label rows and their losses, the labels coded in
    order of first appearance; ids default to i0, i1, ..."""
    rows = [list(row) for row in rows]
    code_of: dict = {}
    codes = [[code_of.setdefault(a, len(code_of)) for a in row] for row in rows]
    k = len(rows[0]) if rows else 0
    if ids is None:
        ids = [f"i{j}" for j in range(len(rows))]
    return Pool(ids, np.array(codes, dtype=np.int64).reshape(len(rows), k), code_of, losses)


def reversed_blocks_in_child(pool, method, budget, trials, master_seed, timeout=60.0):
    """One (method, budget) cell's arrays of values and labels used, drawn
    one block at a time, last block first, by ``estimate_blocks`` in a
    forked child that sends them back over a pipe.

    The child is reaped before this returns, and killed first if it has
    sent nothing within ``timeout`` seconds.
    """
    _, members, plan = prepare_method(pool, method, budget)
    blocks = range(-(-trials // BLOCK_TRIALS))
    fd_in, fd_out = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: draw, send and leave without any clean-up
        status = 1
        try:
            os.close(fd_in)
            parts = {}
            for block in reversed(blocks):
                count = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
                [parts[block]] = estimate_blocks(pool, members, [plan], master_seed, block, count)
            arrays = tuple(np.concatenate([parts[b][i] for b in blocks]) for i in range(2))
            with open(fd_out, "wb") as pipe:
                pickle.dump(arrays, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(fd_out)
    with open(fd_in, "rb") as pipe:
        try:
            if not select.select([pipe], [], [], timeout)[0]:
                os.kill(pid, signal.SIGKILL)
                pytest.fail(f"the child sent nothing within {timeout} s")
            values, labels = pickle.load(pipe)
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    assert status == 0, f"the child exited with status {status}"
    return values, labels


class MockChatServer:
    """Scriptable chat-completions endpoint for client tests.

    Responses are driven by a queue of behaviors: an int is returned as a
    bare HTTP status, a ``(status, body bytes, headers)`` tuple is sent as
    given, and a list of strings becomes a well-formed completion body with
    those choice texts. When the queue runs dry the default behavior
    repeats. Every request body is recorded with the client's port, which
    tells the TCP connections apart. The server speaks HTTP/1.1, so a
    client that keeps its connection alive would show as a repeated port.
    """

    def __init__(self):
        self.requests = []
        self.script = []
        self.default_texts = ["mock answer"]
        self.lock = threading.Lock()

        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length))
                with outer.lock:
                    self._record(payload)
                    behavior = outer.script.pop(0) if outer.script else None
                if isinstance(behavior, int):
                    behavior = (behavior, b"", {})
                if isinstance(behavior, tuple):
                    self._send(*behavior)
                    return
                texts = behavior if behavior is not None else outer.default_texts
                n = payload.get("n", 1)
                if len(texts) == 1 and n > 1:
                    texts = texts * n
                body = json.dumps(
                    {
                        "choices": [
                            {"index": i, "message": {"role": "assistant", "content": t}}
                            for i, t in enumerate(texts)
                        ]
                    }
                ).encode()
                self._send(200, body, {"Content-Type": "application/json"})

            def do_GET(self):
                # only a client that followed a redirect as a GET gets here
                with outer.lock:
                    self._record(None)
                self._send(405, b"", {})

            def _record(self, payload):
                outer.requests.append(
                    {"path": self.path, "payload": payload,
                     "headers": dict(self.headers),
                     "client_port": self.client_address[1]}
                )

            def _send(self, status, body, headers):
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits for the serve loop's next poll; the default 0.5 s
        # interval would add half a second to every test's teardown
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def mock_server():
    server = MockChatServer()
    yield server
    server.close()


@pytest.fixture
def second_server():
    """A second, independent endpoint, e.g. a redirect target."""
    server = MockChatServer()
    yield server
    server.close()


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped.

    A benchmark run refuses a change that leaves a process running, and
    ``load_pool`` forks readers, so every test checks for leftovers.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({'running' if pid == 0 else pid})")


@pytest.fixture(scope="session")
def large_pool():
    """An N=100k synthetic pool, built once for every test that reads it."""
    return make_pool(SynthConfig(size=100_000, seed=7))


@pytest.fixture(scope="session")
def fractional_pool():
    """Synthetic signals with non-binary losses, so sums round."""
    base = make_pool(SynthConfig(size=240, seed=4))
    rng = np.random.default_rng(4)
    return Pool(base.ids, base.codes, base.labels, rng.random(base.size))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" not in report.nodeid or report.when != "call":
                continue
            name = report.nodeid.split("::")[-1]
            lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
