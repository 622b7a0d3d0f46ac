import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from active_eval import SynthConfig, make_pool


class MockChatServer:
    """Scriptable chat-completions endpoint for client tests.

    Responses are driven by a queue of behaviors: an int is returned as a
    bare HTTP status, a list of strings becomes a well-formed completion
    body with those choice texts. When the queue runs dry the default
    behavior repeats. Every request body is recorded.
    """

    def __init__(self):
        self.requests = []
        self.script = []
        self.default_texts = ["mock answer"]
        self.lock = threading.Lock()

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length))
                with outer.lock:
                    outer.requests.append(
                        {"path": self.path, "payload": payload,
                         "headers": dict(self.headers)}
                    )
                    behavior = outer.script.pop(0) if outer.script else None
                if isinstance(behavior, int):
                    self.send_response(behavior)
                    self.end_headers()
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
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
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
