"""Loopback OpenAI-compatible chat-completions endpoint for the collect workload.

Run as a script it serves on 127.0.0.1 (port chosen by the OS, printed as
``port <n>`` on the first stdout line) until terminated or until its stdin
closes. Imported, it only provides the pure functions that decide what the
server sends, so the client side of the benchmark can check the collected
pool against them.

Each prompt gets k choices derived from a hash of (seed, prompt): a
per-prompt difficulty decides how often a choice departs from the prompt's
modal letter, so collected pools span the whole entropy range. Transient
429/503 responses are injected deterministically by (seed, prompt,
attempt) on the first two attempts only, so a client with at least two
retries never quarantines an input. The server counts chat requests,
injected errors and the TCP connections that carried chat requests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LETTERS = "ABCD"
CHOICE_TEMPLATES = (
    "The answer is ({}).",
    "After checking each option, the answer is {}",
    "I think it is {}",
    "Final: [{}]",
    "So I would pick ({})",
    "My choice: {}!",
)
FAILING_ATTEMPTS = 2


def _unit_hash(*parts) -> float:
    digest = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def choices_for(seed: int, prompt: str, k: int) -> list:
    """The k completion texts the server sends for one prompt."""
    rng = random.Random(_unit_hash(seed, "choices", prompt))
    modal = rng.choice(LETTERS)
    difficulty = 0.0 if rng.random() < 0.4 else rng.uniform(0.0, 0.8)
    texts = []
    for _ in range(k):
        letter = rng.choice(LETTERS) if rng.random() < difficulty else modal
        texts.append(rng.choice(CHOICE_TEMPLATES).format(letter))
    return texts


def injected_status(seed: int, prompt: str, attempt: int, share: float) -> int | None:
    """HTTP status injected for this attempt at the prompt, or None to serve it."""
    if attempt >= FAILING_ATTEMPTS:
        return None
    u = _unit_hash(seed, "error", prompt, attempt)
    if u >= share:
        return None
    return 429 if u < share / 2 else 503


class _Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.errors = 0
        self.attempts: dict = {}


def make_server(seed: int, error_share: float) -> ThreadingHTTPServer:
    counters = _Counters()

    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 keeps the connection open for a client that reuses it,
        # so connections per request reflects the client's behaviour.
        protocol_version = "HTTP/1.1"
        counted = False

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            prompt = payload["messages"][0]["content"]
            with counters.lock:
                counters.requests += 1
                if not self.counted:
                    self.counted = True
                    counters.connections += 1
                attempt = counters.attempts.get(prompt, 0)
                counters.attempts[prompt] = attempt + 1
                status = injected_status(seed, prompt, attempt, error_share)
                if status is not None:
                    counters.errors += 1
            if status is not None:
                self._send(status, {"error": {"message": "transient"}})
                return
            texts = choices_for(seed, prompt, int(payload.get("n", 1)))
            self._send(200, {
                "choices": [
                    {"index": i, "message": {"role": "assistant", "content": t}}
                    for i, t in enumerate(texts)
                ]
            })

        def do_GET(self):
            with counters.lock:
                stats = {
                    "requests": counters.requests,
                    "connections": counters.connections,
                    "errors": counters.errors,
                }
            self._send(200, stats)

        def _send(self, status: int, obj: dict):
            body = json.dumps(obj).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--error-share", type=float, required=True)
    args = parser.parse_args(argv)
    server = make_server(args.seed, args.error_share)
    # stdin is a pipe from the benchmark: its end means the benchmark is gone
    threading.Thread(
        target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True
    ).start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
