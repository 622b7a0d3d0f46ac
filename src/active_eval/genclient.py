"""Collect k sampled generations per input from an OpenAI-compatible
chat-completions endpoint and write pool records in the ingest format.

Transient failures (transport errors, timeouts, HTTP 429 and 5xx) are
retried with exponential backoff, lengthened to the server's
``Retry-After`` seconds on 429/503 up to the request timeout; anything
else quarantines the input and the batch moves on, so one bad prompt
cannot sink a long collection run. Each settled input is one line, its
record in the output file or its id in a quarantine journal, so an
interrupted run resumes without re-requesting or duplicating an input.

Requests go through the standard library's ``urllib.request``, one TCP
connection per request (urllib sends ``Connection: close``). Reusing a
connection saves a handshake but stalls on servers that write a
response's headers and body separately (Nagle's algorithm against delayed
ACK), which costs more than the handshake on a loopback or LAN endpoint.
Proxies come from the ``*_proxy``/``no_proxy`` environment variables,
which urllib's default opener reads once per process. HTTPS is verified
against the system CA store. Redirects are not followed: a 3xx reply is
reported as ``HTTP 3xx``, so the Authorization header never reaches
another host or a plain-http URL (a POST redirected as a GET would not
return a completion anyway).

Decoding knobs beyond the standard chat-completions schema (top_k,
repetition_penalty) are sent as extension fields; servers that do not
recognize them are expected to ignore unknown keys, which vLLM-style
servers do by default. Strict servers may reject them, so the behavior is
per-server, not guaranteed.
"""

from __future__ import annotations

import functools
import http.client
import json
import logging
import math
import os
import threading
import time
import urllib.error
import urllib.request
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

from .errors import ConfigError, DataError, require_integer
from .ingest import ParserSpec, answer_parser

log = logging.getLogger(__name__)

DEFAULT_API_KEY_ENV = "ACTIVE_EVAL_API_KEY"
RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
RETRY_AFTER_STATUS = frozenset({429, 503})


class GenerationError(RuntimeError):
    """A single input failed to produce its k generations."""


@dataclass(frozen=True)
class DecodingConfig:
    """Sampling configuration for the surrogate generations."""

    generations: int = 10
    temperature: float = 0.7
    top_p: float = 0.8
    top_k: int = 20
    presence_penalty: float = 1.5
    repetition_penalty: float = 1.0
    max_new_tokens: int | None = None  # None -> model maximum (field omitted)

    def __post_init__(self):
        require_integer("generations", self.generations)
        if self.generations < 2:
            raise ConfigError(
                f"need at least 2 generations per input, got {self.generations}"
            )
        if not 0 < self.temperature < math.inf:  # NaN fails both comparisons
            raise ConfigError(
                f"temperature must be positive and finite, got {self.temperature}; "
                "greedy decoding would make every generation identical and the "
                "entropy signal empty"
            )
        # a NaN or inf would be sent as an invalid JSON token; the server
        # defines the ranges (a presence penalty may be negative)
        for name in ("top_p", "presence_penalty", "repetition_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout: float = 120.0
    max_retries: int = 3
    retry_backoff: float = 0.5  # seconds, doubled per attempt
    single_request: bool = True  # one n=k call instead of k separate calls
    concurrency: int = 4

    def __post_init__(self):
        if not 0 < self.timeout < math.inf:
            raise ConfigError(f"timeout must be positive and finite, got {self.timeout}")
        if not 0 <= self.retry_backoff < math.inf:
            raise ConfigError(
                f"retry_backoff must be >= 0 and finite, got {self.retry_backoff}"
            )
        require_integer("max_retries", self.max_retries)
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.concurrency < 1:
            raise ConfigError(f"concurrency must be >= 1, got {self.concurrency}")

    @property
    def completions_url(self) -> str:
        return self.base_url.rstrip("/") + "/chat/completions"

    def headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.api_key_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers


def request_payload(
    endpoint: EndpointConfig, prompt: str, decoding: DecodingConfig, n: int
) -> dict:
    payload = {
        "model": endpoint.model,
        "messages": [{"role": "user", "content": prompt}],
        "n": n,
        "temperature": decoding.temperature,
        "top_p": decoding.top_p,
        "top_k": decoding.top_k,
        "presence_penalty": decoding.presence_penalty,
        "repetition_penalty": decoding.repetition_penalty,
    }
    if decoding.max_new_tokens is not None:
        payload["max_tokens"] = decoding.max_new_tokens
    return payload


def generate_k(endpoint: EndpointConfig, prompt: str, decoding: DecodingConfig) -> list:
    """The k completion texts for one prompt, in choice order."""
    if endpoint.single_request:
        payload = request_payload(endpoint, prompt, decoding, decoding.generations)
        body = _post_with_retries(endpoint, json.dumps(payload).encode())
        texts = _choice_texts(body)
        if len(texts) != decoding.generations:
            raise GenerationError(
                f"endpoint returned {len(texts)} choices, expected "
                f"{decoding.generations}"
            )
        return texts
    texts = []
    data = json.dumps(request_payload(endpoint, prompt, decoding, 1)).encode()
    for _ in range(decoding.generations):
        body = _post_with_retries(endpoint, data)
        choice = _choice_texts(body)
        if not choice:
            raise GenerationError("endpoint returned no choices")
        texts.append(choice[0])
    return texts


@dataclass(frozen=True)
class BuildStats:
    completed: int
    failed: int
    skipped: int


def build_pool(
    endpoint: EndpointConfig,
    inputs,
    decoding: DecodingConfig,
    out_path,
    parser: ParserSpec | None = None,
) -> BuildStats:
    """Stream pool records for the inputs to a JSONL file, resumably.

    Each input is a mapping with ``id``, ``prompt`` and optionally
    ``gold_answer``. A completed input appends its record to ``out_path``,
    a quarantined one its id to ``<out_path>.journal``. A resume skips the
    ids on either file's complete lines, after cutting off a last line that
    a crash left without its newline. When a parser is
    given the records carry parsed ``surrogate_answers``; otherwise they
    carry the raw ``surrogate_generations``.
    """
    inputs = list(inputs)
    if not inputs:
        raise ConfigError("input set is empty")
    by_id = {}
    for position, item in enumerate(inputs):
        if not (isinstance(item, Mapping) and "id" in item
                and isinstance(item.get("prompt"), str)):
            raise DataError(f"input {position} needs an id and a string prompt")
        input_id = str(item["id"])
        if input_id in by_id:
            raise DataError(f"duplicate input id {input_id!r}")
        by_id[input_id] = item

    journal_path = f"{out_path}.journal"
    settled = _settled_ids(out_path, by_id) | _settled_ids(journal_path, by_id)
    pending = [item for item in inputs if str(item["id"]) not in settled]
    skipped = len(inputs) - len(pending)

    parse = None if parser is None else answer_parser(parser)
    completed = failed = 0
    write_lock = threading.Lock()
    with open(out_path, "a", encoding="utf-8") as out_fh, open(
        journal_path, "a", encoding="utf-8"
    ) as journal_fh, ThreadPoolExecutor(max_workers=endpoint.concurrency) as pool:
        futures = {
            pool.submit(generate_k, endpoint, item["prompt"], decoding): item
            for item in pending
        }
        for future in as_completed(futures):
            item = futures[future]
            line = {"id": str(item["id"])}
            try:
                texts = future.result()
            except Exception as exc:
                log.warning("input %s quarantined: %s", line["id"], exc)
                line["status"] = "failed"
                fh = journal_fh
                failed += 1
            else:
                if parse is not None:
                    line["surrogate_answers"] = list(map(parse, texts))
                else:
                    line["surrogate_generations"] = texts
                if item.get("gold_answer") is not None:
                    line["gold_answer"] = item["gold_answer"]
                fh = out_fh
                completed += 1
            with write_lock:
                fh.write(json.dumps(line) + "\n")
                fh.flush()
    return BuildStats(completed=completed, failed=failed, skipped=skipped)


def _post_with_retries(endpoint: EndpointConfig, data: bytes) -> dict:
    request = urllib.request.Request(
        endpoint.completions_url, data, endpoint.headers(), method="POST"
    )
    last_error = None
    retry_after = 0.0
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(max(endpoint.retry_backoff * 2 ** (attempt - 1), retry_after))
        retry_after = 0.0
        try:
            status, headers, body = _post(request, endpoint.timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_error = f"transport error: {exc}"
            continue
        if status in RETRYABLE_STATUS:
            last_error = f"HTTP {status}"
            if status in RETRY_AFTER_STATUS:
                retry_after = _retry_after_seconds(headers, endpoint.timeout)
            continue
        if status != 200:
            text = body.decode("utf-8", errors="replace")
            raise GenerationError(f"HTTP {status}: {text[:200]}")
        try:
            return json.loads(body)
        except ValueError as exc:
            raise GenerationError(f"endpoint returned invalid JSON: {exc}") from exc
    raise GenerationError(
        f"retries exhausted after {endpoint.max_retries + 1} attempts ({last_error})"
    )


def _post(request: urllib.request.Request, timeout: float) -> tuple:
    """(status, headers, body) of one request; an HTTP error status is a
    response too. Transport failures raise ``OSError`` (a ``URLError`` that
    is not an ``HTTPError``, timeouts, resets) or
    ``http.client.HTTPException``."""
    try:
        with _opener().open(request, timeout=timeout) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.headers, exc.read()


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Leave every 3xx to the default error handler, which raises it as an
    ``HTTPError``."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


@functools.cache
def _opener() -> urllib.request.OpenerDirector:
    # built on first use, like urlopen's default opener, so the proxy
    # variables are read at the first request rather than at import
    return urllib.request.build_opener(_NoRedirect)


def _retry_after_seconds(headers, cap: float) -> float:
    """A ``Retry-After`` given in seconds, capped; 0 when absent, an
    HTTP-date or malformed."""
    try:
        seconds = float(headers.get("Retry-After", ""))
    except ValueError:
        return 0.0
    return min(seconds, cap) if math.isfinite(seconds) and seconds > 0 else 0.0


def _choice_texts(body: dict) -> list:
    try:
        choices = sorted(body["choices"], key=lambda c: c.get("index", 0))
        return [c["message"]["content"] for c in choices]
    except (KeyError, TypeError) as exc:
        raise GenerationError(f"malformed completion response: {exc}") from exc


def _settled_ids(path, by_id: dict) -> set:
    """Ids on the complete lines of a JSONL file, read line by line. A last
    line without its newline is a write cut short and is cut off first."""
    settled = set()
    if not os.path.exists(path):
        return settled
    with open(path, "r+b") as fh:
        complete = 0  # bytes up to the end of the last complete line
        for line_no, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                fh.truncate(complete)
                break
            complete += len(line)
            if not line.strip():
                continue
            try:
                entry_id = str(json.loads(line)["id"])
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{line_no}: malformed line: {exc}") from exc
            if entry_id not in by_id:
                raise DataError(
                    f"{path}:{line_no}: unknown input {entry_id!r}; "
                    "stale journal for a different input set"
                )
            settled.add(entry_id)
    return settled
