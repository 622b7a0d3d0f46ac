"""Collect k sampled generations per input from an OpenAI-compatible
chat-completions endpoint and write pool records in the ingest format.

Transient failures (timeouts, HTTP 429 and 5xx) are retried with
exponential backoff; anything else quarantines the input and the batch
moves on, so one bad prompt cannot sink a long collection run. Progress is
journaled per input id, which makes interrupted runs resumable without
re-requesting completed inputs.

Decoding knobs beyond the standard chat-completions schema (top_k,
repetition_penalty) are sent as extension fields; servers that do not
recognize them are expected to ignore unknown keys, which vLLM-style
servers do by default. Strict servers may reject them, so the behavior is
per-server, not guaranteed.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import requests

from .errors import ConfigError, DataError
from .ingest import ParserSpec, answer_parser

log = logging.getLogger(__name__)

DEFAULT_API_KEY_ENV = "ACTIVE_EVAL_API_KEY"
RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})


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
        if self.generations < 2:
            raise ConfigError(
                f"need at least 2 generations per input, got {self.generations}"
            )
        if self.temperature <= 0:
            raise ConfigError(
                "temperature must be positive; greedy decoding would make every "
                "generation identical and the entropy signal empty"
            )


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
        if self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
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


def generate_k(
    endpoint: EndpointConfig,
    prompt: str,
    decoding: DecodingConfig,
    session: requests.Session | None = None,
) -> list:
    """The k completion texts for one prompt, in choice order."""
    session = session or requests
    if endpoint.single_request:
        payload = request_payload(endpoint, prompt, decoding, decoding.generations)
        body = _post_with_retries(endpoint, payload, session)
        texts = _choice_texts(body)
        if len(texts) != decoding.generations:
            raise GenerationError(
                f"endpoint returned {len(texts)} choices, expected "
                f"{decoding.generations}"
            )
        return texts
    texts = []
    payload = request_payload(endpoint, prompt, decoding, 1)
    for _ in range(decoding.generations):
        body = _post_with_retries(endpoint, payload, session)
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
    journal_path=None,
    parser: ParserSpec | None = None,
) -> BuildStats:
    """Stream pool records for the inputs to a JSONL file, resumably.

    Each input is a mapping with ``id``, ``prompt`` and optionally
    ``gold_answer``. A journal file records the terminal status per input;
    on resume, inputs already journaled are skipped, so completed inputs
    are never re-requested. When a parser is given the records carry parsed
    ``surrogate_answers``; otherwise they carry the raw
    ``surrogate_generations``.
    """
    inputs = list(inputs)
    if not inputs:
        raise ConfigError("input set is empty")
    by_id = {}
    for item in inputs:
        input_id = str(item["id"])
        if input_id in by_id:
            raise DataError(f"duplicate input id {input_id!r}")
        by_id[input_id] = item

    journal_path = journal_path or f"{out_path}.journal"
    done = _read_journal(journal_path, by_id)
    pending = [item for item in inputs if str(item["id"]) not in done]
    skipped = len(inputs) - len(pending)

    parse = None if parser is None else answer_parser(parser)
    completed = failed = 0
    write_lock = threading.Lock()
    with open(out_path, "a", encoding="utf-8") as out_fh, open(
        journal_path, "a", encoding="utf-8"
    ) as journal_fh:

        def settle(input_id: str, status: str, record: dict | None):
            # single sequential writer; record lands before its journal entry
            with write_lock:
                if record is not None:
                    out_fh.write(json.dumps(record) + "\n")
                    out_fh.flush()
                journal_fh.write(json.dumps({"id": input_id, "status": status}) + "\n")
                journal_fh.flush()

        def collect(item) -> tuple:
            return str(item["id"]), generate_k(
                endpoint, item["prompt"], decoding
            )

        with ThreadPoolExecutor(max_workers=endpoint.concurrency) as pool:
            futures = {pool.submit(collect, item): item for item in pending}
            for future in as_completed(futures):
                item = futures[future]
                input_id = str(item["id"])
                try:
                    _, texts = future.result()
                except Exception as exc:
                    log.warning("input %s quarantined: %s", input_id, exc)
                    settle(input_id, "failed", None)
                    failed += 1
                    continue
                record = {"id": input_id}
                if parse is not None:
                    record["surrogate_answers"] = list(map(parse, texts))
                else:
                    record["surrogate_generations"] = texts
                if item.get("gold_answer") is not None:
                    record["gold_answer"] = item["gold_answer"]
                settle(input_id, "done", record)
                completed += 1
    return BuildStats(completed=completed, failed=failed, skipped=skipped)


def _post_with_retries(endpoint: EndpointConfig, payload: dict, session) -> dict:
    last_error = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(endpoint.retry_backoff * 2 ** (attempt - 1))
        try:
            response = session.post(
                endpoint.completions_url,
                json=payload,
                headers=endpoint.headers(),
                timeout=endpoint.timeout,
            )
        except (requests.Timeout, requests.ConnectionError) as exc:
            last_error = f"transport error: {exc}"
            continue
        if response.status_code in RETRYABLE_STATUS:
            last_error = f"HTTP {response.status_code}"
            continue
        if response.status_code != 200:
            raise GenerationError(
                f"HTTP {response.status_code}: {response.text[:200]}"
            )
        try:
            return response.json()
        except ValueError as exc:
            raise GenerationError(f"endpoint returned invalid JSON: {exc}") from exc
    raise GenerationError(
        f"retries exhausted after {endpoint.max_retries + 1} attempts ({last_error})"
    )


def _choice_texts(body: dict) -> list:
    try:
        choices = sorted(body["choices"], key=lambda c: c.get("index", 0))
        return [c["message"]["content"] for c in choices]
    except (KeyError, TypeError) as exc:
        raise GenerationError(f"malformed completion response: {exc}") from exc


def _read_journal(journal_path, by_id: dict) -> set:
    settled = set()
    if not os.path.exists(journal_path):
        return settled
    with open(journal_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                entry_id = str(entry["id"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(
                    f"{journal_path}:{line_no}: malformed journal entry: {exc}"
                ) from exc
            if entry_id not in by_id:
                raise DataError(
                    f"{journal_path}:{line_no}: journal mentions unknown input "
                    f"{entry_id!r}; stale journal for a different input set"
                )
            settled.add(entry_id)
    return settled
