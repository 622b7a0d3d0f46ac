import contextlib
import json
import math
import os
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import active_eval
from active_eval import (
    BuildStats,
    ConfigError,
    DataError,
    DecodingConfig,
    EndpointConfig,
    ParserSpec,
    build_pool,
    generate_k,
    load_pool,
)
from active_eval import genclient
from active_eval.genclient import GenerationError, request_payload


def endpoint(server, **kwargs):
    defaults = dict(
        base_url=server.base_url,
        model="surrogate-test",
        timeout=5.0,
        max_retries=3,
        retry_backoff=0.001,
        concurrency=2,
    )
    defaults.update(kwargs)
    return EndpointConfig(**defaults)


def test_decoding_defaults_match_reported_configuration():
    decoding = DecodingConfig()
    assert decoding.generations == 10
    assert decoding.temperature == 0.7
    assert decoding.top_p == 0.8
    assert decoding.top_k == 20
    assert decoding.presence_penalty == 1.5
    assert decoding.repetition_penalty == 1.0
    assert decoding.max_new_tokens is None


def test_config_validation():
    with pytest.raises(ConfigError):
        DecodingConfig(generations=1)
    with pytest.raises(ConfigError):
        DecodingConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        EndpointConfig(base_url="x", model="m", timeout=0)
    with pytest.raises(ConfigError):
        EndpointConfig(base_url="x", model="m", max_retries=-1)
    # NaN and inf would fail every request or be sent as invalid JSON
    for value in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="temperature"):
            DecodingConfig(temperature=value)
        with pytest.raises(ConfigError, match="timeout"):
            EndpointConfig(base_url="x", model="m", timeout=value)
    for value in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="retry_backoff"):
            EndpointConfig(base_url="x", model="m", retry_backoff=value)
    EndpointConfig(base_url="x", model="m", retry_backoff=0.0)
    # the server defines their ranges, but a NaN or inf is no JSON number
    for name in ("top_p", "presence_penalty", "repetition_penalty"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=name):
                DecodingConfig(**{name: value})
    DecodingConfig(presence_penalty=-2.0)


def test_generations_must_be_an_integer():
    # 2.5 would quarantine every input: "endpoint returned 2 choices, expected 2.5"
    with pytest.raises(ConfigError, match="generations must be an integer"):
        DecodingConfig(generations=2.5)
    assert DecodingConfig(generations=np.int64(3)).generations == 3


def test_max_retries_must_be_an_integer():
    # 1.5 would quarantine every input when range() is handed a float
    with pytest.raises(ConfigError, match="max_retries must be an integer"):
        EndpointConfig(base_url="x", model="m", max_retries=1.5)
    assert EndpointConfig(base_url="x", model="m", max_retries=np.int64(2)).max_retries == 2


def test_payload_carries_decoding_fields_exactly():
    ep = EndpointConfig(base_url="http://h/v1", model="m")
    payload = request_payload(ep, "prompt", DecodingConfig(), 10)
    assert payload["temperature"] == 0.7
    assert payload["top_p"] == 0.8
    assert payload["top_k"] == 20
    assert payload["presence_penalty"] == 1.5
    assert payload["repetition_penalty"] == 1.0
    assert payload["n"] == 10
    assert "max_tokens" not in payload  # absent means model maximum
    limited = request_payload(ep, "p", DecodingConfig(max_new_tokens=64), 2)
    assert limited["max_tokens"] == 64


def test_generate_k_single_request(mock_server):
    mock_server.script.append([f"text {i}" for i in range(10)])
    texts = generate_k(endpoint(mock_server), "What is 2+2?", DecodingConfig())
    assert texts == [f"text {i}" for i in range(10)]
    assert len(mock_server.requests) == 1
    request = mock_server.requests[0]
    assert request["path"] == "/v1/chat/completions"
    assert request["payload"]["messages"] == [
        {"role": "user", "content": "What is 2+2?"}
    ]


def test_generate_k_separate_requests(mock_server):
    texts = generate_k(
        endpoint(mock_server, single_request=False),
        "q",
        DecodingConfig(generations=3),
    )
    assert len(texts) == 3
    assert len(mock_server.requests) == 3
    assert all(r["payload"]["n"] == 1 for r in mock_server.requests)


def test_build_pool_completion_accounting_per_request_mode(mock_server, tmp_path):
    # inputs x k completions, each requested at most once on a clean run
    out = tmp_path / "pool.jsonl"
    inputs = [{"id": f"q{i}", "prompt": f"p{i}"} for i in range(3)]
    stats = build_pool(
        endpoint(mock_server, single_request=False, concurrency=1),
        inputs,
        DecodingConfig(generations=4),
        out,
    )
    assert stats.completed == 3
    assert len(mock_server.requests) == 3 * 4


def test_auth_header_from_environment(mock_server, monkeypatch):
    monkeypatch.setenv("ACTIVE_EVAL_API_KEY", "sk-secret")
    generate_k(endpoint(mock_server), "q", DecodingConfig(generations=2))
    assert mock_server.requests[-1]["headers"]["Authorization"] == "Bearer sk-secret"


def test_retry_then_succeed_on_rate_limit(mock_server):
    mock_server.script.extend([429, 429, ["ok"]])
    texts = generate_k(endpoint(mock_server), "q", DecodingConfig(generations=2))
    assert texts == ["ok", "ok"]
    assert len(mock_server.requests) == 3


def test_retry_exhaustion_raises(mock_server):
    mock_server.script.extend([503, 503, 503, 503])
    with pytest.raises(GenerationError, match="retries exhausted"):
        generate_k(endpoint(mock_server), "q", DecodingConfig(generations=2))
    assert len(mock_server.requests) == 4  # initial try plus three retries


def test_non_transient_error_fails_fast(mock_server):
    mock_server.script.append(400)
    with pytest.raises(GenerationError, match="HTTP 400"):
        generate_k(endpoint(mock_server), "q", DecodingConfig(generations=2))
    assert len(mock_server.requests) == 1


def test_build_pool_writes_ingestible_records(mock_server, tmp_path):
    out = tmp_path / "pool.jsonl"
    inputs = [
        {"id": "q1", "prompt": "first?", "gold_answer": "A"},
        {"id": "q2", "prompt": "second?", "gold_answer": "B"},
    ]
    mock_server.default_texts = ["The answer is (A)."]
    stats = build_pool(
        endpoint(mock_server), inputs, DecodingConfig(generations=4), out
    )
    assert stats.completed == 2 and stats.failed == 0 and stats.skipped == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert {r["id"] for r in records} == {"q1", "q2"}
    assert all(len(r["surrogate_generations"]) == 4 for r in records)
    assert all(r["gold_answer"] in {"A", "B"} for r in records)
    pool, _ = load_pool(out, parser=ParserSpec(kind="mc_letter"), require_loss=False)
    assert pool.size == 2


def test_build_pool_with_parser_writes_canonical_answers(mock_server, tmp_path):
    out = tmp_path / "pool.jsonl"
    mock_server.default_texts = ["The answer is (C)."]
    build_pool(
        endpoint(mock_server),
        [{"id": "q1", "prompt": "p"}],
        DecodingConfig(generations=3),
        out,
        parser=ParserSpec(kind="mc_letter"),
    )
    record = json.loads(out.read_text().splitlines()[0])
    assert record["surrogate_answers"] == ["C", "C", "C"]
    assert "surrogate_generations" not in record


def test_build_pool_quarantines_failing_input(mock_server, tmp_path):
    out = tmp_path / "pool.jsonl"
    ep = endpoint(mock_server, max_retries=0, concurrency=1)
    mock_server.script.append(400)  # first input fails outright
    stats = build_pool(
        ep,
        [{"id": "bad", "prompt": "a"}, {"id": "good", "prompt": "b"}],
        DecodingConfig(generations=2),
        out,
    )
    assert stats.completed == 1 and stats.failed == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in records] == ["good"]
    journal = [json.loads(line) for line in (tmp_path / "pool.jsonl.journal").read_text().splitlines()]
    assert {(e["id"], e["status"]) for e in journal} == {("bad", "failed")}


def test_build_pool_resume_skips_completed_inputs(mock_server, tmp_path):
    out = tmp_path / "pool.jsonl"
    inputs = [{"id": f"q{i}", "prompt": f"p{i}"} for i in range(3)]
    ep = endpoint(mock_server, concurrency=1)
    build_pool(ep, inputs, DecodingConfig(generations=2), out)
    first_run_requests = len(mock_server.requests)
    assert first_run_requests == 3

    stats = build_pool(ep, inputs, DecodingConfig(generations=2), out)
    assert stats.skipped == 3 and stats.completed == 0
    assert len(mock_server.requests) == first_run_requests  # no duplicate requests
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 3  # no duplicate records either


def test_build_pool_stale_journal_rejected(mock_server, tmp_path):
    out = tmp_path / "pool.jsonl"
    journal = tmp_path / "pool.jsonl.journal"
    journal.write_text('{"id": "other", "status": "done"}\n')
    with pytest.raises(DataError, match="stale journal"):
        build_pool(
            endpoint(mock_server),
            [{"id": "q1", "prompt": "p"}],
            DecodingConfig(generations=2),
            out,
        )


def record_line(input_id):
    return json.dumps({"id": input_id, "surrogate_generations": ["A", "B"]}) + "\n"


def requested_prompts(server):
    return sorted(r["payload"]["messages"][0]["content"] for r in server.requests)


def test_resume_skips_a_record_that_has_no_journal_entry(mock_server, tmp_path):
    # a kill after q0's and q1's records were written, before any journal write
    out = tmp_path / "pool.jsonl"
    out.write_text(record_line("q0") + record_line("q1"))
    inputs = [{"id": f"q{i}", "prompt": f"p{i}"} for i in range(3)]
    stats = build_pool(endpoint(mock_server), inputs, DecodingConfig(generations=2), out)
    assert stats == BuildStats(completed=1, failed=0, skipped=2)
    assert requested_prompts(mock_server) == ["p2"]
    ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
    assert ids == ["q0", "q1", "q2"]
    pool, _ = load_pool(out, parser=ParserSpec(kind="exact_match"), require_loss=False)
    assert pool.size == 3


def test_resume_cuts_off_a_torn_record_line(mock_server, tmp_path):
    out = tmp_path / "pool.jsonl"
    out.write_text(record_line("q0") + record_line("q1")[:12])
    inputs = [{"id": f"q{i}", "prompt": f"p{i}"} for i in range(3)]
    stats = build_pool(
        endpoint(mock_server, concurrency=1), inputs, DecodingConfig(generations=2), out
    )
    assert stats == BuildStats(completed=2, failed=0, skipped=1)
    assert requested_prompts(mock_server) == ["p1", "p2"]
    assert out.read_text().startswith(record_line("q0") + '{"id": "q1", "surrogate')
    pool, _ = load_pool(out, parser=ParserSpec(kind="exact_match"), require_loss=False)
    assert sorted(pool.ids) == ["q0", "q1", "q2"]


def test_resume_cuts_off_a_torn_journal_line(mock_server, tmp_path):
    out = tmp_path / "pool.jsonl"
    journal = tmp_path / "pool.jsonl.journal"
    failed = json.dumps({"id": "q0", "status": "failed"}) + "\n"
    journal.write_text(failed + '{"id": "q1", "sta')
    inputs = [{"id": f"q{i}", "prompt": f"p{i}"} for i in range(2)]
    stats = build_pool(endpoint(mock_server), inputs, DecodingConfig(generations=2), out)
    assert stats == BuildStats(completed=1, failed=0, skipped=1)
    assert requested_prompts(mock_server) == ["p1"]
    assert journal.read_text() == failed


@pytest.mark.parametrize("bad_line", ["not json\n", '{"status": "failed"}\n', "[1]\n"])
def test_resume_rejects_a_complete_malformed_line(mock_server, tmp_path, bad_line):
    out = tmp_path / "pool.jsonl"
    journal = tmp_path / "pool.jsonl.journal"
    inputs = [{"id": "q0", "prompt": "p0"}, {"id": "q1", "prompt": "p1"}]
    decoding = DecodingConfig(generations=2)
    out.write_text(record_line("q0") + bad_line)
    with pytest.raises(DataError, match=re.escape(f"{out}:2: malformed line")):
        build_pool(endpoint(mock_server), inputs, decoding, out)
    out.write_text(record_line("q0"))
    journal.write_text(bad_line)
    with pytest.raises(DataError, match=re.escape(f"{journal}:1: malformed line")):
        build_pool(endpoint(mock_server), inputs, decoding, out)
    assert mock_server.requests == []


def test_build_pool_stale_output_rejected(mock_server, tmp_path):
    out = tmp_path / "pool.jsonl"
    out.write_text(record_line("other"))
    with pytest.raises(DataError, match="pool.jsonl:1: unknown input 'other'"):
        build_pool(
            endpoint(mock_server),
            [{"id": "q1", "prompt": "p"}],
            DecodingConfig(generations=2),
            out,
        )
    assert out.read_text() == record_line("other")


def test_resume_counts_done_entries_of_an_older_journal(mock_server, tmp_path):
    out = tmp_path / "pool.jsonl"
    out.write_text(record_line("q0"))
    (tmp_path / "pool.jsonl.journal").write_text(
        json.dumps({"id": "q0", "status": "done"}) + "\n"
    )
    stats = build_pool(
        endpoint(mock_server),
        [{"id": "q0", "prompt": "p0"}],
        DecodingConfig(generations=2),
        out,
    )
    assert stats == BuildStats(completed=0, failed=0, skipped=1)
    assert mock_server.requests == []


@pytest.mark.parametrize(
    "bad_input", [{"prompt": "p"}, {"id": "b"}, {"id": "b", "prompt": None}, "b"]
)
def test_build_pool_checks_inputs_before_any_request(mock_server, tmp_path, bad_input):
    out = tmp_path / "pool.jsonl"
    with pytest.raises(DataError, match="input 1 "):
        build_pool(
            endpoint(mock_server),
            [{"id": "a", "prompt": "x"}, bad_input],
            DecodingConfig(generations=2),
            out,
        )
    assert mock_server.requests == []


def test_build_pool_rejects_empty_and_duplicate_inputs(mock_server, tmp_path):
    out = tmp_path / "pool.jsonl"
    with pytest.raises(ConfigError, match="empty"):
        build_pool(endpoint(mock_server), [], DecodingConfig(generations=2), out)
    with pytest.raises(DataError, match="duplicate input id"):
        build_pool(
            endpoint(mock_server),
            [{"id": "a", "prompt": "x"}, {"id": "a", "prompt": "y"}],
            DecodingConfig(generations=2),
            out,
        )


@pytest.fixture
def sleeps(monkeypatch):
    """Record the client's backoff sleeps instead of sleeping."""
    recorded = []
    monkeypatch.setattr(genclient, "time", SimpleNamespace(sleep=recorded.append))
    return recorded


@contextlib.contextmanager
def raw_peer(serve):
    """A loopback listener whose accepted connections ``serve`` handles.

    Yields the endpoint's base URL and a list of the connections accepted.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    accepted = []
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            accepted.append(conn)
            serve(conn)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/v1", accepted
    finally:
        stop.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        for conn in accepted:
            conn.close()
        listener.close()


def raw_endpoint(base_url, **kwargs):
    defaults = dict(base_url=base_url, model="m", max_retries=2, retry_backoff=0.001)
    defaults.update(kwargs)
    return EndpointConfig(**defaults)


def test_refused_connection_is_retried_then_exhausted(sleeps):
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    ep = raw_endpoint(f"http://127.0.0.1:{port}/v1", max_retries=3)
    with pytest.raises(
        GenerationError, match=r"retries exhausted after 4 attempts \(transport error"
    ):
        generate_k(ep, "q", DecodingConfig(generations=2))
    assert sleeps == [0.001, 0.002, 0.004]


def test_silent_peer_times_out_and_is_retried():
    with raw_peer(lambda conn: None) as (base_url, accepted):
        ep = raw_endpoint(base_url, timeout=0.2, max_retries=1)
        with pytest.raises(GenerationError, match="retries exhausted.*transport error"):
            generate_k(ep, "q", DecodingConfig(generations=2))
    assert len(accepted) == 2


def test_peer_closing_without_status_line_is_retried():
    def hang_up(conn):
        conn.recv(65536)
        conn.close()

    with raw_peer(hang_up) as (base_url, accepted):
        with pytest.raises(GenerationError, match="retries exhausted.*transport error"):
            generate_k(raw_endpoint(base_url), "q", DecodingConfig(generations=2))
    assert len(accepted) == 3


def test_non_json_success_body_fails_after_one_request(mock_server):
    mock_server.script.append((200, b"<html>gateway</html>", {"Content-Type": "text/html"}))
    with pytest.raises(GenerationError, match="invalid JSON"):
        generate_k(endpoint(mock_server), "q", DecodingConfig(generations=2))
    assert len(mock_server.requests) == 1


def test_client_error_body_appears_in_message(mock_server):
    mock_server.script.append((404, b'{"error": "no model named m"}', {}))
    message = 'HTTP 404: {"error": "no model named m"}'
    with pytest.raises(GenerationError, match=re.escape(message)):
        generate_k(endpoint(mock_server), "q", DecodingConfig(generations=2))
    assert len(mock_server.requests) == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirect_is_reported_and_not_followed(
    mock_server, second_server, monkeypatch, status
):
    monkeypatch.setenv("ACTIVE_EVAL_API_KEY", "sk-secret")
    location = second_server.base_url + "/chat/completions"
    mock_server.script.append((status, b"moved", {"Location": location}))
    with pytest.raises(GenerationError) as excinfo:
        generate_k(endpoint(mock_server), "q", DecodingConfig(generations=2))
    # neither the API key nor the prompt reaches the redirect target
    assert second_server.requests == []
    assert str(excinfo.value) == f"HTTP {status}: moved"
    assert len(mock_server.requests) == 1


def test_each_request_has_its_own_connection(mock_server, tmp_path):
    mock_server.script.extend([503, 429])
    build_pool(
        endpoint(mock_server, single_request=False, concurrency=1),
        [{"id": f"q{i}", "prompt": f"p{i}"} for i in range(2)],
        DecodingConfig(generations=3),
        tmp_path / "pool.jsonl",
    )
    ports = [r["client_port"] for r in mock_server.requests]
    assert len(ports) == 2 * 3 + 2
    assert len(set(ports)) == len(ports)


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize(
    "retry_after, slept",
    [
        ("0.05", 0.05),  # seconds longer than the backoff are honoured
        ("100", 5.0),  # capped at the request timeout
        ("0", 0.001),  # never shorter than the backoff
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.001),  # HTTP-date: ignored
        ("soon", 0.001),
        ("nan", 0.001),
    ],
)
def test_retry_after_lengthens_the_backoff(mock_server, sleeps, status, retry_after, slept):
    mock_server.script.extend([(status, b"", {"Retry-After": retry_after}), ["ok"]])
    texts = generate_k(endpoint(mock_server), "q", DecodingConfig(generations=2))
    assert texts == ["ok", "ok"]
    assert sleeps == [slept]


def test_retry_after_is_read_only_on_429_and_503(mock_server, sleeps):
    mock_server.script.extend([(500, b"", {"Retry-After": "0.05"}), ["ok"]])
    generate_k(endpoint(mock_server), "q", DecodingConfig(generations=2))
    assert sleeps == [0.001]


def test_import_does_not_load_requests():
    code = "import sys, active_eval; print('requests' in sys.modules)"
    src = Path(active_eval.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
