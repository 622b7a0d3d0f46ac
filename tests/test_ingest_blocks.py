import json
import random

import pytest

import active_eval.ingest as ingest
from active_eval import DataError, load_pool


def _records(count, rng):
    return [
        {"id": f"r{i}", "surrogate_answers": [rng.choice("ABCD") * rng.randint(1, 40), "B"],
         "target_loss": rng.random()}
        for i in range(count)
    ]


def _outcome(path):
    try:
        pool, stats = load_pool(path)
    except DataError as exc:
        return str(exc)
    return pool.ids, pool.answer_lists(), pool.loss_vector().tolist(), stats


def _bodies(rng):
    """Files whose lines cross block boundaries: plain, with "\\r" and "\\r\\n"
    endings in some stretches, with blank lines and a line of spaces, and
    broken by bytes that are not UTF-8, by a BOM or by a bad record late
    in the file."""
    lines = [json.dumps(r).encode() for r in _records(60, rng)]
    lines[10:10] = [b"", b"   "]
    yield b"\n".join(lines) + b"\n"
    yield b"\n".join(lines)  # no newline at the end
    ends = [rng.choice([b"\n", b"\n", b"\r\n", b"\r"]) for _ in lines]
    yield b"".join(line + end for line, end in zip(lines, ends))
    for bad in (b'{"id": "\xff"}', "﻿".encode() + lines[0], b'{"id": "x"'):
        broken = list(lines)
        broken[47] = bad
        yield b"\n".join(broken) + b"\n"
        yield b"".join(line + end for line, end in zip(broken, ends))


@pytest.mark.parametrize("block", [1, 7, 100, 1000])
def test_small_read_blocks_give_the_same_pool_or_error(tmp_path, monkeypatch, block):
    # blocks cut after a "\n" must not change a record, a line number or an
    # error message, whatever the block size
    rng = random.Random(block)
    path = tmp_path / "pool.jsonl"
    for body in _bodies(rng):
        path.write_bytes(body)
        expected = _outcome(path)
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_READ_BLOCK", block)
            assert _outcome(path) == expected


def test_blocks_end_after_a_newline_and_cover_the_range(tmp_path, monkeypatch):
    path = tmp_path / "lines.bin"
    data = b"ab\ncdefgh\n\nij\r\nklmnopqrstu\nv"
    path.write_bytes(data)
    for block in (1, 2, 5, 64):
        monkeypatch.setattr(ingest, "_READ_BLOCK", block)
        for size in (len(data), 16):
            with open(path, "rb") as fh:
                pieces = list(ingest._blocks(fh, size))
            assert b"".join(pieces) == data[:size]
            assert all(p.endswith(b"\n") for p in pieces[:-1])
            # only a line longer than a read makes a block longer than two
            assert all(len(p) <= 2 * block or max(map(len, p.split(b"\n"))) > block
                       for p in pieces)
