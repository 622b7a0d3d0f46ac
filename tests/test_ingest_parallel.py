"""The parallel pool reader: same pools and same errors as one serial pass.

``reference_load_pool`` below is a verbatim copy of the serial
``load_pool`` the parallel reader replaced (with ``_record_loss`` as it was,
before booleans and numeric strings were refused as losses). Splits are
forced by replacing ``ingest._byte_ranges``; most error cases read every
range in-process by making ``os.fork`` fail, which is the reader's fallback,
and a sample of them forks for real.
"""

import json
import os
import random
import threading
import time

import numpy as np
import pytest

from active_eval import DataError, ParserSpec, SynthConfig, export_pool, load_pool
from active_eval import ingest, make_pool, reference_pool
from active_eval.errors import ConfigError
from active_eval.ingest import (
    _BOM_MESSAGE,
    _JSON_WHITESPACE,
    LOSS_RULES,
    IngestStats,
    Pool,
    _label_code,
    _record_answers,
    answer_parser,
)
from active_eval.signals import UNPARSED_LABEL

MC = ParserSpec(kind="mc_letter")
EM = ParserSpec(kind="exact_match")


# -------------------- the serial reader as it was --------------------

def reference_load_pool(
    path,
    parser: ParserSpec | None = None,
    loss_rule: str = "exact_match_accuracy",
    require_loss: bool = True,
) -> tuple[Pool, IngestStats]:
    """Read a JSONL pool file into a Pool plus ingestion statistics.

    With ``loss_rule="exact_match_accuracy"`` a record's loss is derived as
    0/1 exact match between its parsed ``target_generation`` and
    ``gold_answer`` when both are present, falling back to an explicit
    ``target_loss``; with ``loss_rule="provided"`` only ``target_loss`` is
    used. Records missing a loss are rejected unless ``require_loss`` is
    False, in which case the pool is flagged as loss-free and only usable
    for signal/stratification work.

    Structural problems (unreadable JSON, mixed generation counts,
    duplicate ids, missing losses, pre-parsed labels that are not non-empty
    strings) are rejected with the 1-based line number. Parse failures are
    counted in the stats, not treated as an error.

    Answers go straight into the pool's code matrix: each distinct label is
    checked once, when it enters the label table, and no per-record object
    is built. The parsers are bound once per load, and each line is decoded
    by one decoder call, with the messages ``json.loads`` would give.
    """
    if loss_rule not in LOSS_RULES:
        raise ConfigError(
            f"unknown loss rule {loss_rule!r}; expected one of {LOSS_RULES}"
        )
    parse = None if parser is None else answer_parser(parser)
    parse_target = None
    if loss_rule == "exact_match_accuracy":
        parse_target = parse or answer_parser(ParserSpec(kind="exact_match"))
    decode = json.JSONDecoder().raw_decode
    code_of: dict = {}
    code = code_of.__getitem__
    codes = []
    ids = []
    losses = []
    expected_k = None
    losses_present = True
    ids_seen: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip(_JSON_WHITESPACE)
            if not text or text.isspace():
                continue
            try:
                # json.loads tests for a BOM before it skips whitespace
                if line[0] == "\ufeff":
                    raise json.JSONDecodeError(_BOM_MESSAGE, line, 0)
                record, end = decode(text)
                if end != len(text):
                    raise json.JSONDecodeError("Extra data", text, end)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: not valid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise DataError(f"{path}:{line_no}: record is not a JSON object")
            answers = _record_answers(record, parse, path, line_no)
            try:
                row = list(map(code, answers))
            except (KeyError, TypeError):
                row = [_label_code(code_of, a, path, line_no) for a in answers]
            if expected_k is None:
                expected_k = len(row)
                if expected_k < 2:
                    raise DataError(
                        f"{path}:{line_no}: need at least 2 generations per record, "
                        f"got {expected_k}"
                    )
            elif len(row) != expected_k:
                raise DataError(
                    f"{path}:{line_no}: record has {len(row)} generations, "
                    f"expected k={expected_k}"
                )
            codes += row
            loss = _reference_record_loss(record, parse_target, path, line_no, require_loss)
            if loss is None:
                losses_present = False
                loss = 0.0
            losses.append(loss)
            record_id = record.get("id")
            if record_id is None:
                raise DataError(f"{path}:{line_no}: record has no id")
            record_id = str(record_id)
            if record_id in ids_seen:
                raise DataError(
                    f"{path}:{line_no}: duplicate id {record_id!r} "
                    f"(first seen on line {ids_seen[record_id]})"
                )
            ids_seen[record_id] = line_no
            ids.append(record_id)
    if not ids:
        raise DataError(f"{path}: no records found")
    codes = np.array(codes, dtype=np.int32).reshape(len(ids), expected_k)
    unparsed = code_of.get(UNPARSED_LABEL)
    stats = IngestStats(
        records=len(ids),
        generations=codes.size,
        parse_failures=0 if unparsed is None else int(np.count_nonzero(codes == unparsed)),
        has_losses=losses_present,
    )
    return Pool(ids, codes, code_of, losses), stats


def _reference_record_loss(record, parse_target, path, line_no, require_loss):
    """Loss of one record; ``parse_target`` is None under the "provided" rule."""
    target_generation = record.get("target_generation")
    gold = record.get("gold_answer")
    if parse_target is not None and target_generation is not None and gold is not None:
        predicted = parse_target(target_generation)
        expected = parse_target(str(gold))
        return 0.0 if (predicted == expected and predicted != UNPARSED_LABEL) else 1.0
    loss = record.get("target_loss")
    if loss is None:
        if require_loss:
            raise DataError(
                f"{path}:{line_no}: record has no usable target loss "
                "(need target_loss, or gold_answer plus target_generation)"
            )
        return None
    try:
        loss = float(loss)
    except (TypeError, ValueError):
        raise DataError(f"{path}:{line_no}: target_loss {loss!r} is not a number") from None
    if not 0.0 <= loss <= 1.0:
        raise DataError(f"{path}:{line_no}: target_loss {loss} outside [0, 1]")
    return loss


def outcome(load, path, **kwargs):
    """What a load gives: the pool's columns and stats, or the error."""
    try:
        pool, stats = load(path, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    return (pool.ids, pool.codes.tobytes(), pool.codes.shape, pool.labels,
            pool.loss_vector().tobytes(), stats)


def force_ranges(monkeypatch, bounds):
    """Make every load cut its file at the byte offsets ``bounds``."""
    def ranges(path):
        size = os.path.getsize(path)
        cuts = [0] + list(bounds) + [size]
        return list(zip(cuts, cuts[1:]))
    monkeypatch.setattr(ingest, "_byte_ranges", ranges)


def no_fork(monkeypatch):
    """Make forking fail, so every range is read in-process."""
    def fork():
        raise OSError("fork disabled by the test")
    monkeypatch.setattr(os, "fork", fork)


def line_ends(data: bytes) -> list:
    """Offsets just after each line ending, as text mode splits lines."""
    ends = []
    for i, byte in enumerate(data):
        if byte == 10 or (byte == 13 and data[i + 1:i + 2] != b"\n"):
            ends.append(i + 1)
    return [end for end in ends if end < len(data)]


PHRASES = ("The answer is ({}).", "I think it is {}", "Final: [{}]", "{}", "no idea")


def write_raw(path, size, seed):
    """A raw-text pool file from a synthetic pool, with gold answers."""
    pool = make_pool(SynthConfig(size=size, seed=seed))
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for inst, loss in zip(pool.instances, pool.loss_vector()):
            gold = rng.choice("ABCD")
            record = {
                "id": inst.id,
                "surrogate_generations": [rng.choice(PHRASES).format(a)
                                          for a in inst.surrogate_answers],
                "gold_answer": gold,
                "target_generation": f"The answer is {gold if loss == 0 else 'E'}",
                "target_loss": float(loss),
            }
            fh.write(json.dumps(record) + "\n")
    return path


@pytest.fixture(scope="module")
def pool_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pools")
    raw = write_raw(root / "raw.jsonl", 300, 5)
    canonical = root / "canonical.jsonl"
    export_pool(reference_load_pool(raw, parser=MC)[0], canonical)
    reference = root / "reference.jsonl"
    export_pool(reference_pool(), reference)
    return {
        "raw": (raw, dict(parser=MC)),
        "canonical": (canonical, {}),
        "reference": (reference, {}),
        "exact_match": (raw, dict(parser=EM)),
        "provided": (raw, dict(parser=MC, loss_rule="provided")),
    }


@pytest.mark.parametrize("name", ["raw", "canonical", "reference", "exact_match", "provided"])
def test_pools_match_the_serial_reference(pool_files, name, monkeypatch, capfd):
    path, kwargs = pool_files[name]
    expected = outcome(reference_load_pool, path, **kwargs)
    assert not isinstance(expected[0], type)
    assert outcome(load_pool, path, **kwargs) == expected  # unsplit
    # the file's own cut, one reader per CPU of a three-CPU mask; only the
    # raw file forks, since every fork slows the tests that follow it
    monkeypatch.setattr(ingest, "_CHUNK_FLOOR", 1024)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert len(ingest._byte_ranges(path)) == 3
    if name != "raw":
        no_fork(monkeypatch)
    assert outcome(load_pool, path, **kwargs) == expected
    assert capfd.readouterr().out == ""  # the readers print nothing
    # lopsided cuts, after the first line and before the last
    no_fork(monkeypatch)
    ends = line_ends(path.read_bytes())
    force_ranges(monkeypatch, [ends[0], ends[len(ends) // 2], ends[-1]])
    assert outcome(load_pool, path, **kwargs) == expected


def test_byte_ranges_cut_after_newlines_one_per_cpu(tmp_path, monkeypatch):
    path = tmp_path / "pool.jsonl"
    line = json.dumps({"id": "x" * 80, "surrogate_answers": ["A", "B"], "target_loss": 0})
    path.write_text((line + "\n") * 400)
    data = path.read_bytes()
    monkeypatch.setattr(ingest, "_CHUNK_FLOOR", 4096)
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        ranges = ingest._byte_ranges(path)
        if cpus == 1:
            assert ranges == [(0, None)]
            continue
        assert len(ranges) == min(cpus, len(data) // 4096)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end == start and data[end - 1:end] == b"\n"


def test_small_files_threads_and_other_platforms_read_in_process(tmp_path, monkeypatch):
    path = tmp_path / "pool.jsonl"
    line = json.dumps({"id": "x" * 80, "surrogate_answers": ["A", "B"], "target_loss": 0})
    path.write_text((line + "\n") * 400)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert ingest._byte_ranges(path) == [(0, None)]  # below two floors
    monkeypatch.setattr(ingest, "_CHUNK_FLOOR", 4096)
    assert len(ingest._byte_ranges(path)) == 2
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert ingest._byte_ranges(path) == [(0, None)]
    finally:
        stop.set()
        worker.join()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert ingest._byte_ranges(path) == [(0, None)]
    assert ingest._byte_ranges(tmp_path / "missing.jsonl") == [(0, None)]


GOOD_ROWS = [["A", "B", "A"], ["B", "B", "C"], ["C", "A", "D"], ["D", "D", "D"]]


def corrupt_file(rng):
    """Lines of a small pool file with one corruption placed at random."""
    n = rng.randint(3, 9)
    lines = [
        json.dumps({"id": f"r{i}", "surrogate_answers": rng.choice(GOOD_ROWS),
                    "target_loss": rng.choice([0, 1, 0.25])})
        for i in range(n)
    ]
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "  ", "\t"]))
    at = rng.randrange(len(lines) + 1)
    kind = rng.choice(["duplicate", "k", "label", "loss", "no_loss", "no_id", "json",
                       "bom", "blank_only", "none"])
    record = {"id": f"x{at}", "surrogate_answers": ["A", "B", "C"], "target_loss": 0}
    if kind == "duplicate":
        record["id"] = f"r{rng.randrange(n)}"
    elif kind == "k":
        record["surrogate_answers"] = ["A", "B"] if rng.random() < 0.5 else ["A"]
    elif kind == "label":
        record["surrogate_answers"] = ["A", rng.choice(["", None, 3]), "B"]
    elif kind == "loss":
        record["target_loss"] = rng.choice([1.5, -0.1, "high", None])
    elif kind == "no_loss":
        del record["target_loss"]
    elif kind == "no_id":
        del record["id"]
    text = json.dumps(record)
    if kind == "json":
        text = text[:rng.randrange(1, len(text))]
    elif kind == "bom":
        text = "﻿" + text
    if kind == "blank_only":
        lines = [rng.choice(["", " "]) for _ in lines]
    elif kind != "none":
        lines.insert(at, text)
    return lines


STYLES = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


def render(lines, style, rng):
    if style == "mixed":
        return "".join(line + rng.choice(list(STYLES.values())) for line in lines)
    ending = STYLES[style]
    body = ending.join(lines)
    return body + ending if rng.random() < 0.8 else body


@pytest.mark.parametrize("style", ["lf", "crlf", "cr", "mixed"])
def test_errors_match_the_serial_reference_at_every_cut(tmp_path, monkeypatch, style):
    rng = random.Random(f"cuts-{style}")
    path = tmp_path / "pool.jsonl"
    no_fork(monkeypatch)
    for _ in range(20):
        data = render(corrupt_file(rng), style, rng).encode("utf-8")
        path.write_bytes(data)
        # tiny blocks put "\r\n" pairs across the line counter's block edges
        monkeypatch.setattr(ingest, "_COUNT_BLOCK", rng.choice([1, 2, 3, 1 << 16]))
        monkeypatch.setattr(ingest, "_byte_ranges", lambda p: [(0, None)])
        expected = outcome(reference_load_pool, path)
        assert outcome(load_pool, path) == expected
        ends = line_ends(data)
        for cut in ends:
            force_ranges(monkeypatch, [cut])
            assert outcome(load_pool, path) == expected, (data, cut)
        if len(ends) >= 2:
            force_ranges(monkeypatch, sorted(rng.sample(ends, 2)))
            assert outcome(load_pool, path) == expected, data


def test_errors_match_the_serial_reference_with_forked_readers(tmp_path, monkeypatch):
    rng = random.Random("forked")
    path = tmp_path / "pool.jsonl"
    for _ in range(3):
        data = render(corrupt_file(rng), rng.choice(["lf", "crlf", "mixed"]), rng)
        path.write_bytes(data.encode("utf-8"))
        monkeypatch.setattr(ingest, "_byte_ranges", lambda p: [(0, None)])
        expected = outcome(reference_load_pool, path)
        ends = line_ends(path.read_bytes())
        force_ranges(monkeypatch, [rng.choice(ends)])
        assert outcome(load_pool, path) == expected, data


def test_invalid_utf8_in_a_later_chunk_names_its_line(tmp_path, monkeypatch):
    lines = [json.dumps({"id": f"r{i}", "surrogate_answers": ["A", "B"], "target_loss": 0})
             for i in range(6)]
    data = ("\n".join(lines) + "\n").encode().replace(b'"r4"', b'"r\xff4"')
    path = tmp_path / "pool.jsonl"
    path.write_bytes(data)
    no_fork(monkeypatch)
    force_ranges(monkeypatch, [line_ends(data)[2]])
    with pytest.raises(DataError) as info:
        load_pool(path)
    assert str(info.value).startswith(f"{path}:5: not valid UTF-8")


def test_a_reader_that_dies_is_reported_and_reaped(tmp_path, monkeypatch):
    path = write_raw(tmp_path / "raw.jsonl", 40, 1)
    read = ingest._read_chunk

    def dying(path, parse, parse_target, require_loss, start, end):
        if start:
            os._exit(1)
        return read(path, parse, parse_target, require_loss, start, end)

    monkeypatch.setattr(ingest, "_read_chunk", dying)
    force_ranges(monkeypatch, [line_ends(path.read_bytes())[20]])
    with pytest.raises(DataError) as info:
        load_pool(path, parser=MC)
    assert str(info.value).startswith(f"{path}: the reader of bytes")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_error_in_the_first_chunk_stops_the_other_readers(tmp_path, monkeypatch):
    path = write_raw(tmp_path / "raw.jsonl", 40, 1)
    data = path.read_bytes()
    path.write_bytes(b"{broken\n" + data)
    read = ingest._read_chunk

    def stuck(path, parse, parse_target, require_loss, start, end):
        if start:
            time.sleep(60)
        return read(path, parse, parse_target, require_loss, start, end)

    monkeypatch.setattr(ingest, "_read_chunk", stuck)
    force_ranges(monkeypatch, [line_ends(path.read_bytes())[20]])
    started = time.perf_counter()
    with pytest.raises(DataError, match=":1: not valid JSON"):
        load_pool(path, parser=MC)
    assert time.perf_counter() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_unknown_loss_rule_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_pool(tmp_path / "never-read.jsonl", loss_rule="nope")
