"""Load and export evaluation pools as line-delimited JSON.

One record per line. Recognized fields: ``id``, ``surrogate_generations``
(raw texts to be parsed), ``surrogate_answers`` (pre-parsed canonical
labels; exactly one of the two must be present), ``target_loss``,
``gold_answer`` and ``target_generation``. Unknown fields are ignored.

Two built-in parsers map raw text to canonical labels; both are simplified
stand-ins for benchmark-official parser scripts, and callers can bypass
them entirely by supplying pre-parsed answers. Generations the parser
cannot map count as the reserved "<unparsed>" label, which forms its own
answer class. ``answer_parser`` binds a spec to its text -> label function
once, so a load or a collection run does not dispatch on the spec per text.
The ``mc_letter`` terminal rule reads only the end of the text, so its cost
does not grow with the length of a generation. Short-answer and
multiple-choice generations repeat verbatim, so each read wraps its
parsers in an ``lru_cache`` of the last ``_MEMO_TEXTS`` distinct texts: a
text seen again among them is not parsed again, and the memo's memory
does not grow with the file.

``load_pool`` reads a regular file of at least two ``_CHUNK_FLOOR``s
(1 MiB) in parallel: it cuts the file into byte ranges, one per CPU in
the affinity mask, each ending just after a "\n". It reads the first
range in-process and forks one child per other range; each child runs
the same per-line checks and pickles its columns back over a pipe, and
the parent merges them in file order. An error in the first range is
raised as it is found. A later range that fails reports nothing; then,
and when the ranges disagree on k or share an id, the file is read again
in one serial pass, which raises the error, so a failing file pays for
both reads. The pool, the stats and the error are those of one serial
pass. Below the floor, with one CPU, off Linux (no
``os.sched_getaffinity``) and while other threads run, the file is read
in-process as a single range through the same code. A range is read in
blocks of about ``_READ_BLOCK`` (1 MiB), each cut just after a "\n" and
decoded and split at once (see ``_lines``).
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import os
import pickle
import re
import signal
import stat
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .pool import Pool
from .signals import UNPARSED_LABEL

PARSER_KINDS = ("exact_match", "mc_letter")
LOSS_RULES = ("exact_match_accuracy", "provided")

POOL_FIELDS = (
    "id",
    "surrogate_generations",
    "surrogate_answers",
    "target_loss",
    "gold_answer",
    "target_generation",
)

# "answer is X" with optional brackets around a capital option letter;
# the phrase is case-insensitive, the letter is not, and it must not start
# a word ("the answer is Definitely B" is not "D").
_ANSWER_IS = re.compile(r"(?i:answer\s+is)\s*[\(\[]?([A-J])(?![A-Za-z])[\)\]]?")
_OPTION_LETTERS = "ABCDEFGHIJ"
# closing punctuation allowed between a terminal letter and trailing whitespace
_CLOSERS = ")].!?:,"
_WHITESPACE_RUN = re.compile(r"\s+")
# the whitespace json skips around a value; str.strip() would skip more
_JSON_WHITESPACE = " \t\n\r"
_BOM_MESSAGE = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
# the least bytes per parallel reader: below it, forking a reader and
# merging its chunk cost more than the parse time the reader saves
_CHUNK_FLOOR = 1 << 20
_SCAN_BLOCK = 1 << 16  # read size when finding a line start
_READ_BLOCK = 1 << 20  # read size when parsing records
_MEMO_TEXTS = 1024  # texts a reader remembers the label of


@dataclass(frozen=True)
class ParserSpec:
    """Deterministic text -> canonical-label mapping."""

    kind: str = "mc_letter"
    lowercase: bool = True
    collapse_whitespace: bool = True

    def __post_init__(self):
        if self.kind not in PARSER_KINDS:
            raise ConfigError(
                f"unknown parser kind {self.kind!r}; expected one of {PARSER_KINDS}"
            )


def parse_answer(text: str, spec: ParserSpec) -> str:
    """Canonical answer label for one generation, or "<unparsed>"."""
    return answer_parser(spec)(text)


def answer_parser(spec: ParserSpec):
    """The text -> canonical-label function ``spec`` describes.

    Callers that parse many texts bind it once and call it per text.
    """
    if spec.kind == "mc_letter":
        return _parse_mc_letter
    lowercase = spec.lowercase
    collapse_whitespace = spec.collapse_whitespace

    def parse_exact_match(text) -> str:
        if not isinstance(text, str):
            return UNPARSED_LABEL
        out = text.strip()
        if collapse_whitespace:
            out = _WHITESPACE_RUN.sub(" ", out)
        if lowercase:
            out = out.lower()
        return out if out else UNPARSED_LABEL

    return parse_exact_match


def _parse_mc_letter(text) -> str:
    """The last "answer is X", else a standalone option letter ending the text.

    The terminal letter may be followed by closing punctuation and then
    whitespace, and must start the text or follow whitespace, "(" or "[".
    The terminal rule reads only the end of the text, and the phrase is
    searched for only in a text whose casefold holds "answer".
    """
    if not isinstance(text, str):
        return UNPARSED_LABEL
    # exact: every character IGNORECASE matches to a letter of "answer"
    # casefolds to that letter, so a text without it has no match
    if "answer" in text.casefold():
        matches = _ANSWER_IS.findall(text)
        if matches:
            return matches[-1]
    body = text.rstrip().rstrip(_CLOSERS)
    if body and body[-1] in _OPTION_LETTERS:
        if len(body) == 1 or body[-2] in "([" or body[-2].isspace():
            return body[-1]
    return UNPARSED_LABEL


@dataclass(frozen=True)
class IngestStats:
    records: int
    generations: int
    parse_failures: int
    has_losses: bool

    @property
    def failure_fraction(self) -> float:
        return self.parse_failures / self.generations if self.generations else 0.0


def load_pool(
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

    Structural problems (bytes that are not UTF-8, unreadable JSON, mixed
    generation counts, duplicate ids, missing or non-numeric losses,
    pre-parsed labels that are not non-empty strings) are rejected with the
    1-based line number. Parse failures are counted in the stats, not
    treated as an error.

    A large file is read in parallel: see ``_byte_ranges`` for how it is
    cut. An error in the first range is raised as it is found. When a later
    range fails, or the ranges disagree on k or share an id, the file is
    read again in one serial pass, which raises the error a serial read
    gives; a file that fails this way pays for the parallel read and for
    the serial one up to its error. A reader that died without a fault in
    the data leaves the serial pass to return the pool.
    """
    if loss_rule not in LOSS_RULES:
        raise ConfigError(
            f"unknown loss rule {loss_rule!r}; expected one of {LOSS_RULES}"
        )
    parse = None if parser is None else answer_parser(parser)
    parse_target = None
    if loss_rule == "exact_match_accuracy":
        parse_target = parse or answer_parser(ParserSpec(kind="exact_match"))
    read = functools.partial(_read_chunk, path, parse, parse_target, require_loss)
    chunks = _read_chunks(read, _byte_ranges(path))
    try:
        merged = _merge(path, chunks)
    finally:
        chunks.close()
    return merged or _merge(path, [read(0, None)])


class _Chunk(NamedTuple):
    """The records of one byte range."""

    ids_seen: dict  # id -> line within the range, in file order
    code_of: dict  # label -> chunk-local code, in first-seen order
    codes: np.ndarray  # (records, k) int32 chunk-local codes
    losses: np.ndarray
    losses_present: bool


def _read_chunk(path, parse, parse_target, require_loss, start, end) -> _Chunk:
    """Read the records in bytes ``start`` to ``end`` of ``path``.

    ``start`` is a line start, numbered line 1, and ``end`` None means the
    end of the file. Answers go straight into the code list: each distinct
    label is checked once, when it enters the label table, and no
    per-record object is built. The parsers are memoised for this read
    only: no text outlives it, and a forked reader inherits none. Each line
    is decoded by one decoder call, with the messages ``json.loads`` would
    give. The first failing check raises its DataError.
    """
    memo = functools.lru_cache(_MEMO_TEXTS)
    parse = parse and memo(parse)
    parse_target = parse_target and memo(parse_target)
    decode = json.JSONDecoder().raw_decode
    code_of: dict = {}
    code = code_of.__getitem__
    codes = []
    losses = []
    ids_seen: dict = {}
    expected_k = None
    losses_present = True
    with open(path, "rb") as fh:
        fh.seek(start)
        for line_no, line in _lines(fh, math.inf if end is None else end - start, path):
            text = line.strip(_JSON_WHITESPACE)
            if not text or text.isspace():
                continue
            try:
                # json.loads tests for a BOM before it skips whitespace
                if line[0] == "\ufeff":
                    raise json.JSONDecodeError(_BOM_MESSAGE, line, 0)
                record, end_of_value = decode(text)
                if end_of_value != len(text):
                    raise json.JSONDecodeError("Extra data", text, end_of_value)
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
            loss = _record_loss(record, parse_target, path, line_no, require_loss)
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
    codes = np.array(codes, dtype=np.int32).reshape(len(ids_seen), expected_k or 0)
    return _Chunk(ids_seen, code_of, codes, np.array(losses, dtype=float), losses_present)


def _lines(fh, size, path):
    """(line number, text) of each line in the next ``size`` bytes of
    binary file ``fh``, numbered from 1.

    Lines split where text mode's universal newlines split them: at "\n",
    "\r\n" and a lone "\r", never at U+2028, U+0085 or "\x0c"; a line
    keeps no ending. The bytes are read in blocks of at most about
    ``_READ_BLOCK``, each cut just after a "\n"; a block's line endings
    become "\n" and it is decoded and split at once. Only a block with
    bytes that are not UTF-8 is decoded line by line, so that the
    DataError names their line.
    """
    line_no = 0
    for block in _blocks(fh, size):
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            lines = block.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            lines = _utf8_lines(block, path, line_no)
        else:
            if not lines[-1]:
                lines.pop()
        for line_no, line in enumerate(lines, start=line_no + 1):
            yield line_no, line


def _utf8_lines(block, path, line_no: int):
    """The "\n"-ended lines of ``block`` decoded one at a time, numbered
    from line_no + 1, up to the first that is not UTF-8."""
    for line_no, raw in enumerate(block.splitlines(), start=line_no + 1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path}:{line_no}: not valid UTF-8 "
                f"(byte {exc.start + 1} of the line: {exc.reason})"
            ) from None


def _blocks(fh, size):
    """The next ``size`` bytes of binary file ``fh``, in blocks that each
    end just after a "\n" (all but maybe the last). The file is read
    ``_READ_BLOCK`` bytes at a time and a block holds what the reads since
    the previous block hold up to their last "\n", so it is longer than
    two reads only when a line is longer than one."""
    pieces = []
    while size > 0:
        data = fh.read(min(size, _READ_BLOCK))
        if not data:
            break
        size -= len(data)
        cut = data.rfind(b"\n") + 1
        if not cut:
            pieces.append(data)
            continue
        pieces.append(data[:cut])
        yield b"".join(pieces)
        pieces = [data[cut:]]
    tail = b"".join(pieces)
    if tail:
        yield tail


def _byte_ranges(path) -> list:
    """(start, end) byte ranges that cut ``path`` for its readers, in file order.

    A regular file of at least two ``_CHUNK_FLOOR``s is cut into one range
    per CPU this process may run on, at most one per floor, each ending
    just after a "\n". The file is one range, read in-process, when it is
    smaller, when only one CPU is available, on a platform without
    ``os.sched_getaffinity`` or ``os.fork``, and when the process runs
    other threads, which fork would not copy in a usable state.
    """
    try:
        info = os.stat(path)
        cpus = len(os.sched_getaffinity(0))
    except (OSError, AttributeError):
        return [(0, None)]
    readers = min(cpus, info.st_size // _CHUNK_FLOOR)
    if (readers < 2 or not stat.S_ISREG(info.st_mode) or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [(0, None)]
    size = info.st_size
    bounds = [0]
    with open(path, "rb") as fh:
        for i in range(1, readers):
            fh.seek(size * i // readers - 1)
            while (piece := fh.readline(_SCAN_BLOCK)) and not piece.endswith(b"\n"):
                pass
            if bounds[-1] < fh.tell() < size:
                bounds.append(fh.tell())
    return list(zip(bounds, bounds[1:] + [size]))


def _read_chunks(read, ranges):
    """The chunks of ``ranges`` in file order, each read by ``read(start, end)``.

    The first range is read in-process, each other one by a forked child
    that sends its chunk back over a pipe. Each reader is pinned to its own
    CPU of the mask while it reads: left to the scheduler, a child often
    shares the parent's CPU for its whole run. A range whose child could
    not be forked is read in-process after the first. The first range's
    error is raised; a later range that fails, in a child or in-process,
    gives None. No child outlives the generator: closing it early kills
    and reaps the children left.
    """
    children = []
    try:
        if len(ranges) > 1:
            mask = os.sched_getaffinity(0)
            cpus = sorted(mask)
            for cpu, (start, end) in zip(cpus[1:], ranges[1:]):
                try:
                    children.append(_fork_reader(read, start, end, cpu))
                except OSError:
                    break
        if children:
            _pin({cpus[0]})
            try:
                first = read(*ranges[0])
            finally:
                _pin(mask)
        else:
            first = read(*ranges[0])
        yield first
        for i, (start, end) in enumerate(ranges[1:]):
            if i < len(children):
                chunk = _receive(children[i])
            else:
                try:
                    chunk = read(start, end)
                except Exception:  # the serial pass reports it with its line
                    chunk = None
            yield chunk
    finally:
        for child in children:
            _stop(child)


def _pin(cpus) -> None:
    """Run the calling thread on ``cpus``, if the system lets it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _fork_reader(read, start, end, cpu) -> list:
    """Fork a child that reads one range on ``cpu`` and pickles its chunk to a pipe.

    Returns ``[pid, fd]``, the child's pid and the pipe's read end;
    ``_receive`` or ``_stop`` set either to None once it is done with.
    """
    fd_in, fd_out = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(fd_in)
        os.close(fd_out)
        raise
    if pid == 0:  # the child: read, send and leave without any clean-up
        status = 1
        try:
            os.close(fd_in)
            # a collection here would walk, and so copy, every page of
            # tracked objects the parent owned; the child exits soon anyway
            gc.disable()
            _pin({cpu})
            chunk = read(start, end)
            with open(fd_out, "wb") as pipe:
                pickle.dump(chunk, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(fd_out)
    return [pid, fd_in]


def _receive(child) -> _Chunk | None:
    """The chunk a child sent, once the child has exited and been reaped,
    or None if it failed.

    The chunk is unpickled straight from the pipe, so no copy of the whole
    message is held at once.
    """
    pid, fd = child
    with open(fd, "rb") as pipe:
        child[1] = None
        try:
            chunk = pickle.load(pipe)
        except Exception:  # a child that failed sends a short message
            chunk = None
    status = os.waitpid(pid, 0)[1]
    child[0] = None
    return chunk if status == 0 else None


def _stop(child) -> None:
    """Close the pipe of a child not yet received, then kill and reap it."""
    pid, fd = child
    if fd is not None:
        os.close(fd)
    if pid is not None:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _merge(path, chunks) -> tuple[Pool, IngestStats] | None:
    """The pool and stats of the chunks, in order, or None when a chunk is
    None, or the chunks disagree on k or share an id.

    Each chunk was read with its own first record setting k and with its
    own id and label tables; its labels are recoded in first-seen order.
    """
    seen: dict = {}  # the ids of the chunks merged so far
    code_of: dict = {}
    codes = []
    losses = []
    losses_present = True
    for chunk in chunks:
        if chunk is None or not seen.keys().isdisjoint(chunk.ids_seen):
            return None
        if not chunk.ids_seen:
            continue
        if codes and chunk.codes.shape[1] != codes[0].shape[1]:
            return None
        seen.update(chunk.ids_seen)
        remap = [code_of.setdefault(label, len(code_of)) for label in chunk.code_of]
        codes.append(np.array(remap, dtype=np.int32)[chunk.codes])
        losses.append(chunk.losses)
        losses_present = losses_present and chunk.losses_present
    del chunk  # its columns are copied: free them before the pool is built
    if not seen:
        raise DataError(f"{path}: no records found")
    codes = np.concatenate(codes)
    losses = np.concatenate(losses)
    unparsed = code_of.get(UNPARSED_LABEL)
    stats = IngestStats(
        records=len(seen),
        generations=codes.size,
        parse_failures=0 if unparsed is None else int(np.count_nonzero(codes == unparsed)),
        has_losses=losses_present,
    )
    return Pool(seen, codes, code_of, losses), stats


def export_pool(pool: Pool, path) -> None:
    """Write a pool (canonical answers and losses) back to JSONL.

    Each line is ``json.dumps({"id": ..., "surrogate_answers": [...],
    "target_loss": ...})``, assembled from each label's JSON text, which is
    encoded once per label rather than once per answer. Ids go through
    ``encode_basestring_ascii``, the encoder ``json.dumps`` uses for a str,
    and lines are written in batches of ``_EXPORT_BATCH``.
    """
    encoded = np.array([json.dumps(label) for label in pool.labels], dtype=object)
    rows = encoded[pool.codes].tolist()
    encode = json.encoder.encode_basestring_ascii
    lines = (
        f'{{"id": {encode(id)}, "surrogate_answers": [{", ".join(answers)}], '
        f'"target_loss": {loss!r}}}\n'
        for id, answers, loss in zip(pool.ids, rows, pool.loss_vector().tolist())
    )
    with open(path, "w", encoding="utf-8") as fh:
        while batch := "".join(itertools.islice(lines, _EXPORT_BATCH)):
            fh.write(batch)


_EXPORT_BATCH = 2048


def _record_answers(record, parse, path, line_no) -> list:
    """A record's labels: its pre-parsed ones, or its generations parsed by
    ``parse``, a memoised parser."""
    raw = record.get("surrogate_generations")
    pre = record.get("surrogate_answers")
    if (raw is None) == (pre is None):
        raise DataError(
            f"{path}:{line_no}: record must carry exactly one of "
            "surrogate_generations / surrogate_answers"
        )
    if pre is not None:
        if not isinstance(pre, list) or not pre:
            raise DataError(f"{path}:{line_no}: surrogate_answers must be a non-empty list")
        return pre
    if not isinstance(raw, list) or not raw:
        raise DataError(
            f"{path}:{line_no}: surrogate_generations must be a non-empty list"
        )
    if parse is None:
        raise DataError(
            f"{path}:{line_no}: record carries raw generations but no parser "
            "was configured"
        )
    try:
        return list(map(parse, raw))
    except TypeError:  # a list or object is no memo key; parse it unmemoised
        return list(map(parse.__wrapped__, raw))


def _label_code(code_of: dict, label, path, line_no) -> int:
    """Code of one answer label, entering it in the table on first sight."""
    if not isinstance(label, str) or label == "":
        raise DataError(
            f"{path}:{line_no}: answer labels must be non-empty strings, got {label!r}"
        )
    return code_of.setdefault(label, len(code_of))


def _record_loss(record, parse_target, path, line_no, require_loss):
    """Loss of one record; ``parse_target`` is a memoised parser, or None
    under the "provided" rule."""
    target_generation = record.get("target_generation")
    gold = record.get("gold_answer")
    if parse_target is not None and target_generation is not None and gold is not None:
        try:
            predicted = parse_target(target_generation)
        except TypeError:  # a list or object is no memo key
            predicted = parse_target.__wrapped__(target_generation)
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
    if type(loss) not in (int, float):  # a JSON number; true and false are not
        raise DataError(f"{path}:{line_no}: target_loss {loss!r} is not a number")
    try:
        loss = float(loss)
    except OverflowError:  # an integer beyond the float range
        raise DataError(f"{path}:{line_no}: target_loss {loss} outside [0, 1]") from None
    if not 0.0 <= loss <= 1.0:
        raise DataError(f"{path}:{line_no}: target_loss {loss} outside [0, 1]")
    return loss
