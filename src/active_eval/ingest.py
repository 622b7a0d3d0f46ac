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
does not grow with the length of a generation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

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
    Only the end of the text is read.
    """
    if not isinstance(text, str):
        return UNPARSED_LABEL
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


def export_pool(pool: Pool, path) -> None:
    """Write a pool (canonical answers and losses) back to JSONL.

    Each line is ``json.dumps({"id": ..., "surrogate_answers": [...],
    "target_loss": ...})``, assembled from each label's JSON text, which is
    encoded once per label rather than once per answer.
    """
    encoded = np.array([json.dumps(label) for label in pool.labels], dtype=object)
    rows = encoded[pool.codes].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for id, answers, loss in zip(pool.ids, rows, pool.loss_vector().tolist()):
            fh.write(
                f'{{"id": {json.dumps(id)}, "surrogate_answers": [{", ".join(answers)}], '
                f'"target_loss": {loss!r}}}\n'
            )


def _record_answers(record, parse, path, line_no) -> list:
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
    return list(map(parse, raw))


def _label_code(code_of: dict, label, path, line_no) -> int:
    """Code of one answer label, entering it in the table on first sight."""
    if not isinstance(label, str) or label == "":
        raise DataError(
            f"{path}:{line_no}: answer labels must be non-empty strings, got {label!r}"
        )
    return code_of.setdefault(label, len(code_of))


def _record_loss(record, parse_target, path, line_no, require_loss):
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
