"""Load and export evaluation pools as line-delimited JSON.

One record per line. Recognized fields: ``id``, ``surrogate_generations``
(raw texts to be parsed), ``surrogate_answers`` (pre-parsed canonical
labels; exactly one of the two must be present), ``target_loss``,
``gold_answer`` and ``target_generation``. Unknown fields are ignored.

Two built-in parsers map raw text to canonical labels; both are simplified
stand-ins for benchmark-official parser scripts, and callers can bypass
them entirely by supplying pre-parsed answers. Generations the parser
cannot map count as the reserved "<unparsed>" label, which forms its own
answer class.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import ConfigError, DataError
from .pool import Pool, PoolInstance
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
# a standalone capital letter as the final token, closing punctuation allowed
_TERMINAL_LETTER = re.compile(r"(?:^|[\s\(\[])([A-J])[\)\]\.\!\?:,]*\s*$")
_WHITESPACE_RUN = re.compile(r"\s+")


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
    if not isinstance(text, str):
        return UNPARSED_LABEL
    if spec.kind == "exact_match":
        out = text.strip()
        if spec.collapse_whitespace:
            out = _WHITESPACE_RUN.sub(" ", out)
        if spec.lowercase:
            out = out.lower()
        return out if out else UNPARSED_LABEL
    matches = _ANSWER_IS.findall(text)
    if matches:
        return matches[-1]
    terminal = _TERMINAL_LETTER.search(text)
    if terminal:
        return terminal.group(1)
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
    failure_warn_threshold: float = 0.05,
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
    duplicate ids, missing losses) are rejected with the 1-based line
    number. A parse-failure fraction above ``failure_warn_threshold`` is
    reported in the stats, not treated as an error.
    """
    if loss_rule not in LOSS_RULES:
        raise ConfigError(
            f"unknown loss rule {loss_rule!r}; expected one of {LOSS_RULES}"
        )
    instances = []
    expected_k = None
    generation_count = 0
    failures = 0
    losses_present = True
    ids_seen: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: not valid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise DataError(f"{path}:{line_no}: record is not a JSON object")
            answers, failed_here = _record_answers(record, parser, path, line_no)
            generation_count += len(answers)
            failures += failed_here
            if expected_k is None:
                expected_k = len(answers)
                if expected_k < 2:
                    raise DataError(
                        f"{path}:{line_no}: need at least 2 generations per record, "
                        f"got {expected_k}"
                    )
            elif len(answers) != expected_k:
                raise DataError(
                    f"{path}:{line_no}: record has {len(answers)} generations, "
                    f"expected k={expected_k}"
                )
            loss = _record_loss(record, parser, loss_rule, path, line_no, require_loss)
            if loss is None:
                losses_present = False
                loss = 0.0
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
            try:
                instances.append(PoolInstance.from_answers(record_id, answers, loss))
            except DataError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from exc
    if not instances:
        raise DataError(f"{path}: no records found")
    pool = Pool(instances)
    stats = IngestStats(
        records=len(instances),
        generations=generation_count,
        parse_failures=failures,
        has_losses=losses_present,
    )
    return pool, stats


def export_pool(pool: Pool, path) -> None:
    """Write a pool (canonical answers and losses) back to JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in pool.instances:
            record = {
                "id": inst.id,
                "surrogate_answers": list(inst.surrogate_answers),
                "target_loss": inst.target_loss,
            }
            fh.write(json.dumps(record) + "\n")


def _record_answers(record, parser, path, line_no):
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
        answers = [str(a) for a in pre]
        return answers, sum(a == UNPARSED_LABEL for a in answers)
    if not isinstance(raw, list) or not raw:
        raise DataError(
            f"{path}:{line_no}: surrogate_generations must be a non-empty list"
        )
    if parser is None:
        raise DataError(
            f"{path}:{line_no}: record carries raw generations but no parser "
            "was configured"
        )
    answers = [parse_answer(text, parser) for text in raw]
    return answers, sum(a == UNPARSED_LABEL for a in answers)


def _record_loss(record, parser, loss_rule, path, line_no, require_loss):
    target_generation = record.get("target_generation")
    gold = record.get("gold_answer")
    if (
        loss_rule == "exact_match_accuracy"
        and target_generation is not None
        and gold is not None
    ):
        spec = parser if parser is not None else ParserSpec(kind="exact_match")
        predicted = parse_answer(target_generation, spec)
        expected = parse_answer(str(gold), spec)
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
