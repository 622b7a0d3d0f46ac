import array
import json
import os
import random
import re

import numpy as np
import pytest

from active_eval import (
    UNPARSED_LABEL,
    DataError,
    IngestStats,
    ParserSpec,
    Pool,
    answer_parser,
    export_pool,
    finite_pool_risk,
    load_pool,
    parse_answer,
    reference_pool,
)
from active_eval import ingest
from active_eval.errors import ConfigError
from active_eval.stratify import STRATIFIERS

MC = ParserSpec(kind="mc_letter")
EM = ParserSpec(kind="exact_match")


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def test_mc_letter_answer_is_pattern():
    assert parse_answer("The answer is (C).", MC) == "C"
    assert parse_answer("the ANSWER IS [B]", MC) == "B"
    assert parse_answer("The answer is A. Wait, the answer is D.", MC) == "D"


def test_mc_letter_option_letter_must_not_start_a_word():
    assert parse_answer("the answer is definitely B", MC) == "B"
    assert parse_answer("The answer is Definitely B", MC) == "B"


def test_mc_letter_terminal_token():
    assert parse_answer("I will go with B", MC) == "B"
    assert parse_answer("Final: (E)", MC) == "E"
    assert parse_answer("so it must be C.", MC) == "C"


def test_mc_letter_fallback_to_unparsed():
    assert parse_answer("no choice given", MC) == "<unparsed>"
    assert parse_answer("the answer is maybe", MC) == "<unparsed>"
    assert parse_answer("", MC) == "<unparsed>"
    assert parse_answer("K is not a valid option letter", MC) == "<unparsed>"


# The parsers as they were when the terminal rule was a regex searched over
# the whole text; the reference for the differential test below.
_REF_ANSWER_IS = re.compile(r"(?i:answer\s+is)\s*[\(\[]?([A-J])(?![A-Za-z])[\)\]]?")
_REF_TERMINAL_LETTER = re.compile(r"(?:^|[\s\(\[])([A-J])[\)\]\.\!\?:,]*\s*$")
_REF_WHITESPACE_RUN = re.compile(r"\s+")


def reference_parse_answer(text, spec):
    if not isinstance(text, str):
        return "<unparsed>"
    if spec.kind == "exact_match":
        out = text.strip()
        if spec.collapse_whitespace:
            out = _REF_WHITESPACE_RUN.sub(" ", out)
        if spec.lowercase:
            out = out.lower()
        return out if out else "<unparsed>"
    matches = _REF_ANSWER_IS.findall(text)
    if matches:
        return matches[-1]
    terminal = _REF_TERMINAL_LETTER.search(text)
    if terminal:
        return terminal.group(1)
    return "<unparsed>"


PARSER_SPECS = [MC] + [
    ParserSpec(kind="exact_match", lowercase=lower, collapse_whitespace=collapse)
    for lower in (True, False) for collapse in (True, False)
]
# option letters and one beyond, brackets, the closing punctuation and one
# mark that is not, Unicode whitespace and two characters that are not, and
# the phrase in forms Unicode IGNORECASE matches
TEXT_PIECES = list("ABCDEFGHIJKa()[].!?:,;") + [
    " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
    "\u2028", "\u3000", "\u200b", "\ufeff", "answer is ", "anſwer ıs ", "ANSWER\tIS",
]


def test_parsers_match_the_regex_reference_on_random_texts():
    rng = random.Random(20261018)
    texts = [None, 3, ""]
    for _ in range(6000):
        text = "".join(rng.choices(TEXT_PIECES, k=rng.randint(1, 7)))
        texts.append(text + "\n" if rng.random() < 0.25 else text)
    # generations as long as real ones, with and without the phrase
    for _ in range(40):
        filler = "".join(rng.choices(TEXT_PIECES[:-3], k=700))[:2000]
        ending = "".join(rng.choices(TEXT_PIECES, k=rng.randint(1, 5)))
        texts += [filler + ending, ending + filler, filler[:900] + "answer is " + filler[900:]]
    for spec in PARSER_SPECS:
        parse = answer_parser(spec)
        for text in texts:
            expected = reference_parse_answer(text, spec)
            assert parse(text) == expected, (spec, text)
            assert parse_answer(text, spec) == expected, (spec, text)


def test_answer_precheck_is_exact():
    # every code point the phrase's IGNORECASE letters match casefolds to
    # the letter, so a text without "answer" in its casefold has no match
    every = array.array("I", range(0x110000)).tobytes().decode("utf-32-le", "surrogatepass")
    assert len(every) == 0x110000
    matched = set(re.findall("(?i:[answer])", every))
    for char in matched:
        letters = [letter for letter in "answer" if re.fullmatch(f"(?i:{letter})", char)]
        assert letters == [char.casefold()], char
    assert "ſ" in matched and len(matched) > 2 * len(set("answer"))


@pytest.mark.parametrize("text, label", [
    ("the anſwer ıs C", "C"),
    ("B.\t.", "<unparsed>"),
    ("(C)\xa0", "C"),
    ("x" * 100_000 + " B.", "B"),
])
def test_mc_letter_pinned_cases(text, label):
    assert reference_parse_answer(text, MC) == label
    assert parse_answer(text, MC) == label


def test_exact_match_normalization():
    assert parse_answer("  Paris ", EM) == "paris"
    assert parse_answer("New   York\tCity", EM) == "new york city"
    assert parse_answer("   ", EM) == "<unparsed>"


def test_parser_spec_validation():
    with pytest.raises(ConfigError):
        ParserSpec(kind="nope")


def test_parse_determinism():
    texts = ["The answer is (C).", "  Paris ", "no choice"]
    for text in texts:
        assert parse_answer(text, MC) == parse_answer(text, MC)
        assert parse_answer(text, EM) == parse_answer(text, EM)


def test_load_pre_parsed_answers(tmp_path):
    path = write_jsonl(
        tmp_path / "pool.jsonl",
        [
            {"id": "a", "surrogate_answers": ["A", "A"], "target_loss": 0},
            {"id": "b", "surrogate_answers": ["A", "B"], "target_loss": 1},
        ],
    )
    pool, stats = load_pool(path)
    assert pool.size == 2 and pool.k == 2
    assert pool.instances[0].se == 0.0
    assert stats.has_losses and stats.parse_failures == 0


def test_load_raw_generations_with_parser(tmp_path):
    path = write_jsonl(
        tmp_path / "pool.jsonl",
        [
            {
                "id": "q1",
                "surrogate_generations": ["The answer is (C).", "It's C", "garbage"],
                "target_loss": 0.0,
            }
        ],
    )
    pool, stats = load_pool(path, parser=MC)
    assert pool.instances[0].surrogate_answers == ("C", "C", "<unparsed>")
    assert stats.parse_failures == 1
    assert stats.failure_fraction == pytest.approx(1 / 3)


def test_load_raw_generations_without_parser_rejected(tmp_path):
    path = write_jsonl(
        tmp_path / "pool.jsonl",
        [{"id": "a", "surrogate_generations": ["x", "y"], "target_loss": 0}],
    )
    with pytest.raises(DataError, match=":1:"):
        load_pool(path)


def test_loss_derived_from_gold_and_target_generation(tmp_path):
    path = write_jsonl(
        tmp_path / "pool.jsonl",
        [
            {
                "id": "right",
                "surrogate_answers": ["A", "B"],
                "gold_answer": "C",
                "target_generation": "The answer is (C).",
            },
            {
                "id": "wrong",
                "surrogate_answers": ["A", "B"],
                "gold_answer": "C",
                "target_generation": "The answer is (D).",
            },
        ],
    )
    pool, _ = load_pool(path, parser=MC)
    assert pool.instances[0].target_loss == 0.0
    assert pool.instances[1].target_loss == 1.0


def test_provided_rule_ignores_target_generation(tmp_path):
    path = write_jsonl(
        tmp_path / "pool.jsonl",
        [
            {
                "id": "a",
                "surrogate_answers": ["A", "B"],
                "gold_answer": "C",
                "target_generation": "The answer is (C).",
                "target_loss": 1.0,
            }
        ],
    )
    pool, _ = load_pool(path, parser=MC, loss_rule="provided")
    assert pool.instances[0].target_loss == 1.0


def test_structural_errors_carry_line_numbers(tmp_path):
    wrong_k = write_jsonl(
        tmp_path / "k.jsonl",
        [
            {"id": "a", "surrogate_answers": ["A", "B", "C"], "target_loss": 0},
            {"id": "b", "surrogate_answers": ["A", "B"], "target_loss": 0},
        ],
    )
    with pytest.raises(DataError, match=":2:.*expected k=3"):
        load_pool(wrong_k)

    dup = write_jsonl(
        tmp_path / "dup.jsonl",
        [
            {"id": "a", "surrogate_answers": ["A", "B"], "target_loss": 0},
            {"id": "a", "surrogate_answers": ["A", "B"], "target_loss": 0},
        ],
    )
    with pytest.raises(DataError, match=":2:.*duplicate id"):
        load_pool(dup)

    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"id": "a", "surrogate_answers": ["A", "B"}\n')
    with pytest.raises(DataError, match=":1:"):
        load_pool(bad_json)

    both = write_jsonl(
        tmp_path / "both.jsonl",
        [
            {
                "id": "a",
                "surrogate_answers": ["A", "B"],
                "surrogate_generations": ["x", "y"],
                "target_loss": 0,
            }
        ],
    )
    with pytest.raises(DataError, match="exactly one"):
        load_pool(both)


def test_loss_validation(tmp_path):
    missing = write_jsonl(
        tmp_path / "missing.jsonl",
        [{"id": "a", "surrogate_answers": ["A", "B"]}],
    )
    with pytest.raises(DataError, match=":1:.*target loss"):
        load_pool(missing)
    pool, stats = load_pool(missing, require_loss=False)
    assert not stats.has_losses

    out_of_range = write_jsonl(
        tmp_path / "range.jsonl",
        [{"id": "a", "surrogate_answers": ["A", "B"], "target_loss": 1.2}],
    )
    with pytest.raises(DataError, match=":1:.*outside"):
        load_pool(out_of_range)

    not_number = write_jsonl(
        tmp_path / "nan.jsonl",
        [{"id": "a", "surrogate_answers": ["A", "B"], "target_loss": "high"}],
    )
    with pytest.raises(DataError, match=":1:.*not a number"):
        load_pool(not_number)

    # only JSON numbers are losses: not booleans, not numeric strings
    for loss, shown in ((True, "True"), (False, "False"), ("0.5", "'0.5'")):
        path = write_jsonl(
            tmp_path / "typed.jsonl",
            [{"id": "a", "surrogate_answers": ["A", "B"], "target_loss": loss}],
        )
        with pytest.raises(DataError) as info:
            load_pool(path)
        assert str(info.value) == f"{path}:1: target_loss {shown} is not a number"

    huge = tmp_path / "huge.jsonl"
    huge.write_text('{"id": "a", "surrogate_answers": ["A", "B"], "target_loss": 1' + "0" * 400 + "}\n")
    with pytest.raises(DataError, match=":1: target_loss 10+ outside"):
        load_pool(huge)
    pool, _ = load_pool(write_jsonl(tmp_path / "ints.jsonl", [
        {"id": "a", "surrogate_answers": ["A", "B"], "target_loss": 0},
        {"id": "b", "surrogate_answers": ["A", "B"], "target_loss": 1},
    ]))
    assert pool.loss_vector().tolist() == [0.0, 1.0]


def test_unknown_fields_ignored(tmp_path):
    path = write_jsonl(
        tmp_path / "extra.jsonl",
        [{"id": "a", "surrogate_answers": ["A", "B"], "target_loss": 0, "note": "hi"}],
    )
    pool, _ = load_pool(path)
    assert pool.size == 1


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DataError, match="no records"):
        load_pool(path)


def test_export_load_round_trip_preserves_everything(tmp_path):
    pool = reference_pool()
    path = tmp_path / "reference.jsonl"
    export_pool(pool, path)
    loaded, stats = load_pool(path)
    assert loaded.size == pool.size and loaded.k == pool.k
    assert [i.id for i in loaded.instances] == [i.id for i in pool.instances]
    assert [i.surrogate_answers for i in loaded.instances] == [
        i.surrogate_answers for i in pool.instances
    ]
    assert np.array_equal(loaded.loss_vector(), pool.loss_vector())
    assert np.array_equal(loaded.se_values, pool.se_values)
    assert np.array_equal(loaded.sc_values, pool.sc_values)
    assert finite_pool_risk(loaded, loaded.loss_vector()) == finite_pool_risk(
        pool, pool.loss_vector()
    )
    for method, fn in STRATIFIERS.items():
        a = fn(pool.se_values, 5)
        b = fn(loaded.se_values, 5)
        assert np.array_equal(a.assignment, b.assignment), method


GOOD = {"id": "a", "surrogate_answers": ["A", "B"], "target_loss": 0}


@pytest.mark.parametrize("line, message", [
    ("{not json", "not valid JSON: Expecting property name enclosed in double quotes"),
    ("[1, 2]", "record is not a JSON object"),
    ({"id": "b", "target_loss": 0},
     "record must carry exactly one of surrogate_generations / surrogate_answers"),
    ({"id": "b", "surrogate_answers": ["A"], "surrogate_generations": ["x"], "target_loss": 0},
     "record must carry exactly one of surrogate_generations / surrogate_answers"),
    ({"id": "b", "surrogate_answers": [], "target_loss": 0},
     "surrogate_answers must be a non-empty list"),
    ({"id": "b", "surrogate_answers": "AB", "target_loss": 0},
     "surrogate_answers must be a non-empty list"),
    ({"id": "b", "surrogate_generations": [], "target_loss": 0},
     "surrogate_generations must be a non-empty list"),
    ({"id": "b", "surrogate_generations": ["x", "y"], "target_loss": 0},
     "record carries raw generations but no parser was configured"),
    ({"id": "b", "surrogate_answers": ["A", "B", "C"], "target_loss": 0},
     "record has 3 generations, expected k=2"),
    ({"id": "b", "surrogate_answers": ["A", "B"]},
     "record has no usable target loss "
     "(need target_loss, or gold_answer plus target_generation)"),
    ({"id": "b", "surrogate_answers": ["A", "B"], "target_loss": "high"},
     "target_loss 'high' is not a number"),
    ({"id": "b", "surrogate_answers": ["A", "B"], "target_loss": 1.5},
     "target_loss 1.5 outside [0, 1]"),
    ({"surrogate_answers": ["A", "B"], "target_loss": 0}, "record has no id"),
    ({"id": "a", "surrogate_answers": ["A", "B"], "target_loss": 0},
     "duplicate id 'a' (first seen on line 1)"),
    ('{"id": "b"} x', "not valid JSON: Extra data"),
    ('{"id": "b"} {"id": "c"}', "not valid JSON: Extra data"),
    ('{"id": "b"}\x0c', "not valid JSON: Extra data"),
    ('\ufeff{"id": "b"}', "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (' \ufeff{"id": "b"}', "not valid JSON: Expecting value"),
    ('\x0c{"id": "b"}', "not valid JSON: Expecting value"),
    # lines of Unicode whitespace are blank: the duplicate on the next line is the error
    ("\xa0\n" + json.dumps(GOOD), "duplicate id 'a' (first seen on line 1)"),
    ("\u3000\n" + json.dumps(GOOD), "duplicate id 'a' (first seen on line 1)"),
])
def test_every_rejection_names_the_line(tmp_path, line, message):
    path = tmp_path / "pool.jsonl"
    text = line if isinstance(line, str) else json.dumps(line)
    path.write_text(json.dumps(GOOD) + "\n\n" + text + "\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_pool(path)
    assert str(info.value) == f"{path}:{3 + text.count(chr(10))}: {message}"


def test_first_record_needs_two_generations(tmp_path):
    path = write_jsonl(tmp_path / "one.jsonl", [{"id": "a", "surrogate_answers": ["A"],
                                                 "target_loss": 0}])
    with pytest.raises(DataError) as info:
        load_pool(path)
    assert str(info.value) == f"{path}:1: need at least 2 generations per record, got 1"


@pytest.mark.parametrize("label", [None, 1, 2.5, True, False, ["A"], {"a": 1}, ""])
def test_pre_parsed_labels_must_be_non_empty_strings(tmp_path, label):
    for answers in ([label, "A"], ["A", label]):
        path = write_jsonl(tmp_path / "labels.jsonl", [
            GOOD, {"id": "b", "surrogate_answers": answers, "target_loss": 0},
        ])
        with pytest.raises(DataError) as info:
            load_pool(path)
        assert str(info.value) == (
            f"{path}:2: answer labels must be non-empty strings, got {label!r}"
        )


def test_pre_parsed_labels_are_kept_verbatim(tmp_path):
    path = write_jsonl(tmp_path / "labels.jsonl", [
        {"id": 7, "surrogate_answers": ["None", "1", "<unparsed>"], "target_loss": 0},
    ])
    pool, stats = load_pool(path)
    assert pool.ids == ("7",)
    assert pool.instances[0].surrogate_answers == ("None", "1", "<unparsed>")
    assert stats.parse_failures == 1


def test_export_lines_are_json_dumps_of_the_records(tmp_path):
    labels = ['say "hi"', "back\\slash", "ünïcødé", "tab\there", "line\u2028sep", "🙂", "<unparsed>"]
    ids = ["plain", 'quo"te', "ünï", "new\nline"]
    codes = np.array([[0, 1, 2, 3], [4, 5, 6, 0], [6, 6, 6, 6], [2, 2, 1, 1]])
    losses = [0.1, 1 / 3, -0.0, 1.0]
    pool = Pool(ids, codes, labels, losses)
    path = tmp_path / "out.jsonl"
    export_pool(pool, path)
    expected = "".join(
        json.dumps({"id": i, "surrogate_answers": [labels[c] for c in row], "target_loss": loss})
        + "\n"
        for i, row, loss in zip(ids, codes.tolist(), losses)
    )
    assert path.read_text(encoding="utf-8") == expected
    loaded, _ = load_pool(path)
    assert loaded.ids == pool.ids and loaded.answer_lists() == pool.answer_lists()


def _export_line_by_line(pool, path):
    """The writer export_pool replaced: json.dumps per id, one write per line."""
    encoded = np.array([json.dumps(label) for label in pool.labels], dtype=object)
    rows = encoded[pool.codes].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for id, answers, loss in zip(pool.ids, rows, pool.loss_vector().tolist()):
            fh.write(
                f'{{"id": {json.dumps(id)}, "surrogate_answers": [{", ".join(answers)}], '
                f'"target_loss": {loss!r}}}\n'
            )


def test_export_equals_the_line_by_line_writer(tmp_path):
    escaping = ['q"uote', "back\\slash", "new\nline", "\x00\x1f\x7f", "ünï", "🙂", "\u2028", "é€"]
    rng = np.random.default_rng(3)
    n = 5000  # more than two write batches
    ids = [f"{escaping[i % len(escaping)]}-{i}" for i in range(n)]
    pools = [
        reference_pool(),
        Pool(ids, rng.integers(0, 3, size=(n, 4)), ["A", 'say "B"', "ç"], rng.random(n)),
    ]
    for j, pool in enumerate(pools):
        new, old = tmp_path / f"new{j}.jsonl", tmp_path / f"old{j}.jsonl"
        export_pool(pool, new)
        _export_line_by_line(pool, old)
        assert new.read_bytes() == old.read_bytes()


def _lines_of(*records):
    return [json.dumps(r) for r in records]


@pytest.mark.parametrize("bad_line", [1, 3, 5])
def test_invalid_utf8_names_the_line(tmp_path, bad_line):
    lines = _lines_of(*({"id": f"r{i}", "surrogate_answers": ["A", "B"], "target_loss": 0}
                        for i in range(5)))
    data = [line.encode() for line in lines]
    data[bad_line - 1] = data[bad_line - 1].replace(b'"B"', b'"\xffB"')
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join(data) + b"\n")
    with pytest.raises(DataError) as info:
        load_pool(path)
    assert str(info.value).startswith(f"{path}:{bad_line}: not valid UTF-8")


def test_invalid_utf8_exits_with_the_data_code(tmp_path, capsys):
    from active_eval.cli import EXIT_DATA, main

    path = tmp_path / "bad.jsonl"
    path.write_bytes(json.dumps(GOOD).encode() + b'\n{"id": "\xff"}\n')
    assert main(["stratify", "--pool", str(path)]) == EXIT_DATA
    assert f"{path}:2: not valid UTF-8" in capsys.readouterr().err


NEWLINE_RECORDS = [
    {"id": "a", "surrogate_answers": ["A", "B"], "target_loss": 0},
    {"id": "b", "surrogate_answers": ["B", "B"], "target_loss": 1},
    {"id": "c", "surrogate_answers": ["C", "A"], "target_loss": 0.5},
]


def _with_newlines(lines, style, rng):
    """Join lines with one newline style; "mixed" draws one per line."""
    if style != "mixed":
        return style.join(lines) + style
    return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines)


@pytest.mark.parametrize("style", ["\r\n", "\r", "mixed"], ids=["crlf", "cr", "mixed"])
def test_crlf_and_cr_files_load_as_lf(tmp_path, style):
    rng = random.Random(3)
    lines = _lines_of(*NEWLINE_RECORDS)
    # a blank line, a line of spaces, and an error on the last line
    lines[1:1] = ["", "   "]
    broken = lines + ['{"id": "d", "surrogate_answers": ["A"], "target_loss": 0}']
    for body in (lines, broken):
        lf = tmp_path / "lf.jsonl"
        other = tmp_path / "other.jsonl"
        lf.write_bytes(_with_newlines(body, "\n", rng).encode())
        other.write_bytes(_with_newlines(body, style, rng).encode())
        outcomes = []
        for path in (lf, other):
            try:
                pool, stats = load_pool(path)
                outcomes.append((pool.ids, pool.answer_lists(),
                                 pool.loss_vector().tolist(), stats))
            except DataError as exc:
                outcomes.append(str(exc).replace(str(path), "<path>"))
        assert outcomes[0] == outcomes[1]
    assert outcomes[0] == "<path>:6: record has 1 generations, expected k=2"


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0c", "\x1c"],
                         ids=["u2028", "u2029", "x85", "x0c", "x1c"])
def test_unicode_line_separators_stay_inside_a_record(tmp_path, separator):
    # written raw: json.dumps would escape the control characters
    label = f"A{separator}B"
    path = tmp_path / "sep.jsonl"
    path.write_text(
        f'{{"id": "x{separator}y", "surrogate_answers": ["{label}", "C"], "target_loss": 0}}\n'
        + json.dumps(GOOD) + "\n",
        encoding="utf-8",
    )
    if separator < " ":  # a raw control character is not valid inside a JSON string
        with pytest.raises(DataError) as info:
            load_pool(path)
        assert str(info.value) == f"{path}:1: not valid JSON: Invalid control character at"
        return
    pool, _ = load_pool(path)
    assert pool.ids == (f"x{separator}y", "a")
    assert pool.answer_lists()[0] == [label, "C"]


# -------------------- the reader's parse memo --------------------

_PHRASES = ("The answer is ({}).", "I think it is {}", "  {} ", "Final: [{}]", "{}",
            "no idea", "answer is {}")
# JSON values that are not strings: equal hashes (true, 1, 1.0), NaN,
# and unhashable lists and objects
_ODD_TEXTS = (None, 0, 1, 1.0, True, False, 2.5, float("nan"), ["A"], [["B"], "C"], {"a": 1})


def _text_records(rng, count, style):
    """Raw records whose generations nearly all repeat ("repeated"), never
    repeat ("distinct"), or mix both with JSON values that are not strings."""
    records = []
    for i in range(count):
        texts = []
        for j in range(4):
            letter = rng.choice("ABCDE")
            if style == "repeated" and rng.random() < 0.97:
                texts.append(rng.choice(_PHRASES[:2]).format(letter))
            elif style == "mixed" and rng.random() < 0.6:
                texts.append(rng.choice(_PHRASES).format(letter))
            elif style == "mixed" and rng.random() < 0.5:
                texts.append(rng.choice(_ODD_TEXTS))
            else:
                texts.append(f"Run {i}.{j}: so the answer is {letter}")
        gold = rng.choice(["A", "B", "b", 1, True]) if style == "mixed" else rng.choice("AB")
        target = rng.choice(["The answer is A", "I think it is B", "b"])
        if style == "distinct":
            target = f"Target {i}: {target}"
        elif style == "mixed" and rng.random() < 0.2:
            target = rng.choice(_ODD_TEXTS)
        records.append({"id": f"r{i}", "surrogate_generations": texts,
                        "gold_answer": gold, "target_generation": target,
                        "target_loss": rng.choice([0, 1])})
    return records


def _per_text_outcome(records, spec):
    """The pool columns and stats from parsing every text on its own."""
    parse = answer_parser(spec)
    code_of = {}
    codes, losses = [], []
    for record in records:
        labels = list(map(parse, record["surrogate_generations"]))
        codes += [code_of.setdefault(label, len(code_of)) for label in labels]
        if record["target_generation"] is None:
            losses.append(float(record["target_loss"]))
            continue
        predicted = parse(record["target_generation"])
        expected = parse(str(record["gold_answer"]))
        losses.append(0.0 if predicted == expected != UNPARSED_LABEL else 1.0)
    unparsed = code_of.get(UNPARSED_LABEL)
    stats = IngestStats(records=len(records), generations=len(codes),
                        parse_failures=codes.count(unparsed), has_losses=True)
    return (tuple(r["id"] for r in records), codes, list(code_of), losses, stats)


def _load_outcome(path, spec):
    try:
        pool, stats = load_pool(path, parser=spec)
    except DataError as exc:
        return str(exc)
    return (pool.ids, pool.codes.ravel().tolist(), list(pool.labels),
            pool.loss_vector().tolist(), stats)


@pytest.mark.parametrize("spec", [MC, EM], ids=["mc_letter", "exact_match"])
def test_parse_memo_matches_per_text_parsing(tmp_path, monkeypatch, spec):
    # a text parsed once and remembered must give what parsing it again
    # gives: the same codes in the same first-seen order, losses, stats and
    # first error, in one range and split, with no memo, with one that
    # evicts on every miss and with the default one
    rng = random.Random(23)

    def no_fork():  # every range is read in-process, each with its own memo
        raise OSError("fork disabled by the test")

    monkeypatch.setattr(os, "fork", no_fork)
    for style in ("repeated", "distinct", "mixed"):
        records = _text_records(rng, 120, style)
        path = write_jsonl(tmp_path / f"{style}.jsonl", records)
        expected = _per_text_outcome(records, spec)
        bad = [dict(r) for r in records]
        bad[90] = dict(bad[90], id="r3")  # a duplicate id after the memo fills
        bad_path = write_jsonl(tmp_path / f"{style}-bad.jsonl", bad)
        expected_error = f"{bad_path}:91: duplicate id 'r3' (first seen on line 4)"
        ends = [i + 1 for i, byte in enumerate(path.read_bytes()) if byte == 10][:-1]
        for memo_texts in (0, 1, ingest._MEMO_TEXTS):
            for cuts in ([], [ends[40]], [ends[0], ends[70]]):
                for block in (ingest._READ_BLOCK, 500):
                    with monkeypatch.context() as patch:
                        patch.setattr(ingest, "_MEMO_TEXTS", memo_texts)
                        patch.setattr(ingest, "_READ_BLOCK", block)
                        patch.setattr(ingest, "_byte_ranges", lambda p: list(
                            zip([0] + cuts, cuts + [os.path.getsize(p)])))
                        outcome = (style, memo_texts, cuts, block)
                        assert _load_outcome(path, spec) == expected, outcome
                        assert _load_outcome(bad_path, spec) == expected_error, outcome
    # one read parses each distinct generation and target text once
    parsed = []

    def counting_parser(spec):
        parse = answer_parser(spec)

        def counted(text):
            parsed.append(text)
            return parse(text)

        return counted

    monkeypatch.setattr(ingest, "answer_parser", counting_parser)
    records = _text_records(rng, 120, "repeated")
    _load_outcome(write_jsonl(tmp_path / "count.jsonl", records), spec)
    generations = {text for r in records for text in r["surrogate_generations"]}
    targets = {r["target_generation"] for r in records} | {str(r["gold_answer"]) for r in records}
    assert len(parsed) == len(generations) + len(targets) < 4 * len(records)
