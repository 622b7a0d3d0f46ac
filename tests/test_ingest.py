import json

import numpy as np
import pytest

from active_eval import (
    DataError,
    ParserSpec,
    export_pool,
    finite_pool_risk,
    load_pool,
    parse_answer,
    reference_pool,
)
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
