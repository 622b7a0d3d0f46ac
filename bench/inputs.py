"""Seeded input generators for the benchmark workloads.

``write_raw_pool`` renders a synthetic pool as the raw-text pool format:
each canonical answer becomes a templated phrasing of an option letter, a
fixed number of generations become text no parser can map, and the target
generation is phrased so that its exact-match loss equals the pool's loss.
It returns what a correct ingest must recover, so the benchmark can check
the loaded pool against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

LETTERS = "ABCD"
# every template parses to its letter under the mc_letter parser
PARSEABLE = (
    "The answer is ({}).",
    "After checking each option, the answer is {}",
    "I think it is {}",
    "Final: [{}]",
    "Option {0} fits best, so the answer is {0}.",
    "{}",
    "So I would pick ({})",
    "My choice: {}!",
)
# no template here contains an option letter or the phrase "answer is"
UNPARSEABLE = (
    "I am not sure about this one.",
    "None of the options look right to me.",
    "Let me think again; I cannot decide.",
    "Hmm, it could be several things.",
    "Unclear without more context.",
)


@dataclass(frozen=True)
class RawPoolTruth:
    """What loading the raw pool file must produce."""

    answers: list  # per record, the tuple of canonical labels
    losses: np.ndarray
    unparsed: int  # generations rendered as unparseable text


def write_raw_pool(pool, path, seed: int, unparsed_share: float, unparsed_label: str):
    """Write ``pool`` as raw surrogate/target generations; return the truth.

    Option labels are rotated per record, so gold answers vary across the
    pool while each record's answer multiset keeps its entropy.
    """
    rng = np.random.default_rng([seed, 7])
    n, k = pool.size, pool.k
    unparsed = int(round(unparsed_share * n * k))
    broken = np.zeros(n * k, dtype=bool)
    broken[rng.choice(n * k, size=unparsed, replace=False)] = True
    broken = broken.reshape(n, k)
    rotation = rng.integers(0, len(LETTERS), size=n)
    phrasing = rng.integers(0, len(PARSEABLE), size=(n, k + 1))
    garbling = rng.integers(0, len(UNPARSEABLE), size=(n, k))
    answers = []
    losses = pool.loss_vector()
    with open(path, "w", encoding="utf-8") as fh:
        for i, inst in enumerate(pool.instances):
            shift = int(rotation[i])
            letters = [
                LETTERS[(LETTERS.index(a) + shift) % len(LETTERS)]
                for a in inst.surrogate_answers
            ]
            texts = []
            labels = []
            for j, letter in enumerate(letters):
                if broken[i, j]:
                    texts.append(UNPARSEABLE[garbling[i, j]])
                    labels.append(unparsed_label)
                else:
                    texts.append(PARSEABLE[phrasing[i, j]].format(letter))
                    labels.append(letter)
            gold = LETTERS[shift]
            said = gold if losses[i] == 0.0 else LETTERS[(shift + 1) % len(LETTERS)]
            record = {
                "id": inst.id,
                "surrogate_generations": texts,
                "gold_answer": gold,
                "target_generation": PARSEABLE[phrasing[i, k]].format(said),
            }
            fh.write(json.dumps(record) + "\n")
            answers.append(tuple(labels))
    return RawPoolTruth(answers=answers, losses=np.array(losses), unparsed=unparsed)


def collect_inputs(op_index: int, count: int) -> list:
    """Surrogate-collection inputs for one collect operation.

    Ids and prompts carry the operation index, so every operation sends
    prompts the endpoint has not seen and injected errors recur per run.
    """
    return [
        {
            "id": f"op{op_index}-q{i:05d}",
            "prompt": f"[op{op_index}-q{i:05d}] Which option is correct? A, B, C or D.",
            "gold_answer": LETTERS[i % len(LETTERS)],
        }
        for i in range(count)
    ]
