"""Surrogate-side uncertainty signals computed from parsed answer labels.

Both signals derive from the histogram of the k surrogate answers for one
input: semantic entropy is the Shannon entropy of the answer frequencies
(natural log, so the range is [0, ln k]) and self-consistency is the modal
answer's frequency share (range [1/k, 1]). They are pure functions of the
answer multiset, so entropy is 0 exactly when self-consistency is 1.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

from .errors import DataError

# Reserved label for generations the parser could not map to an answer.
# Unparsed generations count as their own semantic class so that the
# frequency mass in both signals still sums to one.
UNPARSED_LABEL = "<unparsed>"


def answer_histogram(answers: Sequence[str]) -> Counter:
    """Occurrence count per canonical answer label."""
    if len(answers) == 0:
        raise DataError("answer list is empty")
    for a in answers:
        if not isinstance(a, str) or a == "":
            raise DataError(f"answer labels must be non-empty strings, got {a!r}")
    return Counter(answers)


def semantic_entropy(answers: Sequence[str]) -> float:
    """Shannon entropy (nats) of the answer-label frequencies.

    Returns exactly 0.0 when all answers agree; the maximum ln(k) is
    attained when all k answers are distinct.
    """
    counts = answer_histogram(answers)
    if len(counts) == 1:
        return 0.0
    k = len(answers)
    # sum in a fixed order (largest count first) so the float depends only
    # on the count profile, not on the order or naming of the answers
    return -sum((n / k) * math.log(n / k) for n in sorted(counts.values(), reverse=True))


def self_consistency(answers: Sequence[str]) -> float:
    """Fraction of answers agreeing with the modal answer."""
    counts = answer_histogram(answers)
    return max(counts.values()) / len(answers)
