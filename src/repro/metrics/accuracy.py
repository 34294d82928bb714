"""Effectiveness metrics: precision, recall and F-score (Equation (6)).

The paper measures the topic-related ER accuracy of each method as the
F-score of the returned pair set against the ground-truth matching pairs
(restricted to pairs that satisfy the topic/keyword constraint, since
non-topic pairs are not supposed to be returned at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set, Tuple

from repro.core.matching import MatchPair

#: Order-independent identity of a ground-truth or reported pair.
PairKey = Tuple[Tuple[str, str], Tuple[str, str]]


def pair_key(left_source: str, left_rid: str,
             right_source: str, right_rid: str) -> PairKey:
    """Canonical (order-independent) identity of a record pair."""
    left = (left_source, left_rid)
    right = (right_source, right_rid)
    return (left, right) if left <= right else (right, left)


def match_pairs_to_keys(pairs: Iterable[MatchPair]) -> Set[PairKey]:
    """Convert reported :class:`MatchPair` objects to canonical keys."""
    return {pair.key() for pair in pairs}


@dataclass(frozen=True)
class AccuracyReport:
    """Precision / recall / F-score of one method on one workload."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f_score(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f_score": self.f_score,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
        }


def evaluate_matches(reported: Iterable[MatchPair],
                     ground_truth: Iterable[PairKey]) -> AccuracyReport:
    """Compare reported pairs against ground-truth pair keys (Equation (6))."""
    reported_keys = match_pairs_to_keys(reported)
    truth_keys = set(ground_truth)
    true_positives = len(reported_keys & truth_keys)
    false_positives = len(reported_keys - truth_keys)
    false_negatives = len(truth_keys - reported_keys)
    return AccuracyReport(true_positives=true_positives,
                          false_positives=false_positives,
                          false_negatives=false_negatives)


def evaluate_key_sets(reported: Set[PairKey],
                      ground_truth: Set[PairKey]) -> AccuracyReport:
    """Same as :func:`evaluate_matches` but on pre-computed key sets."""
    true_positives = len(reported & ground_truth)
    return AccuracyReport(
        true_positives=true_positives,
        false_positives=len(reported) - true_positives,
        false_negatives=len(ground_truth) - true_positives,
    )
