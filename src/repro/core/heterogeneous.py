"""Heterogeneous-schema similarity — the extension sketched in Section 2.3.

The paper's similarity function (Definition 5) assumes homogeneous schemas
and sums per-attribute Jaccard similarities.  For data sets with
*heterogeneous* schemas it proposes instead the Jaccard similarity between
the token sets of the whole tuples, ``|T(r) ∩ T(r')| / |T(r) ∪ T(r')|``,
leaving the integration as future work.  This module implements that
variant together with a matching probability and a small matcher, so the
library also covers streams whose sources disagree on attribute names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional

from repro.core.matching import MatchPair
from repro.core.similarity import jaccard_similarity
from repro.core.tuples import ImputedRecord, Record, Schema


def record_token_set(record: Record, schema: Optional[Schema] = None) -> frozenset:
    """Union of the record's token sets over its own attributes.

    When ``schema`` is given only those attributes are considered; otherwise
    every attribute present in the record contributes (the heterogeneous
    case, where different records may carry different attributes).
    """
    names = list(schema) if schema is not None else list(record.values)
    tokens: set = set()
    for name in names:
        tokens |= record.tokens(name)
    return frozenset(tokens)


def heterogeneous_similarity(left: Record, right: Record,
                             left_schema: Optional[Schema] = None,
                             right_schema: Optional[Schema] = None) -> float:
    """Whole-tuple Jaccard similarity ``|T(r) ∩ T(r')| / |T(r) ∪ T(r')|``.

    The score lies in ``[0, 1]`` (unlike the homogeneous sum, which lies in
    ``[0, d]``), so thresholds for this variant are plain Jaccard thresholds.
    """
    return jaccard_similarity(record_token_set(left, left_schema),
                              record_token_set(right, right_schema))


def heterogeneous_probability(left: ImputedRecord, right: ImputedRecord,
                              keywords: FrozenSet[str], gamma: float) -> float:
    """Equation (2) with the heterogeneous similarity in place of Eq. (1)."""
    total = 0.0
    for left_instance in left.instances():
        for right_instance in right.instances():
            if keywords:
                left_tokens = record_token_set(left_instance.record, left.schema)
                right_tokens = record_token_set(right_instance.record, right.schema)
                if not any(keyword in left_tokens or keyword in right_tokens
                           for keyword in keywords):
                    continue
            similarity = heterogeneous_similarity(
                left_instance.record, right_instance.record,
                left.schema, right.schema)
            if similarity > gamma:
                total += left_instance.probability * right_instance.probability
    return total


@dataclass
class HeterogeneousMatcher:
    """A small nested-loop matcher for streams with differing schemas.

    This is deliberately simple (no grid, no pivot bounds): the purpose is
    API completeness for the heterogeneous extension, not the indexed fast
    path, which the paper leaves to future work.
    """

    keywords: FrozenSet[str]
    gamma: float
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(
                f"heterogeneous gamma is a Jaccard threshold in (0, 1), got {self.gamma}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")

    def match_pair(self, left: ImputedRecord,
                   right: ImputedRecord) -> Optional[MatchPair]:
        """Return a match pair when the pair qualifies, else ``None``."""
        probability = heterogeneous_probability(left, right, self.keywords,
                                                self.gamma)
        if probability <= self.alpha:
            return None
        return MatchPair(left_rid=left.rid, left_source=left.source,
                         right_rid=right.rid, right_source=right.source,
                         probability=probability,
                         timestamp=max(left.timestamp, right.timestamp))

    def match_against(self, query: ImputedRecord,
                      candidates: Iterable[ImputedRecord]) -> List[MatchPair]:
        """Match one tuple against a candidate collection (cross-source only)."""
        matches = []
        for candidate in candidates:
            if candidate.source == query.source:
                continue
            pair = self.match_pair(query, candidate)
            if pair is not None:
                matches.append(pair)
        return matches
