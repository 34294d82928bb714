"""The static, complete data repository ``R`` used for imputation.

The paper assumes a repository of complete historical records collected from
the same application (Section 2.2).  The repository exposes the attribute
domains ``dom(A_j)`` (all values observed for an attribute), which the CDD
imputation uses as the candidate pool, and supports incremental extension
with new complete samples (Section 5.5, dynamic repository).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.core.similarity import text_distance, tokenize
from repro.core.tuples import Record, Schema


class RepositoryError(ValueError):
    """Raised when the repository is fed inconsistent data."""


@dataclass
class DataRepository:
    """A collection of complete sample tuples ``s ∈ R``.

    Parameters
    ----------
    schema:
        The shared attribute schema.
    samples:
        Complete records; a record with a missing schema attribute is
        rejected because the imputation rules assume complete samples.
    """

    schema: Schema
    samples: List[Record] = field(default_factory=list)
    _domains: Dict[str, List[str]] = field(default_factory=dict, repr=False)
    _domain_sets: Dict[str, Set[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        existing = list(self.samples)
        self.samples = []
        # Always rebuild the domain caches from scratch: a caller may hand us
        # pre-populated caches (``dataclasses.replace`` copies them from the
        # source repository), and re-adding the samples into shared or stale
        # dicts would double-count domains — ``domain_size`` would then stay
        # wrong forever, including after every later ``extend``.
        self._domains = {}
        self._domain_sets = {}
        for sample in existing:
            self.add_sample(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    # -- mutation ------------------------------------------------------------
    def add_sample(self, sample: Record) -> None:
        """Insert one complete sample (Section 5.5 incremental updates)."""
        missing = sample.missing_attributes(self.schema)
        if missing:
            raise RepositoryError(
                f"repository samples must be complete; {sample.rid} misses {missing}")
        self.samples.append(sample)
        for attribute in self.schema:
            value = sample[attribute]
            assert value is not None
            bucket = self._domain_sets.setdefault(attribute, set())
            if value not in bucket:
                bucket.add(value)
                self._domains.setdefault(attribute, []).append(value)

    def extend(self, samples: Iterable[Record]) -> None:
        """Insert a batch of complete samples."""
        for sample in samples:
            self.add_sample(sample)

    # -- domains ---------------------------------------------------------------
    def domain(self, attribute: str) -> List[str]:
        """``dom(A_j)``: the distinct values of one attribute, insertion order."""
        if attribute not in self.schema:
            raise RepositoryError(f"unknown attribute {attribute!r}")
        return list(self._domains.get(attribute, []))

    def domain_size(self, attribute: str) -> int:
        """Number of distinct values of one attribute."""
        return len(self._domains.get(attribute, []))

    def token_vocabulary(self, attribute: Optional[str] = None) -> Set[str]:
        """All tokens appearing in one attribute (or in the whole repository)."""
        attributes = [attribute] if attribute else list(self.schema)
        vocabulary: Set[str] = set()
        for name in attributes:
            for value in self._domains.get(name, []):
                vocabulary |= tokenize(value)
        return vocabulary

    # -- retrieval -------------------------------------------------------------
    def values(self, attribute: str) -> List[str]:
        """Per-sample values of one attribute (with repetitions)."""
        return [sample[attribute] for sample in self.samples]  # type: ignore[misc]

    def nearest_values(self, attribute: str, value: str, limit: int = 5) -> List[str]:
        """Domain values ranked by Jaccard distance to ``value`` (closest first)."""
        ranked = sorted(self.domain(attribute),
                        key=lambda candidate: text_distance(candidate, value))
        return ranked[:limit]

    def sample_by_rid(self, rid: str) -> Optional[Record]:
        """Find a sample by its identifier (None when absent)."""
        for sample in self.samples:
            if sample.rid == rid:
                return sample
        return None

    def subset(self, fraction: float, seed: int = 0) -> "DataRepository":
        """Deterministic subsample of the repository (used for the η sweeps)."""
        if not 0.0 < fraction <= 1.0:
            raise RepositoryError(f"fraction must be in (0, 1], got {fraction}")
        count = max(1, int(round(len(self.samples) * fraction)))
        stride = max(1, len(self.samples) // count)
        chosen = self.samples[seed % max(stride, 1)::stride][:count]
        if not chosen:
            chosen = self.samples[:count]
        return DataRepository(schema=self.schema, samples=list(chosen))

    @classmethod
    def from_records(cls, records: Iterable[Record], schema: Schema,
                     drop_incomplete: bool = True) -> "DataRepository":
        """Build a repository, optionally skipping incomplete records."""
        repository = cls(schema=schema, samples=[])
        for record in records:
            if drop_incomplete and not record.is_complete(schema):
                continue
            repository.add_sample(record)
        return repository
