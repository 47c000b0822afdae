"""Instance mappings — MOMA's central data structure.

A mapping between two logical data sources is "a set of
correspondences { (a, b, s) | a ∈ LDS_A, b ∈ LDS_B, s ∈ [0,1] }"
(Definition 1) stored as a three-column mapping table.  *Same-mappings*
connect instances of the same object type and represent semantic
equality; every other mapping is an *association mapping* (publications
of an author, venue of a publication, co-authors, ...).

The implementation keeps both domain- and range-indexed views so that
merge, compose and the Relative similarity functions (which need
out-/in-degrees) are all linear in the number of correspondences.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.correspondence import Correspondence, validate_similarity


class MappingKind(str, Enum):
    """Same-mappings assert equality; association mappings relate types."""

    SAME = "same"
    ASSOCIATION = "association"


class Mapping:
    """A fuzzy instance mapping between a domain LDS and a range LDS.

    ``domain`` and ``range`` are the *names* of the logical sources
    (e.g. ``"DBLP.Publication"``); keeping names instead of object
    references makes mappings trivially serializable into the
    repository's relational mapping tables.  A mapping whose domain and
    range coincide is a *self-mapping* (duplicate structure within one
    source, paper §2.1/§4.3).
    """

    __slots__ = ("domain", "range", "kind", "name", "_by_domain", "_by_range")

    def __init__(self, domain: str, range: str,
                 kind: MappingKind = MappingKind.SAME,
                 name: Optional[str] = None) -> None:
        if not domain or not range:
            raise ValueError("mapping requires non-empty domain and range names")
        self.domain = domain
        self.range = range
        self.kind = MappingKind(kind)
        self.name = name
        self._by_domain: Dict[str, Dict[str, float]] = {}
        self._by_range: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_correspondences(cls, domain: str, range: str,
                             correspondences: Iterable[Tuple[str, str, float]],
                             kind: MappingKind = MappingKind.SAME,
                             name: Optional[str] = None) -> "Mapping":
        """Build a mapping from ``(domain id, range id, sim)`` triples."""
        mapping = cls(domain, range, kind=kind, name=name)
        mapping.add_rows(correspondences)
        return mapping

    @classmethod
    def identity(cls, lds_name: str, ids: Iterable[str],
                 name: Optional[str] = None) -> "Mapping":
        """The identity same-mapping of a source: every id maps to itself.

        Used as the "trivial same-mapping" when running the
        neighborhood matcher within a single source (paper §4.3).
        """
        mapping = cls(lds_name, lds_name, kind=MappingKind.SAME, name=name)
        for id in ids:
            mapping.add(id, id, 1.0)
        return mapping

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, domain_id: str, range_id: str, similarity: float,
            *, on_conflict: str = "max") -> None:
        """Insert a correspondence.

        ``on_conflict`` resolves repeated (domain, range) pairs:
        ``"max"`` (default) keeps the larger similarity, ``"replace"``
        overwrites, ``"error"`` raises.
        """
        similarity = validate_similarity(similarity)
        row = self._by_domain.get(domain_id)
        if row is not None and range_id in row:
            if on_conflict == "max":
                if similarity <= row[range_id]:
                    return
            elif on_conflict == "error":
                raise ValueError(
                    f"duplicate correspondence ({domain_id!r}, {range_id!r})"
                )
            elif on_conflict != "replace":
                raise ValueError(f"unknown on_conflict policy {on_conflict!r}")
        self._by_domain.setdefault(domain_id, {})[range_id] = similarity
        self._by_range.setdefault(range_id, {})[domain_id] = similarity

    def add_rows(self, rows: Iterable[Tuple[str, str, float]]) -> None:
        """Insert many ``(domain id, range id, similarity)`` rows.

        Exactly ``add(*row)`` per row, in order — the same validation,
        the same keep-the-larger policy for a repeated pair — as one
        loop over both indexes instead of a call per row.  This is how
        the engine loads its surviving rows.
        """
        by_domain = self._by_domain
        by_range = self._by_range
        for domain_id, range_id, similarity in rows:
            similarity = validate_similarity(similarity)
            row = by_domain.get(domain_id)
            if row is None:
                row = by_domain[domain_id] = {}
            elif similarity <= row.get(range_id, -1.0):
                continue
            row[range_id] = similarity
            back = by_range.get(range_id)
            if back is None:
                back = by_range[range_id] = {}
            back[domain_id] = similarity

    def remove(self, domain_id: str, range_id: str) -> bool:
        """Delete a correspondence; return whether it existed."""
        row = self._by_domain.get(domain_id)
        if row is None or range_id not in row:
            return False
        del row[range_id]
        if not row:
            del self._by_domain[domain_id]
        back = self._by_range[range_id]
        del back[domain_id]
        if not back:
            del self._by_range[range_id]
        return True

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def get(self, domain_id: str, range_id: str) -> Optional[float]:
        """Similarity of the pair, or ``None`` if absent."""
        row = self._by_domain.get(domain_id)
        if row is None:
            return None
        return row.get(range_id)

    def __contains__(self, pair: Tuple[str, str]) -> bool:
        domain_id, range_id = pair
        row = self._by_domain.get(domain_id)
        return row is not None and range_id in row

    def __len__(self) -> int:
        return sum(len(row) for row in self._by_domain.values())

    def __bool__(self) -> bool:
        return bool(self._by_domain)

    def __iter__(self) -> Iterator[Correspondence]:
        for domain_id, row in self._by_domain.items():
            for range_id, similarity in row.items():
                yield Correspondence(domain_id, range_id, similarity)

    def correspondences(self) -> List[Correspondence]:
        """Return all correspondences as a list (mapping-table rows)."""
        return list(self)

    def pairs(self) -> Set[Tuple[str, str]]:
        """The set of (domain id, range id) pairs, similarity dropped."""
        return {
            (domain_id, range_id)
            for domain_id, row in self._by_domain.items()
            for range_id in row
        }

    def range_ids_of(self, domain_id: str) -> Dict[str, float]:
        """Correspondences of one domain object as ``{range id: sim}``."""
        return dict(self._by_domain.get(domain_id, {}))

    def domain_ids_of(self, range_id: str) -> Dict[str, float]:
        """Correspondences of one range object as ``{domain id: sim}``."""
        return dict(self._by_range.get(range_id, {}))

    def domain_ids(self) -> Set[str]:
        """Domain objects covered by at least one correspondence."""
        return set(self._by_domain)

    def range_ids(self) -> Set[str]:
        """Range objects covered by at least one correspondence."""
        return set(self._by_range)

    def out_degree(self, domain_id: str) -> int:
        """n(a): number of correspondences of ``domain_id`` (Fig. 5)."""
        return len(self._by_domain.get(domain_id, {}))

    def in_degree(self, range_id: str) -> int:
        """n(b): number of correspondences onto ``range_id`` (Fig. 5)."""
        return len(self._by_range.get(range_id, {}))

    # internal read-only views used by the operators (no copies)
    @property
    def by_domain(self) -> Dict[str, Dict[str, float]]:
        return self._by_domain

    @property
    def by_range(self) -> Dict[str, Dict[str, float]]:
        return self._by_range

    # ------------------------------------------------------------------
    # derived mappings
    # ------------------------------------------------------------------

    def inverse(self, name: Optional[str] = None) -> "Mapping":
        """The inverse mapping (domain and range exchanged).

        The explicit mapping representation exists precisely so that
        "we can easily determine and use the inverse mapping" (§2.1).
        """
        inverted = Mapping(self.range, self.domain, kind=self.kind, name=name)
        for domain_id, row in self._by_domain.items():
            for range_id, similarity in row.items():
                inverted.add(range_id, domain_id, similarity)
        return inverted

    def copy(self, name: Optional[str] = None) -> "Mapping":
        """Deep copy (correspondence dictionaries are not shared)."""
        duplicate = Mapping(self.domain, self.range, kind=self.kind,
                            name=name if name is not None else self.name)
        for domain_id, row in self._by_domain.items():
            duplicate._by_domain[domain_id] = dict(row)
        for range_id, row in self._by_range.items():
            duplicate._by_range[range_id] = dict(row)
        return duplicate

    def filter(self, predicate: Callable[[Correspondence], bool],
               name: Optional[str] = None) -> "Mapping":
        """Keep only correspondences satisfying ``predicate``."""
        result = Mapping(self.domain, self.range, kind=self.kind, name=name)
        for correspondence in self:
            if predicate(correspondence):
                result.add(*correspondence)
        return result

    def restrict_domain(self, ids: Iterable[str]) -> "Mapping":
        """Keep only correspondences whose domain id is in ``ids``."""
        wanted = set(ids)
        result = Mapping(self.domain, self.range, kind=self.kind)
        for domain_id in wanted:
            for range_id, similarity in self._by_domain.get(domain_id, {}).items():
                result.add(domain_id, range_id, similarity)
        return result

    def restrict_range(self, ids: Iterable[str]) -> "Mapping":
        """Keep only correspondences whose range id is in ``ids``."""
        wanted = set(ids)
        result = Mapping(self.domain, self.range, kind=self.kind)
        for range_id in wanted:
            for domain_id, similarity in self._by_range.get(range_id, {}).items():
                result.add(domain_id, range_id, similarity)
        return result

    def scale(self, factor: float) -> "Mapping":
        """Multiply every similarity by ``factor`` (clamped to 1.0)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        result = Mapping(self.domain, self.range, kind=self.kind)
        for domain_id, range_id, similarity in self:
            result.add(domain_id, range_id, min(1.0, similarity * factor))
        return result

    def without_identity(self) -> "Mapping":
        """Drop trivial self-correspondences (domain id == range id).

        This is the paper's final dedup selection step
        ``select($Merged, "[domain.id]<>[range.id]")`` (§4.3).
        """
        return self.filter(lambda corr: corr.domain != corr.range)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def is_self_mapping(self) -> bool:
        """True when domain and range are the same logical source."""
        return self.domain == self.range

    def to_rows(self) -> List[Tuple[str, str, float]]:
        """Mapping-table rows, deterministically sorted."""
        return sorted(
            (corr.domain, corr.range, corr.similarity) for corr in self
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.range == other.range
            and self.kind == other.kind
            and self._by_domain == other._by_domain
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Mapping{label}({self.domain!r} -> {self.range!r}, "
            f"{self.kind.value}, {len(self)} correspondences)"
        )
