"""Instance mappings — MOMA's central data structure.

A mapping between two logical data sources is "a set of
correspondences { (a, b, s) | a ∈ LDS_A, b ∈ LDS_B, s ∈ [0,1] }"
(Definition 1) stored as a three-column mapping table.  *Same-mappings*
connect instances of the same object type and represent semantic
equality; every other mapping is an *association mapping* (publications
of an author, venue of a publication, co-authors, ...).

The table has two forms.  Operators and the engine produce and consume
its **columns** (:class:`Columns`: one interned int32 id code per side
and a float64 similarity per row); matchers, scripts and evaluation
read it through the **dict views** ``by_domain`` / ``by_range``.  Each
form is built from the other on first use and kept; ``add`` /
``add_rows`` / ``remove`` write the domain-indexed dict and drop the
rest, so no form is ever stale.

Row order is part of the contract: rows are grouped by domain id,
groups in the order their domain id first appeared, rows of a group in
the order they were added — exactly the iteration order of the
``by_domain`` dict of dicts.  ``list(mapping)``, the columns and every
view derived from them follow it (``docs/architecture.md``).
"""

from __future__ import annotations

import threading
import weakref
from enum import Enum
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np
from numpy.typing import NDArray

from repro.core.correspondence import Correspondence, validate_similarity

Array = NDArray[Any]
View = Dict[str, Dict[str, float]]


class MappingKind(str, Enum):
    """Same-mappings assert equality; association mappings relate types."""

    SAME = "same"
    ASSOCIATION = "association"


class IdSpace:
    """The interned ids of one logical source: id string <-> int code.

    Codes are handed out in interning order and never change, so the
    columns of two mappings over the same space compare and join as
    integers.
    """

    __slots__ = ("ids", "codes", "_lock", "__weakref__")

    def __init__(self) -> None:
        self.ids: List[str] = []
        self.codes: Dict[str, int] = {}
        self._lock = threading.Lock()

    def intern(self, ids: Iterable[str]) -> Array:
        """int32 codes of ``ids``; an unseen id gets the next code."""
        codes, known = self.codes, self.ids
        out: List[int] = []
        with self._lock:
            for id in ids:
                code = codes.get(id)
                if code is None:
                    code = codes[id] = len(known)
                    known.append(id)
                out.append(code)
        return np.asarray(out, dtype=np.int32)


#: the live id space of each logical-source *name*.  Weak: a space
#: lives exactly as long as some mapping's columns hold it, and while
#: it lives every mapping over that name finds the same one — which is
#: what makes their codes comparable.
_SPACES: "weakref.WeakValueDictionary[str, IdSpace]" = \
    weakref.WeakValueDictionary()
_SPACES_LOCK = threading.Lock()


def id_space(name: str) -> IdSpace:
    """The id space of the logical source called ``name``."""
    with _SPACES_LOCK:
        space = _SPACES.get(name)
        if space is None:
            space = _SPACES[name] = IdSpace()
        return space


class Columns(NamedTuple):
    """A mapping table as arrays, one entry per row, in row order.

    The arrays are shared between mappings (``copy``, ``take``) and
    never written to.
    """

    domain_space: IdSpace
    range_space: IdSpace
    domain: Array  # int32 codes in ``domain_space``
    range: Array  # int32 codes in ``range_space``
    sims: Array  # float64

    def take(self, rows: Array) -> "Columns":
        """The rows selected by an index array or boolean mask."""
        return self._replace(domain=self.domain[rows],
                             range=self.range[rows], sims=self.sims[rows])

    def pair_keys(self) -> Array:
        """One int64 per row, equal exactly for equal (domain, range)."""
        return (self.domain.astype(np.int64) << 32) | self.range

    def keys_in(self, other: "Columns") -> Array:
        """:meth:`pair_keys` of these rows as ``other``'s spaces code them.

        Comparable with ``other.pair_keys()`` whatever source *names*
        the two tables were declared under; a row with an id
        ``other``'s spaces do not hold gets -1, which no pair key is.
        """
        domain = recode(self.domain_space, self.domain, other.domain_space)
        range_ = recode(self.range_space, self.range, other.range_space)
        keys = (domain.astype(np.int64) << 32) | range_
        keys[(domain < 0) | (range_ < 0)] = -1
        return keys

    def isin(self, other: "Columns") -> Array:
        """Boolean per row: whether ``other`` holds the row's pair too
        (both tables hold distinct pairs, as a mapping's do)."""
        keys = other.keys_in(self)
        return np.isin(self.pair_keys(), keys[keys >= 0], assume_unique=True)


def recode(space: IdSpace, codes: Array, target: IdSpace) -> Array:
    """``codes`` of ``space`` as ``target`` codes the same ids (-1
    where it holds no such id; nothing is interned)."""
    if space is target:
        return codes
    known = target.codes.get
    table = np.fromiter((known(id, -1) for id in space.ids),
                        dtype=np.int32, count=len(space.ids))
    return table[codes]


class SourceCodes(NamedTuple):
    """A logical source's rows in the id space of its name: the bridge
    between the engine's row indices (``source.ids()`` order) and the
    mappings' codes.  It holds the space strongly, so while a source
    keeps its bridge no id of that name can be dealt another code.
    """

    space: IdSpace
    codes: Array  # int32: the code of ``source.ids()[row]``
    #: int32: the row of a code, -1 for an id of the name that is not
    #: this source's; one slot longer than the space was, so that
    #: index -1 reads -1 too
    rows: Array
    index: Dict[str, int]  # id -> row

    def rows_of(self, codes: Array) -> Array:
        """The rows of ``codes`` (of ``space``, or -1): -1 where this
        source has no such id.  A code past ``rows`` was interned after
        the bridge was built, by another source of the name."""
        return self.rows[np.where(codes < len(self.rows), codes, -1)]


def source_codes(source: Any) -> SourceCodes:
    """``source``'s bridge, kept by the source like its posting lists
    and packed columns (``LogicalSource.derived``, key
    ``("id-codes",)``): dropped when the source grows."""
    def build() -> SourceCodes:
        ids = source.ids()
        space = id_space(source.name)
        codes = space.intern(ids)
        rows = np.full(len(space.ids) + 1, -1, dtype=np.int32)
        rows[codes] = np.arange(len(ids), dtype=np.int32)
        return SourceCodes(space, codes, rows,
                           {id: row for row, id in enumerate(ids)})

    return source.derived(("id-codes",), build)


def concatenate(tables: Sequence[Columns]) -> Columns:
    """The rows of ``tables`` (all over the same spaces), one after another."""
    return tables[0]._replace(
        domain=np.concatenate([table.domain for table in tables]),
        range=np.concatenate([table.range for table in tables]),
        sims=np.concatenate([table.sims for table in tables]))


def distinct_keys(keys: Array) -> Tuple[Array, Array]:
    """The distinct values of ``keys`` in order of first occurrence.

    Returns ``(first, slot)``: ``first[j]`` is the row where the j-th
    distinct key first occurs (ascending) and ``slot[i]`` the ``j`` of
    row ``i`` — a key table that ``np.bincount(slot, weights=...)``
    and ``ufunc.at(out, slot, ...)`` aggregate over in row order.
    """
    if len(keys) == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    order = np.argsort(keys)
    ordered = keys[order]
    opens = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    # a group's first row is its smallest, however the sort left ties
    group_first = np.minimum.reduceat(order, np.flatnonzero(opens))
    by_first = np.argsort(group_first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    slot = np.empty_like(order)
    slot[order] = rank[np.cumsum(opens) - 1]
    return group_first[by_first], slot


def regroup(columns: Columns) -> Columns:
    """Rows stably regrouped by domain, groups by first occurrence.

    Turns distinct pairs listed in insertion order into row order —
    what inserting them one by one into ``by_domain`` does.
    """
    _, slot = distinct_keys(columns.domain)
    if (np.diff(slot) >= 0).all():
        return columns
    return columns.take(np.argsort(slot, kind="stable"))


def canonical(columns: Columns) -> Columns:
    """The table that ``add_rows`` builds from ``columns``' rows.

    A repeated pair keeps its first position and its largest
    similarity; then :func:`regroup`.
    """
    first, slot = distinct_keys(columns.pair_keys())
    if len(first) < len(slot):
        best = np.zeros(len(first), dtype=np.float64)
        np.maximum.at(best, slot, columns.sims)
        columns = columns.take(first)._replace(sims=best)
    return regroup(columns)


def validated(sims: Array) -> Array:
    """``sims`` as float64, every one checked like ``validate_similarity``."""
    sims = np.asarray(sims, dtype=np.float64)
    valid = (sims >= 0.0) & (sims <= 1.0)
    if not valid.all():
        raise ValueError("similarity must be within [0, 1], got "
                         f"{sims[~valid][0]!r}")
    return sims


def _index(keys: Iterable[str], others: Iterable[str],
           sims: Iterable[float]) -> View:
    """``{key: {other: sim}}`` over rows, in row order."""
    view: View = {}
    for key, other, sim in zip(keys, others, sims):
        row = view.get(key)
        if row is None:
            row = view[key] = {}
        row[other] = sim
    return view


class Mapping:
    """A fuzzy instance mapping between a domain LDS and a range LDS.

    ``domain`` and ``range`` are the *names* of the logical sources
    (e.g. ``"DBLP.Publication"``); keeping names instead of object
    references makes mappings trivially serializable into the
    repository's relational mapping tables.  A mapping whose domain and
    range coincide is a *self-mapping* (duplicate structure within one
    source, paper §2.1/§4.3).
    """

    __slots__ = ("domain", "range", "kind", "name",
                 "_columns", "_by_domain", "_by_range")

    def __init__(self, domain: str, range: str,
                 kind: MappingKind = MappingKind.SAME,
                 name: Optional[str] = None) -> None:
        if not domain or not range:
            raise ValueError("mapping requires non-empty domain and range names")
        self.domain = domain
        self.range = range
        self.kind = MappingKind(kind)
        self.name = name
        # at least one of _columns / _by_domain is set; _by_range is
        # only ever a view of them
        self._columns: Optional[Columns] = None
        self._by_domain: Optional[View] = {}
        self._by_range: Optional[View] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, domain: str, range: str, columns: Columns, *,
           kind: MappingKind = MappingKind.SAME,
           name: Optional[str] = None) -> "Mapping":
        """The mapping whose table *is* ``columns``.

        For operators: ``columns`` must hold distinct pairs in row
        order with valid similarities (:func:`canonical` makes any
        rows so).
        """
        mapping = cls(domain, range, kind=kind, name=name)
        mapping._columns = columns
        mapping._by_domain = None
        return mapping

    @classmethod
    def from_columns(cls, domain: str, range: str,
                     domain_codes: SourceCodes, range_codes: SourceCodes,
                     rows_a: Array, rows_b: Array, sims: Array, *,
                     kind: MappingKind = MappingKind.SAME,
                     name: Optional[str] = None,
                     mirrored: bool = False) -> "Mapping":
        """:meth:`add_rows` as one array pass.

        Row ``i`` relates the sources' rows ``rows_a[i]`` and
        ``rows_b[i]`` (:func:`source_codes` of the two sources) with
        ``sims[i]`` — how the engine's surviving row arrays become a
        mapping without passing through id strings.  Same validation,
        same keep-the-larger policy for a repeated pair, same row
        order as adding the rows one by one.  ``mirrored`` (the two
        sources share an id space: self-matching) adds every row the
        other way round too, right after it.
        """
        codes_a, codes_b = domain_codes.codes[rows_a], range_codes.codes[rows_b]
        if mirrored:
            codes_a, codes_b = (np.stack((codes_a, codes_b), axis=1).ravel(),
                                np.stack((codes_b, codes_a), axis=1).ravel())
            sims = np.repeat(sims, 2)
        columns = Columns(domain_codes.space, range_codes.space,
                          codes_a, codes_b, validated(sims))
        return cls.of(domain, range, canonical(columns), kind=kind, name=name)

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
        space = id_space(lds_name)
        codes = space.intern(ids)
        return cls.of(lds_name, lds_name, canonical(Columns(
            space, space, codes, codes, np.ones(len(codes)))), name=name)

    def __reduce__(self) -> Tuple[Any, ...]:
        # id spaces are per process: pickle the rows, not the codes
        return (Mapping.from_correspondences,
                (self.domain, self.range, list(self), self.kind, self.name))

    # ------------------------------------------------------------------
    # the two forms
    # ------------------------------------------------------------------

    def columns(self) -> Columns:
        """The mapping table as arrays (rebuilt after a mutation)."""
        columns = self._columns
        if columns is None:
            domain_ids, range_ids, sims = self._rows()
            space_a, space_b = id_space(self.domain), id_space(self.range)
            columns = self._columns = Columns(
                space_a, space_b, space_a.intern(domain_ids),
                space_b.intern(range_ids),
                np.fromiter(sims, dtype=np.float64))
        return columns

    def _rows(self) -> Tuple[Iterable[str], Iterable[str], Iterable[float]]:
        """Domain ids, range ids and similarities, row by row."""
        columns = self._columns
        if columns is not None:
            return (map(columns.domain_space.ids.__getitem__,
                        columns.domain.tolist()),
                    map(columns.range_space.ids.__getitem__,
                        columns.range.tolist()),
                    columns.sims.tolist())
        by_domain = self.by_domain
        return ([key for key, row in by_domain.items() for _ in row],
                chain.from_iterable(by_domain.values()),
                chain.from_iterable(row.values()
                                    for row in by_domain.values()))

    @property
    def by_domain(self) -> View:
        """``{domain id: {range id: sim}}`` — read-only for callers."""
        view = self._by_domain
        if view is None:
            view = self._by_domain = _index(*self._rows())
        return view

    @property
    def by_range(self) -> View:
        """``{range id: {domain id: sim}}`` — read-only for callers."""
        view = self._by_range
        if view is None:
            domain_ids, range_ids, sims = self._rows()
            view = self._by_range = _index(range_ids, domain_ids, sims)
        return view

    def _writable(self) -> View:
        """``by_domain``, about to change: the forms derived from it go."""
        by_domain = self.by_domain
        self._columns = self._by_range = None
        return by_domain

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
        by_domain = self._writable()
        row = by_domain.get(domain_id)
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
        by_domain.setdefault(domain_id, {})[range_id] = similarity

    def add_rows(self, rows: Iterable[Tuple[str, str, float]]) -> None:
        """Insert many ``(domain id, range id, similarity)`` rows.

        Exactly ``add(*row)`` per row, in order — the same validation,
        the same keep-the-larger policy for a repeated pair — as one
        loop instead of a call per row.
        """
        by_domain = self._writable()
        for domain_id, range_id, similarity in rows:
            similarity = validate_similarity(similarity)
            row = by_domain.get(domain_id)
            if row is None:
                row = by_domain[domain_id] = {}
            elif similarity <= row.get(range_id, -1.0):
                continue
            row[range_id] = similarity

    def remove(self, domain_id: str, range_id: str) -> bool:
        """Delete a correspondence; return whether it existed."""
        if (domain_id, range_id) not in self:
            return False
        by_domain = self._writable()
        del by_domain[domain_id][range_id]
        if not by_domain[domain_id]:
            del by_domain[domain_id]
        return True

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def get(self, domain_id: str, range_id: str) -> Optional[float]:
        """Similarity of the pair, or ``None`` if absent."""
        row = self.by_domain.get(domain_id)
        if row is None:
            return None
        return row.get(range_id)

    def __contains__(self, pair: Tuple[str, str]) -> bool:
        domain_id, range_id = pair
        return range_id in self.by_domain.get(domain_id, ())

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns.sims)
        return sum(len(row) for row in self.by_domain.values())

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Correspondence]:
        return map(Correspondence, *self._rows())

    def correspondences(self) -> List[Correspondence]:
        """Return all correspondences as a list (mapping-table rows)."""
        return list(self)

    def id_pairs(self) -> Iterator[Tuple[str, str]]:
        """The (domain id, range id) of every row, in row order."""
        domain_ids, range_ids, _ = self._rows()
        return zip(domain_ids, range_ids)

    def pairs(self) -> Set[Tuple[str, str]]:
        """The set of (domain id, range id) pairs, similarity dropped."""
        return set(self.id_pairs())

    def range_ids_of(self, domain_id: str) -> Dict[str, float]:
        """Correspondences of one domain object as ``{range id: sim}``."""
        return dict(self.by_domain.get(domain_id, {}))

    def domain_ids_of(self, range_id: str) -> Dict[str, float]:
        """Correspondences of one range object as ``{domain id: sim}``."""
        return dict(self.by_range.get(range_id, {}))

    def domain_ids(self) -> Set[str]:
        """Domain objects covered by at least one correspondence."""
        return set(self.by_domain)

    def range_ids(self) -> Set[str]:
        """Range objects covered by at least one correspondence."""
        return set(self.by_range)

    def out_degree(self, domain_id: str) -> int:
        """n(a): number of correspondences of ``domain_id`` (Fig. 5)."""
        return len(self.by_domain.get(domain_id, ()))

    def in_degree(self, range_id: str) -> int:
        """n(b): number of correspondences onto ``range_id`` (Fig. 5)."""
        return len(self.by_range.get(range_id, ()))

    # ------------------------------------------------------------------
    # derived mappings
    # ------------------------------------------------------------------

    def take(self, rows: Array, name: Optional[str] = None) -> "Mapping":
        """The rows selected by a boolean mask (or ascending indices)."""
        return Mapping.of(self.domain, self.range, self.columns().take(rows),
                          kind=self.kind, name=name)

    def inverse(self, name: Optional[str] = None) -> "Mapping":
        """The inverse mapping (domain and range exchanged).

        The explicit mapping representation exists precisely so that
        "we can easily determine and use the inverse mapping" (§2.1).
        """
        columns = self.columns()
        swapped = Columns(columns.range_space, columns.domain_space,
                          columns.range, columns.domain, columns.sims)
        return Mapping.of(self.range, self.domain, regroup(swapped),
                          kind=self.kind, name=name)

    def copy(self, name: Optional[str] = None) -> "Mapping":
        """An independent copy (mutating either leaves the other alone)."""
        return Mapping.of(self.domain, self.range, self.columns(),
                          kind=self.kind,
                          name=name if name is not None else self.name)

    def filter(self, predicate: Callable[[Correspondence], bool],
               name: Optional[str] = None) -> "Mapping":
        """Keep only correspondences satisfying ``predicate``."""
        keep = [bool(predicate(correspondence)) for correspondence in self]
        return self.take(np.asarray(keep, dtype=np.bool_), name=name)

    def _restrict(self, space: IdSpace, codes: Array,
                  ids: Iterable[str]) -> "Mapping":
        wanted = [space.codes[id] for id in ids if id in space.codes]
        return self.take(np.isin(codes, np.asarray(wanted, dtype=np.int32)))

    def restrict_domain(self, ids: Iterable[str]) -> "Mapping":
        """Keep only correspondences whose domain id is in ``ids``."""
        columns = self.columns()
        return self._restrict(columns.domain_space, columns.domain, ids)

    def restrict_range(self, ids: Iterable[str]) -> "Mapping":
        """Keep only correspondences whose range id is in ``ids``."""
        columns = self.columns()
        return self._restrict(columns.range_space, columns.range, ids)

    def scale(self, factor: float) -> "Mapping":
        """Multiply every similarity by ``factor`` (clamped to 1.0)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        columns = self.columns()
        scaled = columns.sims * factor
        return Mapping.of(self.domain, self.range, columns._replace(
            sims=np.where(scaled < 1.0, scaled, 1.0)), kind=self.kind)

    def without_identity(self) -> "Mapping":
        """Drop trivial self-correspondences (domain id == range id).

        This is the paper's final dedup selection step
        ``select($Merged, "[domain.id]<>[range.id]")`` (§4.3).
        """
        columns = self.columns()
        if columns.domain_space is columns.range_space:
            return self.take(columns.domain != columns.range)
        return self.filter(lambda corr: corr.domain != corr.range)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def is_self_mapping(self) -> bool:
        """True when domain and range are the same logical source."""
        return self.domain == self.range

    def to_rows(self) -> List[Tuple[str, str, float]]:
        """Mapping-table rows, deterministically sorted."""
        domain_ids, range_ids, sims = self._rows()
        return sorted(zip(domain_ids, range_ids, sims))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.range == other.range
            and self.kind == other.kind
            and self.to_rows() == other.to_rows()
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Mapping{label}({self.domain!r} -> {self.range!r}, "
            f"{self.kind.value}, {len(self)} correspondences)"
        )


#: what may confine a matcher's candidates: id pairs, or a mapping — an
#: earlier step's result, read as arrays (paper §4.3, Fig. 11)
Candidates = Union[Mapping, Iterable[Tuple[str, str]]]
