"""Incremental indexed reference store for the match service.

The offline engine builds its columns (:mod:`repro.engine.columns`)
*per request* — fine for batch jobs, wasteful for a standing service
whose reference barely changes between queries.
:class:`IncrementalIndex` keeps the very same column objects
**persistent**:

* each attribute spec owns a column — q-gram bitmaps, CSR TF/IDF or
  the memoized scalar fallback, chosen by
  :func:`~repro.engine.columns.build_column` — whose reference side is
  packed once and whose query side is bound per query batch in
  O(batch) (:func:`~repro.engine.vectorized.bind_columns`);
* mutations (``add`` / ``update`` / ``delete``) cost O(record): new
  records land in an append buffer, deletions become tombstones
  filtered at query time;
* when the buffer + tombstones outgrow a threshold the index
  *compacts*: live records become the new packed base, corpus
  statistics (TF/IDF document frequencies) are re-prepared, and the
  buffer drains.

Bit-exactness.  Every pair takes the engine's one route — column,
bind, kernel, :func:`~repro.engine.columns.survivors`.  Base rows
score on the persistent columns; the buffer rows a page touches score
on :class:`~repro.engine.columns.ScalarColumn`\\ s built for that page,
which are bit-identical to the packed columns by the engine's
equivalence contract.  A frozen index therefore answers exactly like
the offline engine on the same pairs.

Corpus statistics are deliberately *frozen between compactions*: a
standing service must score deterministically regardless of which
queries or ingests arrived before, so document frequencies refresh
only when the base is rebuilt (``compact()`` forces one).  Scores of
corpus-independent similarities (the q-gram family, edit distances)
never depend on this; TF/IDF scores match a freshly built index after
the next compaction.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, KeysView, List, Optional,
                    Sequence, Tuple)

import numpy as _np

from repro.concurrency import requires_lock
from repro.engine.columns import (
    ScalarColumn,
    build_column,
    import_column,
    survivors,
)
from repro.engine.request import AttributeSpec
from repro.engine.vectorized import bind_columns
from repro.model.entity import ObjectInstance
from repro.model.source import LogicalSource
from repro.sim.registry import get_similarity
from repro.sim.tokenize import word_tokens

Triple = Tuple[int, str, float]


def resolve_specs(attribute: str, similarity: object,
                  specs: Optional[List[AttributeSpec]]) \
        -> List[AttributeSpec]:
    """Normalize the simple ``attribute`` + ``similarity`` pair (or an
    explicit spec list) into the spec list every index flavor takes."""
    if specs is not None:
        return list(specs)
    sim = (get_similarity(similarity)
           if isinstance(similarity, str) else similarity)
    return [AttributeSpec(attribute, attribute, sim)]


def posting_tokens(value: object) -> Tuple[str, ...]:
    """Distinct word tokens of a value in *sorted* order — the keys of
    the candidate postings, the router's document frequencies and the
    service's cache invalidation.

    Sorted, not set, order: candidate weights accumulate one float per
    token, and set iteration order depends on the process's string
    hash seed — it would make the accumulation order (and thus the
    last bits of tied sums) differ from one process to the next.
    """
    if value is None:
        return ()
    return tuple(sorted(set(word_tokens(str(value)))))


# ----------------------------------------------------------------------
# the incremental index
# ----------------------------------------------------------------------

class IncrementalIndex:
    """A mutable reference source behind persistent packed kernel state.

    ``reference`` is snapshotted at construction; afterwards the index
    owns the data — mutate through :meth:`add` / :meth:`update` /
    :meth:`delete`, each O(record).  ``specs`` (or the simple
    ``attribute`` + ``similarity`` pair) define the scored columns;
    multiple specs require a ``combiner`` exactly like a
    :class:`~repro.engine.request.MatchRequest`.  Candidate generation
    runs over an inverted word-token index of the *first* spec's
    reference attribute.
    """

    def __init__(self, reference: LogicalSource,
                 attribute: str = "title",
                 similarity: object = "trigram", *,
                 specs: Optional[List[AttributeSpec]] = None,
                 combiner=None,
                 missing: str = "skip",
                 compact_ratio: float = 0.25,
                 compact_min: int = 64,
                 pruning: str = "auto",
                 _column_states=None) -> None:
        specs = resolve_specs(attribute, similarity, specs)
        if not specs:
            raise ValueError("index needs at least one attribute spec")
        if combiner is None and len(specs) != 1:
            raise ValueError("multiple attribute specs require a combiner")
        if missing not in ("skip", "zero"):
            raise ValueError(f"missing must be 'skip' or 'zero', got {missing!r}")
        if compact_ratio <= 0:
            raise ValueError("compact_ratio must be positive")
        if compact_min < 1:
            raise ValueError("compact_min must be >= 1")
        # ``pruning`` selects nothing: candidates come from one route.
        # The keyword stays, validated, for the benchmark harness's
        # ``index_read_layer`` (benchmarks/moma_bench/layers.py), which
        # still builds one index per former mode.
        if pruning not in ("auto", "always", "never"):
            raise ValueError(
                f"pruning must be 'auto', 'always' or 'never', got {pruning!r}")
        self.specs = list(specs)
        self.combiner = combiner
        self.missing = missing
        self.compact_ratio = compact_ratio
        self.compact_min = compact_min
        # stats()["pruning"]; the two zero counters are the harness's
        # reads, nothing ever skips a query or a posting
        self._candidate_counters: Dict[str, int] = {
            "queries": 0, "pruned_queries": 0,
            "postings_touched": 0, "postings_skipped": 0,
            "prefilter_skipped": 0,
        }
        self._physical = reference.physical
        self._object_type = reference.object_type
        self.name = reference.name

        self._buffer: Dict[str, ObjectInstance] = {}
        self._tombstones: set = set()
        self._compaction_listeners: List[Callable[[], None]] = []
        self.version = 0
        self.compactions = 0
        self._rebuild(list(reference), _column_states)

    # -- construction / compaction -------------------------------------

    def _rebuild(self, instances: List[ObjectInstance],
                 restored=None) -> None:
        """Make ``instances`` the base; ``restored`` are its exported
        column states (a snapshot restore), ``None`` packs afresh."""
        base = LogicalSource(self._physical, self._object_type)
        for instance in instances:
            base.add(instance)
        self._base = base
        # slot space: every record gets an integer slot; base rows own
        # slots [0, len(base)) aligned with the packed kernel rows,
        # buffer records append after.  The hot paths (candidate
        # generation, kernel scoring) work entirely in slots and only
        # materialize id strings for surviving correspondences.
        self._slot_ids: List[str] = list(base.ids())
        self._id_slots: Dict[str, int] = {
            id: slot for slot, id in enumerate(self._slot_ids)}
        # corpus statistics (TF/IDF document frequencies) refresh here
        # and freeze until the next rebuild; the q-gram family has
        # none, which keeps its restore O(mmap)
        for spec in self.specs:
            spec.similarity.prepare(
                base.attribute_values(spec.range_attribute))
        base_values = [
            [instance.get(spec.range_attribute) for instance in base]
            for spec in self.specs]
        if restored is None:
            self._columns = [
                build_column(spec.similarity, values)
                for spec, values in zip(self.specs, base_values)]
        else:
            # snapshot restore: re-assemble packed columns around the
            # exported (possibly memmapped) arrays instead of repacking
            self._columns = [
                import_column(spec.similarity, meta, arrays, values)
                for spec, (meta, arrays), values
                in zip(self.specs, restored, base_values)]
        self._token_index: Dict[str, List[int]] = {}
        self._posting_arrays: Dict[str, object] = {}
        first = self.specs[0].range_attribute
        for slot, instance in enumerate(base):
            self._index_tokens(slot, instance.get(first))

    @requires_lock("_lock")
    def compact(self) -> None:
        """Rebuild packed columns and corpus statistics from live records.

        The index itself holds no lock; the ``requires_lock`` marker
        documents that a concurrently-shared index must be mutated
        under its owner's ``_lock`` (``MatchService`` wraps every
        mutation that way).  The runtime assert is a no-op here.
        """
        self._rebuild(self.instances())
        self._buffer.clear()
        self._tombstones.clear()
        self.compactions += 1
        for listener in self._compaction_listeners:
            listener()

    @requires_lock("_lock")
    def _maybe_compact(self) -> None:
        pending = len(self._buffer) + len(self._tombstones)
        if pending >= max(self.compact_min,
                          int(self.compact_ratio * len(self._base))):
            self.compact()

    def on_compact(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after every compaction."""
        self._compaction_listeners.append(listener)

    # -- token index ---------------------------------------------------

    def _index_tokens(self, slot: int, value: object) -> None:
        for token in posting_tokens(value):
            self._token_index.setdefault(token, []).append(slot)
            self._posting_arrays.pop(token, None)

    def _unindex_tokens(self, slot: int, value: object) -> None:
        for token in posting_tokens(value):
            posting = self._token_index.get(token)
            if posting is None:
                continue
            try:
                posting.remove(slot)
            except ValueError:  # pragma: no cover - defensive
                continue
            self._posting_arrays.pop(token, None)
            if not posting:
                del self._token_index[token]

    # -- mutation ------------------------------------------------------

    @requires_lock("_lock")
    def add(self, instance: ObjectInstance) -> None:
        """Add a new record; a live duplicate id is rejected."""
        if instance.id in self:
            raise ValueError(
                f"duplicate instance id {instance.id!r} in {self.name}")
        slot = len(self._slot_ids)
        self._slot_ids.append(instance.id)
        self._id_slots[instance.id] = slot
        self._buffer[instance.id] = instance
        self._index_tokens(slot,
                           instance.get(self.specs[0].range_attribute))
        self.version += 1
        self._maybe_compact()

    @requires_lock("_lock")
    def add_record(self, id: str, **attributes) -> ObjectInstance:
        """Convenience: build and add an instance from keyword attributes."""
        instance = ObjectInstance(id, attributes)
        self.add(instance)
        return instance

    @requires_lock("_lock")
    def update(self, instance: ObjectInstance) -> None:
        """Replace a live record (KeyError when the id is not live)."""
        old = self.get(instance.id)
        if old is None:
            raise KeyError(f"no instance {instance.id!r} in {self.name}")
        first = self.specs[0].range_attribute
        old_slot = self._id_slots[instance.id]
        self._unindex_tokens(old_slot, old.get(first))
        # an update always reslots the record to the end, whether the
        # old version lived in the base or the buffer.  Insertion
        # order is the candidate-ranking tie-break, and "where does
        # this record rank after an update" must not depend on
        # compaction timing — the partitioned cluster's shards compact
        # on their own schedules and still have to order records
        # exactly like the single index (and a rebuilt one) would.
        if instance.id in self._base:
            self._tombstones.add(instance.id)
        slot = len(self._slot_ids)
        self._slot_ids.append(instance.id)
        self._id_slots[instance.id] = slot
        self._buffer.pop(instance.id, None)
        self._buffer[instance.id] = instance
        self._index_tokens(slot, instance.get(first))
        self.version += 1
        self._maybe_compact()

    @requires_lock("_lock")
    def delete(self, id: str) -> bool:
        """Remove a live record; returns whether it existed."""
        old = self.get(id)
        if old is None:
            return False
        slot = self._id_slots.pop(id)
        self._unindex_tokens(slot, old.get(self.specs[0].range_attribute))
        if id in self._buffer:
            del self._buffer[id]
        if id in self._base:
            self._tombstones.add(id)
        self.version += 1
        self._maybe_compact()
        return True

    # -- lookup --------------------------------------------------------

    def get(self, id: str) -> Optional[ObjectInstance]:
        instance = self._buffer.get(id)
        if instance is not None:
            return instance
        if id in self._tombstones:
            return None
        return self._base.get(id)

    def __contains__(self, id: str) -> bool:
        return self.get(id) is not None

    def __len__(self) -> int:
        return len(self._base) - len(self._tombstones) + len(self._buffer)

    def ids(self) -> List[str]:
        """Live ids: base order (minus tombstones) then buffer order."""
        live = [id for id in self._base.ids() if id not in self._tombstones]
        live.extend(self._buffer)
        return live

    def instances(self) -> List[ObjectInstance]:
        return [self.get(id) for id in self.ids()]

    def snapshot(self) -> LogicalSource:
        """The live records as a plain :class:`LogicalSource`."""
        source = LogicalSource(self._physical, self._object_type)
        for instance in self.instances():
            source.add(instance)
        return source

    def stats(self) -> dict:
        return {
            "records": len(self),
            "base": len(self._base),
            "buffer": len(self._buffer),
            "tombstones": len(self._tombstones),
            "tokens": len(self._token_index),
            "version": self.version,
            "compactions": self.compactions,
            "vectorized_columns": sum(
                column.vectorized for column in self._columns),
            "pruning": self.candidate_counters(),
        }

    def candidate_counters(self) -> Dict[str, int]:
        """Cumulative candidate counters (``stats()["pruning"]``).

        ``queries`` counts candidate retrievals, ``postings_touched``
        the posting entries they summed and ``prefilter_skipped`` the
        multi-attribute pairs :class:`~repro.engine.vectorized.MultiSpecKernel`
        dropped by score upper bounds.  ``pruned_queries`` and
        ``postings_skipped`` stay 0.
        """
        return dict(self._candidate_counters)

    def shard_metrics(self) -> List[dict]:
        """The registry collector's pull, one entry per shard — here
        one, with no shard label and no WAL; a cluster answers with the
        same entry shape per shard."""
        return [{"shard": None, "pruning": self.candidate_counters(),
                 "wal": None}]

    # -- snapshot export / import --------------------------------------

    def export_columns(self) -> List[Tuple[dict, Dict[str, object]]]:
        """Packed-column states of the current base, one per spec.

        Each entry is the column's ``(meta, arrays)`` export; the
        partition store writes the arrays as raw files a restoring
        shard memory-maps straight back in.
        """
        return [column.export() for column in self._columns]

    def base_instances(self) -> List[ObjectInstance]:
        """The packed base's records in slot order (excludes buffer)."""
        return list(self._base)

    @classmethod
    def from_snapshot(cls, reference: LogicalSource, *,
                      specs: List[AttributeSpec],
                      combiner=None,
                      missing: str = "skip",
                      compact_ratio: float = 0.25,
                      compact_min: int = 64,
                      column_states: List[Tuple[dict, Dict[str, object]]],
                      version: int = 0,
                      compactions: int = 0) -> "IncrementalIndex":
        """Rebuild an index around previously exported column state.

        ``reference`` must hold exactly the base records the columns
        were exported from, in the same order.  Packed columns are
        re-assembled from ``column_states`` (memmap arrays welcome)
        instead of repacked, and corpus-independent similarities skip
        ``prepare`` — so the heavy O(n · tokens) work left is only the
        inverted token index.  ``version`` / ``compactions`` restore
        the counters the index carried when the base was written; WAL
        replay on top reproduces the exact state trajectory.
        """
        index = cls(reference, specs=specs, combiner=combiner,
                    missing=missing, compact_ratio=compact_ratio,
                    compact_min=compact_min,
                    _column_states=column_states)
        index.version = version
        index.compactions = compactions
        return index

    # -- candidate generation ------------------------------------------

    def candidate_ids(self, value: object,
                      max_candidates: Optional[int] = 50) -> List[str]:
        """Reference ids worth scoring against ``value``.

        ``None`` disables the cut (every live id, deterministic
        order).  Otherwise candidates sharing a word token are ranked
        by summed inverse document frequency, ``1 / df`` — the
        continuous form of the old online matcher's ``1000 // df``
        rarity rank — with ties broken by insertion order (which a
        rebuilt index reproduces).  The weight deliberately depends on
        *nothing but the query's own postings*: mutations that share
        no token with a query can then never change its candidate set
        or ranking, which is what makes the service's token-keyed
        cache invalidation exact.
        """
        if max_candidates is None:
            return self.ids()
        slot_ids = self._slot_ids
        slots, _ = self._candidate_slots(value, max_candidates)
        return [slot_ids[slot] for slot in slots]

    def _posting_weights(self, value: object, weights=None):
        """Live posting (token → slots) arrays and rarity weights.

        ``weights`` (token → weight) overrides the local ``1/df``
        rarity: the cluster router passes *global* document
        frequencies so every shard ranks its local postings with the
        same weights the single-index service would use.  Tokens
        absent from ``weights`` are skipped — they have no live
        posting anywhere, so they could never contribute.
        """
        postings = []
        for token in posting_tokens(value):
            posting = self._token_index.get(token)
            if not posting:
                continue
            if weights is None:
                weight = 1.0 / len(posting)
            else:
                weight = weights.get(token)
                if weight is None:
                    continue
            postings.append((token, posting, weight))
        return postings

    def document_frequency(self, token: str) -> int:
        """Live records whose first-spec value holds ``token``."""
        return len(self._token_index.get(token, ()))

    def tokens(self) -> KeysView[str]:
        """Every token with a live posting."""
        return self._token_index.keys()

    def ranked_candidates(self, value: object, max_candidates: int, *,
                          weights=None) -> List[Tuple[int, float]]:
        """Ranked ``(slot, summed weight)`` candidates for ``value``.

        :meth:`_candidate_slots` as a list of pairs — the cluster
        router merges per-shard rankings into a global top-k on
        exactly these ``(weight, insertion order)`` keys.
        """
        slots, scores = self._candidate_slots(value, max_candidates,
                                              weights=weights)
        return list(zip(
            slots if isinstance(slots, list) else slots.tolist(),
            scores if isinstance(scores, list) else scores.tolist()))

    def _candidate_slots(self, value: object, max_candidates: int, *,
                         weights=None):
        """Candidate ``(slots, summed token rarities)``, best first.

        One ``bincount`` over the concatenated posting arrays replaces
        the per-id dict accumulation — this runs once per query record
        and dominated the old online loop.  Weight sums accumulate in
        token order, so the ranking is identical (bit-for-bit) across
        an index rebuild.
        """
        if value is None:
            return [], []
        postings = self._posting_weights(value, weights)
        if not postings:
            return [], []
        counters = self._candidate_counters
        counters["queries"] += 1
        counters["postings_touched"] += sum(
            len(posting) for _, posting, _ in postings)
        arrays = [self._posting_array(token, posting)
                  for token, posting, _ in postings]
        totals = _np.bincount(
            _np.concatenate(arrays),
            weights=_np.concatenate(
                [_np.full(len(array), weight, dtype=_np.float64)
                 for array, (_, _, weight) in zip(arrays, postings)]),
            minlength=len(self._slot_ids))
        candidates = _np.nonzero(totals)[0]
        return self._top_slots(candidates, totals[candidates],
                               max_candidates)

    def _posting_array(self, token: str, posting: List[int]):
        """The token's posting as a cached int64 array."""
        array = self._posting_arrays.get(token)
        if array is None:
            array = _np.asarray(posting, dtype=_np.int64)
            self._posting_arrays[token] = array
        return array

    @staticmethod
    def _top_slots(candidates, scores, max_candidates: int):
        """The ``max_candidates`` best of aligned ``(candidates,
        scores)`` arrays, ranked by (score desc, slot asc).

        ``candidates`` must be ascending.  Partial selection first:
        ranking every token-sharing record just to keep the top k
        dominated the query cost on large references.  Boundary ties
        resolve to the smallest slots, matching the full sort's
        tie-break.
        """
        if len(candidates) > max_candidates:
            top = _np.argpartition(-scores, max_candidates - 1)
            boundary = scores[top[:max_candidates]].min()
            above = _np.nonzero(scores > boundary)[0]
            ties = _np.nonzero(scores == boundary)[0]
            keep = _np.concatenate(
                [above, ties[:max_candidates - len(above)]])
            candidates, scores = candidates[keep], scores[keep]
        order = _np.lexsort((candidates, -scores))
        return candidates[order], scores[order]

    # -- scoring -------------------------------------------------------

    def score_pairs(self, records: Sequence[ObjectInstance],
                    pairs: Iterable[Tuple[int, str]], *,
                    threshold: float) -> List[Triple]:
        """Score ``(record index, reference id)`` pairs in one batch.

        Returns surviving ``(record index, reference id, score)``
        triples under the engine's filter (``score >= threshold`` and
        ``score > 0``; single-attribute ``missing='zero'`` pairs
        surface as 0.0 at threshold 0); ids that are not live drop
        out.  See :meth:`_score_slots` for the route each pair takes.
        """
        runs: List[Tuple[int, List[int]]] = []
        for query, reference_id in pairs:
            slot = self._id_slots.get(reference_id)
            if slot is None:
                continue
            if runs and runs[-1][0] == query:
                runs[-1][1].append(slot)
            else:
                runs.append((query, [slot]))
        return self._score_slots(records, runs, threshold)

    def _score_slots(self, records, runs, threshold: float) -> List[Triple]:
        """The one scorer: ``runs`` pairs a record index with the slots
        to score it against.

        Slots of the packed base (``slot < len(base)``: a base record's
        slot is its column row) score against the persistent columns;
        the page's distinct buffer slots get one
        :class:`~repro.engine.columns.ScalarColumn` per spec, built
        here.  Both go through one :meth:`_score_kernel_rows` call
        each; only the columns differ.  Id strings are materialized
        only for survivors.
        """
        slot_ids = self._slot_ids
        out: List[Triple] = []
        if not runs:
            return out
        queries = _np.repeat(
            _np.asarray([query for query, _ in runs], dtype=_np.int64),
            [len(slots) for _, slots in runs])
        slots = _np.concatenate(
            [_np.asarray(slots, dtype=_np.int64) for _, slots in runs])
        query_values = [[record.get(spec.attribute) for record in records]
                        for spec in self.specs]
        in_base = slots < len(self._base)
        # (columns, query rows, column rows, the slot of each column row)
        parts = [(self._columns, queries[in_base], slots[in_base], None)]
        if not in_base.all():
            buffered, rows = _np.unique(slots[~in_base], return_inverse=True)
            instances = [self._buffer[slot_ids[slot]]
                         for slot in buffered.tolist()]
            columns = [ScalarColumn(spec.similarity,
                                    [instance.get(spec.range_attribute)
                                     for instance in instances])
                       for spec in self.specs]
            parts.append((columns, queries[~in_base], rows, buffered))
        for columns, rows_a, rows_b, row_slots in parts:
            if not len(rows_a):
                continue
            rows_a, rows_b, scores = self._score_kernel_rows(
                columns, query_values, rows_a, rows_b, threshold)
            if row_slots is not None:
                rows_b = row_slots[rows_b]
            out.extend(zip(rows_a.tolist(),
                           (slot_ids[slot] for slot in rows_b.tolist()),
                           scores.tolist()))
        return out

    def _score_kernel_rows(self, columns, query_values, rows_a, rows_b,
                           threshold: float):
        """One bound-kernel call; returns surviving row/score arrays.

        ``rows_a`` index into ``query_values``, ``rows_b`` into
        ``columns``.  Column -> bind -> kernel -> survivor filter,
        exactly the batch engine's route
        (:func:`~repro.engine.columns.survivors` carries the ``score >=
        threshold and score > 0`` filter and the single-attribute
        ``missing='zero'`` surfacing at threshold 0).  A multi-attribute
        kernel is a :class:`~repro.engine.vectorized.MultiSpecKernel`
        whose exact threshold prefilter counts what it drops.
        """
        kernel = bind_columns(columns, query_values, self.combiner,
                              threshold)
        kept = survivors(kernel, rows_a, rows_b, threshold,
                         self.combiner is None and self.missing == "zero")
        if self.combiner is not None:
            self._candidate_counters["prefilter_skipped"] += \
                kernel.prefiltered
        return kept

    def match_records(self, records: Sequence[ObjectInstance], *,
                      threshold: float,
                      max_candidates: Optional[int] = 50) \
            -> List[List[Tuple[str, float]]]:
        """Candidate generation + scoring for one batch of queries.

        Returns one ``[(reference id, score), ...]`` list per record,
        each sorted by descending score (ties by id).  This is the
        service's hot path: candidate slots, kernel rows and the
        threshold filter all stay in slot space; id strings are
        materialized only for surviving correspondences.
        """
        attribute = self.specs[0].attribute
        all_slots = None
        if max_candidates is None:
            # one shared live-slot list: identical for every record
            all_slots = _np.asarray(
                [self._id_slots[id] for id in self.ids()], dtype=_np.int64)
        runs = []
        for position, record in enumerate(records):
            value = record.get(attribute)
            if value is None:
                continue
            slots = all_slots
            if slots is None:
                slots, _ = self._candidate_slots(str(value), max_candidates)
            if len(slots):
                runs.append((position, slots))
        results: List[List[Tuple[str, float]]] = [[] for _ in records]
        for position, reference_id, score in self._score_slots(
                records, runs, threshold):
            results[position].append((reference_id, score))
        for result in results:
            result.sort(key=lambda item: (-item[1], item[0]))
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IncrementalIndex({self.name!r}, {len(self)} live, "
                f"{len(self._buffer)} buffered, "
                f"{len(self._tombstones)} tombstoned)")
