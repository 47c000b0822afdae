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

Candidate pruning.  ``_candidate_slots`` historically ran one
``bincount`` over the full concatenated posting mass — linear in
postings, so a hub token (one shared by most of the corpus) made every
query pay for the whole corpus.  The ``pruning`` knob adds a
max-score/WAND-style top-k path: postings are walked in descending
weight (impact) order, and once ``max_candidates`` slots have been
seen and the summed weight of the *unprocessed* postings provably
cannot lift an unseen slot past the current kth partial score, the
remaining (heaviest-df, lowest-weight) postings are skipped entirely.
The skipped-slot exclusion uses a relative safety slack far above
float accumulation error, and the surviving candidates are then
*rescored exactly* — per token in the original sorted-token order,
adding the token's weight or an exact ``+0.0`` — which reproduces the
``bincount`` accumulation bit-for-bit.  The pruned path is therefore
bit-identical (same slots, same float scores, same order) to the
exhaustive one; ``tests/serve/test_pruning.py`` holds the equivalence
harness.  ``pruning="auto"`` engages only when the posting-mass skew
makes it worthwhile; ``"always"``/``"never"`` force either path.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    token, and the partitioned serving tier recomputes the same sums
    inside shard worker processes whose string hash seeds differ from
    the router's — set iteration order would make the accumulation
    order (and thus the last bits of tied sums) process-dependent.
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
        if pruning not in ("auto", "always", "never"):
            raise ValueError(
                f"pruning must be 'auto', 'always' or 'never', got {pruning!r}")
        self.specs = list(specs)
        self.combiner = combiner
        self.missing = missing
        self.compact_ratio = compact_ratio
        self.compact_min = compact_min
        self.pruning = pruning
        self._pruning_counters: Dict[str, int] = {
            "queries": 0, "pruned_queries": 0,
            "postings_touched": 0, "postings_skipped": 0,
            "membership_probes": 0, "prefilter_skipped": 0,
        }
        #: cumulative scoring-call timings (repro.obs pulls these at
        #: scrape time; pure observation, results are unaffected)
        self._timing_counters: Dict[str, float] = {
            "match_calls": 0, "match_seconds": 0.0,
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
        # posting lists stay sorted ascending by construction: slots
        # are handed out monotonically (rebuild enumerates the base in
        # slot order; add/update always append the next slot) and
        # ``list.remove`` preserves order — the pruned rescore's
        # binary-search membership probes depend on this invariant
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
            "pruning": self.pruning_counters(),
        }

    def pruning_counters(self) -> Dict[str, int]:
        """Cumulative candidate-pruning counters (the test/bench hook).

        ``queries`` counts candidate retrievals, ``pruned_queries``
        those answered by the impact-ordered path; ``postings_touched``
        / ``postings_skipped`` split the posting mass between expanded
        and provably-skippable postings (the sublinearity
        regression-guard); ``membership_probes`` counts the exact
        rescore's binary-search probes and ``prefilter_skipped`` the
        candidate pairs dropped by score upper bounds before kernel
        scoring.
        """
        return dict(self._pruning_counters)

    def timing_counters(self) -> Dict[str, float]:
        """Cumulative scoring-call timings for the metrics registry.

        Kept out of :meth:`stats` deliberately: stats snapshots must
        be byte-stable across snapshot/restore, and wall-clock totals
        are not.
        """
        return dict(self._timing_counters)

    def shard_metrics(self) -> List[dict]:
        """The registry collector's pull, one entry per shard — here
        one, with no shard label and no WAL; a cluster answers with the
        same entry shape per shard."""
        return [{"shard": None, "index": self.timing_counters(),
                 "pruning": self.pruning_counters(), "wal": None}]

    # -- snapshot export / import --------------------------------------

    def export_columns(self) -> List[Tuple[dict, Dict[str, object]]]:
        """Packed-column states of the current base, one per spec.

        Each entry is the column's ``(meta, arrays)`` export; the
        partition store writes the arrays as raw files a restoring
        worker memory-maps straight back in.
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
                      pruning: str = "auto",
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
                    compact_min=compact_min, pruning=pruning,
                    _column_states=column_states)
        index.version = version
        index.compactions = compactions
        return index

    # -- candidate generation ------------------------------------------

    def candidate_ids(self, value: object,
                      max_candidates: Optional[int] = 50) -> List[str]:
        """Reference ids worth scoring against ``value``.

        ``None`` disables pruning (every live id, deterministic
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

    def token_frequencies(self) -> Dict[str, int]:
        """Live document frequency of every indexed token."""
        return {token: len(posting)
                for token, posting in self._token_index.items()}

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
        an index rebuild.  When posting skew warrants it (see
        :meth:`_should_prune`) the impact-ordered pruned path answers
        instead — bit-identical by the module-docstring argument — and
        falls back here whenever its stop rule never fires.
        """
        if value is None:
            return [], []
        postings = self._posting_weights(value, weights)
        if not postings:
            return [], []
        counters = self._pruning_counters
        counters["queries"] += 1
        if self._should_prune(postings, max_candidates):
            pruned = self._pruned_slots(postings, max_candidates)
            if pruned is not None:
                counters["pruned_queries"] += 1
                return pruned
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

    #: auto-gate: prune only past this much total posting mass ...
    PRUNE_MIN_MASS = 512
    #: ... and when the longest posting is at least this many times
    #: the mean length of the *other* postings (hub-token skew; the
    #: hub must not inflate its own baseline)
    PRUNE_SKEW_FACTOR = 4.0
    #: relative safety slack for the stop rule.  Partial sums and the
    #: remaining-weight bound carry float accumulation error of at
    #: most a few hundred ulps (~1e-13 relative); 1e-9 dwarfs it, so
    #: rounding can never wrongly exclude a true top-k member, while
    #: the final scores are recomputed exactly anyway.
    PRUNE_SLACK = 1e-9

    def _should_prune(self, postings, max_candidates: int) -> bool:
        """Engage the impact-ordered path for this query's postings?

        ``auto`` requires enough posting mass to amortize the rescore
        and real hub-token skew; with near-uniform document
        frequencies the stop rule cannot fire early and the exhaustive
        ``bincount`` is cheaper.  Non-positive weights (possible only
        through a caller-supplied override map) disable pruning — the
        stop-rule proof needs strictly positive impacts.
        """
        if self.pruning == "never" or len(postings) < 2:
            return False
        if any(weight <= 0.0 for _, _, weight in postings):
            return False
        if self.pruning == "always":
            return True
        mass = sum(len(posting) for _, posting, _ in postings)
        if mass < self.PRUNE_MIN_MASS:
            return False
        longest = max(len(posting) for _, posting, _ in postings)
        rest = (mass - longest) / (len(postings) - 1)
        return longest >= self.PRUNE_SKEW_FACTOR * max(rest, 1.0)

    def _pruned_slots(self, postings, max_candidates: int):
        """Impact-ordered (max-score/WAND-style) top-k candidates.

        Phase 1 expands postings in descending weight order — rarest
        (highest-impact) tokens first — accumulating approximate
        partial sums, and stops once ``max_candidates`` slots are seen
        and the summed weight of the unprocessed postings (the best
        any *unseen* slot could ever reach) falls below the kth
        partial score by the safety slack.  Phase 2 then rescores the
        seen slots exactly: per token in the original sorted-token
        order, membership-probing the posting and adding the token's
        weight or an exact ``+0.0`` — the very accumulation order (and
        hence bit pattern) of the exhaustive ``bincount`` — and runs
        the exhaustive path's own selection (:meth:`_top_slots`) over
        the seen superset: every unseen slot scores strictly below the
        boundary, so neither the boundary nor the above/ties split can
        differ from the full candidate set's.  Returns ``None`` when
        the stop rule never fires (every posting was expanded, so the
        exhaustive path is at least as cheap).
        """
        counters = self._pruning_counters
        slack = self.PRUNE_SLACK
        order = sorted(range(len(postings)),
                       key=lambda i: (-postings[i][2], i))
        # remaining[j]: summed weight of the postings after impact
        # rank j — an upper bound on any unseen slot's final score
        remaining = [0.0] * len(order)
        acc = 0.0
        for j in range(len(order) - 1, 0, -1):
            acc += postings[order[j]][2]
            remaining[j - 1] = acc
        totals = _np.zeros(len(self._slot_ids), dtype=_np.float64)
        seen_arrays: List[object] = []
        seen = 0
        prefix = 0
        for rank, position in enumerate(order):
            token, posting, weight = postings[position]
            array = self._posting_array(token, posting)
            partial = totals[array]
            fresh = array[partial == 0.0]
            if len(fresh):
                seen_arrays.append(fresh)
                seen += len(fresh)
            # slots are distinct within one posting, so the fancy-index
            # add cannot lose contributions to duplicate indices
            totals[array] = partial + weight
            prefix = rank + 1
            if seen < max_candidates or remaining[rank] <= 0.0:
                continue
            partials = totals[_np.concatenate(seen_arrays)]
            cut = len(partials) - max_candidates
            kth = _np.partition(partials, cut)[cut]
            if remaining[rank] * (1.0 + slack) < kth * (1.0 - slack):
                break
        else:
            return None
        counters["postings_touched"] += sum(
            len(postings[order[j]][1]) for j in range(prefix))
        counters["postings_skipped"] += sum(
            len(postings[order[j]][1]) for j in range(prefix, len(order)))
        candidates = _np.sort(_np.concatenate(seen_arrays))
        return self._top_slots(
            candidates, self._rescore_candidates(postings, candidates),
            max_candidates)

    def _rescore_candidates(self, postings, candidates):
        """Exact rarity scores for sorted ``candidates`` slots.

        Bit-identical to ``bincount`` over the concatenated postings:
        per slot, ``bincount`` adds each containing token's weight in
        token order; this loop walks the same token order adding the
        weight on membership and an exact ``+0.0`` otherwise (an IEEE
        identity on the non-negative accumulator).  Membership is a
        binary search per candidate — postings are sorted ascending by
        the ``_index_tokens`` invariant — so a skipped hub posting is
        probed in O(k log df) without ever being expanded.
        """
        counters = self._pruning_counters
        totals = _np.zeros(len(candidates), dtype=_np.float64)
        for token, posting, weight in postings:
            array = self._posting_arrays.get(token)
            if array is not None:
                positions = _np.searchsorted(array, candidates)
                hit = positions < len(array)
                member = hit.copy()
                member[hit] = array[positions[hit]] == candidates[hit]
            else:
                member = _np.empty(len(candidates), dtype=bool)
                for where, slot in enumerate(candidates.tolist()):
                    position = bisect_left(posting, slot)
                    member[where] = (position < len(posting)
                                     and posting[position] == slot)
            counters["membership_probes"] += len(candidates)
            totals = totals + _np.where(member, weight, 0.0)
        return totals

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
        ``missing='zero'`` surfacing at threshold 0).

        Unless ``pruning="never"``, pairs no kernel could lift over a
        positive ``threshold`` are dropped *before* scoring: the
        single-attribute path asks the bound kernel for per-pair score
        upper bounds (the q-gram gram-count/length bound — exact by
        float monotonicity, so survivors and scores are unchanged),
        and the multi-attribute path hands the threshold to
        :class:`~repro.engine.vectorized.MultiSpecKernel`, whose
        per-combiner progressive prefilter carries the same guarantee.
        """
        prefilter = threshold > 0.0 and self.pruning != "never"
        kernel = bind_columns(columns, query_values, self.combiner,
                              threshold if prefilter else None)
        if self.combiner is None and prefilter:
            keep = kernel.score_bound_rows(rows_a, rows_b) >= threshold
            dropped = len(keep) - int(_np.count_nonzero(keep))
            if dropped:
                self._pruning_counters["prefilter_skipped"] += dropped
                rows_a = rows_a[keep]
                rows_b = rows_b[keep]
        kept = survivors(kernel, rows_a, rows_b, threshold,
                         self.combiner is None and self.missing == "zero")
        if self.combiner is not None:
            self._pruning_counters["prefilter_skipped"] += kernel.prefiltered
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
        begun = time.perf_counter()
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
        self._timing_counters["match_calls"] += 1
        self._timing_counters["match_seconds"] += \
            time.perf_counter() - begun
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IncrementalIndex({self.name!r}, {len(self)} live, "
                f"{len(self._buffer)} buffered, "
                f"{len(self._tombstones)} tombstoned)")
