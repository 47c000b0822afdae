"""The serving subsystem: query-time matching as a standing service.

PRs 1–4 built an offline batch engine — chunked streaming, vectorized
kernels, sharded multi-process execution.  This package turns that
machinery into the paper's *other* use case, "small-sized online
matching (e.g. during query processing in virtual data integration
scenarios)" (§2.1), as a long-lived service:

* :class:`~repro.serve.index.IncrementalIndex` — a mutable reference
  source whose packed kernel state (q-gram bitmaps, CSR TF/IDF,
  composed multi-attribute columns) persists across queries; adds,
  updates and deletes cost O(record) via an append buffer and
  tombstones, with threshold-triggered compaction rebuilding the
  packed base and refreshing corpus statistics;
* :class:`~repro.serve.cluster.ClusterIndex` — the same surface
  partitioned across in-process shards behind a scatter-gather router whose top-k merge is bit-identical to the
  single index; with a data dir every shard persists memmapped packed
  columns plus a mutation WAL, so snapshots are fsync-and-manifest
  writes and restarts are warm;
* :class:`~repro.serve.service.MatchService` — one read path
  (``match_batch``; ``match_record`` is its one-record form): answers
  from a mutation-aware reuse cache, scores a request's cache misses
  in one kernel call and persists same-mappings through the
  :class:`~repro.model.repository.MappingRepository`; configured by
  one :class:`~repro.serve.config.ServeConfig`;
* :mod:`repro.serve.http` + :class:`~repro.serve.client.Client` — the
  versioned v1 JSON API (``/v1/match``, ``/v1/ingest``,
  ``/v1/delete``, ``/v1/stats``, ``/v1/snapshot``, ``/v1/healthz``)
  with a typed error envelope (:mod:`repro.serve.errors`), exposed as
  the ``repro serve`` CLI subcommand.

See ``docs/serving.md`` for architecture, cluster topology,
snapshot/restore semantics and the v1 API reference.
"""

from repro.serve.client import Client
from repro.serve.cluster import ClusterIndex
from repro.serve.config import ServeConfig
from repro.serve.errors import (ConflictError, InvalidRequest, ServeError,
                                SnapshotUnavailable)
from repro.serve.index import IncrementalIndex
from repro.serve.service import MatchService, match_query_results

__all__ = [
    "Client",
    "ClusterIndex",
    "ConflictError",
    "IncrementalIndex",
    "InvalidRequest",
    "MatchService",
    "ServeConfig",
    "ServeError",
    "SnapshotUnavailable",
    "match_query_results",
]
