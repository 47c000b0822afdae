"""The pool's contract (``repro.engine.pool.run_ordered``).

``workers=N`` means N processes score: the parent and N − 1 forked
children.  Every task appends its item index and pid to a file, so the
tests see where each item ran and how often, whichever process ran it.
Both shapes the engine drives are covered: the sharded one (every item
queued up front) and the parent-cut one (items taken lazily,
``inflight = 2 * workers``).

A failing task — raised in a child, raised in the parent, or a child
killed outright — must surface within seconds, leave no child alive and
log nothing through ``concurrent.futures``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from repro.blocking import TokenBlocking
from repro.engine import (
    AttributeSpec,
    BatchMatchEngine,
    EngineConfig,
    MatchRequest,
    pool,
)
from repro.engine.pool import run_ordered
from repro.sim.base import SimilarityFunction
from repro.sim.ngram import TrigramSimilarity

PARENT = os.getpid()
#: generous against the ≈ 0.02 s a failure takes to surface
BOUND_SECONDS = 20.0


def _probe(log: str, index: int, pause: float = 0.002) -> int:
    """Record that ``index`` ran here; return it."""
    with open(log, "a") as handle:
        handle.write(f"{index} {os.getpid()}\n")
    time.sleep(pause)
    return index


def _runs(log) -> list:
    return [tuple(map(int, line.split()))
            for line in log.read_text().splitlines()]


def _items(shape: str, count: int):
    work = ((index, (index,)) for index in range(count))
    return list(work) if shape == "sharded" else work


def _inflight(shape: str, workers: int, count: int) -> int:
    return count if shape == "sharded" else 2 * workers


class TestContract:
    @pytest.mark.parametrize("shape", ["sharded", "parent-cut"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_parent_is_one_of_the_workers(self, tmp_path, workers, shape):
        log = tmp_path / "runs"
        count = 8 * workers
        results = list(run_ordered(
            partial(_probe, str(log)), _items(shape, count),
            workers=workers, inflight=_inflight(shape, workers, count)))

        assert [tag for tag, _, _ in results] == list(range(count))
        assert [output for _, _, output in results] == list(range(count))
        assert all(seconds >= 0.0 for _, seconds, _ in results)
        runs = _runs(log)
        assert sorted(index for index, _ in runs) == list(range(count))
        pids = {pid for _, pid in runs}
        # the first item always goes to a child; the parent takes the
        # newest unstarted ones while the head is not back
        assert 2 <= len(pids) <= workers
        assert PARENT in pids
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_items_fork_nothing(self, tmp_path, count):
        log = tmp_path / "runs"
        log.touch()
        results = list(run_ordered(
            partial(_probe, str(log)), _items("parent-cut", count),
            workers=3, inflight=6))
        assert [output for _, _, output in results] == list(range(count))
        assert {pid for _, pid in _runs(log)} <= {PARENT}

    def test_yields_lazily(self, tmp_path):
        """No more than ``inflight`` items are taken ahead of the drain
        cursor."""
        taken = []

        def items():
            for index in range(12):
                taken.append(index)
                yield index, (index,)

        drained = 0
        for tag, _, _ in run_ordered(partial(_probe, str(tmp_path / "l")),
                                     items(), workers=2, inflight=4):
            assert tag == drained
            assert len(taken) <= drained + 4
            drained += 1
        assert drained == 12


def _counting_pools(monkeypatch) -> list:
    built = []

    class Counted(pool.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", Counted)
    return built


def _request(dataset, similarity=None, **kwargs) -> MatchRequest:
    dblp, acm = dataset.dblp.publications, dataset.acm.publications
    return MatchRequest(
        domain=dblp, range=acm,
        specs=[AttributeSpec("title", "title",
                             similarity or TrigramSimilarity())],
        threshold=0.4, **kwargs)


class TestEngine:
    @pytest.mark.parametrize("shard_blocking", [False, True])
    def test_two_workers_equal_serial(self, dataset, monkeypatch,
                                      shard_blocking):
        serial = BatchMatchEngine(EngineConfig(chunk_size=64)).execute(
            _request(dataset, blocking=TokenBlocking()))
        built = _counting_pools(monkeypatch)
        parallel = BatchMatchEngine(EngineConfig(
            workers=2, chunk_size=64, shard_blocking=shard_blocking,
        )).execute(_request(dataset, blocking=TokenBlocking()))
        assert parallel.to_rows() == serial.to_rows()
        assert built == [1]  # one child beside the parent
        assert not multiprocessing.active_children()

    def test_one_slice_forks_nothing(self, dataset, monkeypatch):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        candidates = list(zip(dblp.ids(), acm.ids()))[:10]
        built = _counting_pools(monkeypatch)
        engine = BatchMatchEngine(EngineConfig(workers=2, chunk_size=64))
        parallel = engine.execute(_request(dataset, candidates=candidates))
        serial = BatchMatchEngine().execute(
            _request(dataset, candidates=candidates))
        assert parallel.to_rows() == serial.to_rows()
        assert built == []


# ----------------------------------------------------------------------
# failure: bounded, quiet, no child left behind
# ----------------------------------------------------------------------


def _raise_in_child(index: int) -> int:
    if os.getpid() != PARENT:
        raise ValueError(f"item {index} failed in a child")
    time.sleep(0.01)
    return index


def _raise_in_parent(index: int) -> int:
    if os.getpid() == PARENT:
        raise ValueError(f"item {index} failed in the parent")
    time.sleep(0.05)
    return index


def _die_in_child(index: int) -> int:
    if os.getpid() != PARENT:
        os._exit(1)
    time.sleep(0.01)
    return index


class _ScalarFailing(SimilarityFunction):
    """A similarity that does not pack, so every slice scores through
    ``score_batch`` in the task; raises in the process ``fail_in``
    names."""

    name = "scalar-failing"

    def __init__(self, fail_in: str) -> None:
        self.fail_in = fail_in

    def _score(self, a: str, b: str) -> float:
        in_parent = os.getpid() == PARENT
        if in_parent == (self.fail_in == "parent"):
            raise ValueError(f"scoring failed in the {self.fail_in}")
        if not in_parent:
            time.sleep(0.0005)
        return 1.0 if a == b else 0.5


def _bounded_failure(caplog, error, run) -> None:
    caplog.set_level(logging.DEBUG, logger="concurrent.futures")
    started = time.perf_counter()
    with pytest.raises(error):
        run()
    assert time.perf_counter() - started < BOUND_SECONDS
    assert not multiprocessing.active_children()
    assert not [record for record in caplog.records
                if record.name.startswith("concurrent.futures")]


class TestFailure:
    @pytest.mark.parametrize("shape", ["sharded", "parent-cut"])
    @pytest.mark.parametrize("target, error", [
        (_raise_in_child, ValueError),
        (_raise_in_parent, ValueError),
        (_die_in_child, BrokenProcessPool),
    ], ids=["raise-in-child", "raise-in-parent", "child-killed"])
    def test_run_ordered(self, caplog, target, error, shape):
        _bounded_failure(caplog, error, lambda: list(run_ordered(
            target, _items(shape, 24), workers=3,
            inflight=_inflight(shape, 3, 24))))

    @pytest.mark.parametrize("fail_in", ["child", "parent"])
    def test_execute(self, dataset, caplog, fail_in):
        dblp, acm = dataset.dblp.publications, dataset.acm.publications
        # a diagonal: the distinct-value grid outnumbers the rows, so
        # no score table is built before the fork and every slice
        # scores in its task
        candidates = list(zip(dblp.ids(), acm.ids()))
        engine = BatchMatchEngine(EngineConfig(workers=2, chunk_size=16))
        request = _request(dataset, similarity=_ScalarFailing(fail_in),
                           candidates=candidates)
        _bounded_failure(caplog, ValueError,
                         lambda: engine.execute(request))
