"""The engine's one worker pool: ordered submit/drain over a task slot.

Every run — whole shards through a
:class:`~repro.engine.shards.ShardRunner` on the pool, or row-array
slices through the request's kernel inline — runs the same loop: the
callable that does the work is installed in the module-level slot
*before* the pool forks, so the children inherit it (and everything it
closes over: sources, prepared similarity state, packed columns)
copy-on-write, tasks only ship small arguments in and survivors out,
and results are drained strictly in submission order, which is what
makes parallel execution merge identically to serial execution
regardless of which worker finishes first.

``workers=N`` means N processes score: the parent and N − 1 forked
children.  The pool holds one task per child at most: as a child
frees up it is handed the oldest unstarted item, and the parent,
draining in order, runs the newest unstarted item itself whenever the
head of the queue is not back yet.  One task a child, because
``ProcessPoolExecutor`` moves a further task per child into its call
queue, where it can no longer be cancelled: a parent that took back
submitted work would end each request idle while a child worked
through its prefetched shard (``batch-engine`` ``match_p50_ms``
+10–18 %, docs/benchmarks.md).  A run of fewer than two items
forks nothing.

Every task is timed where it runs, so the seconds
``EngineConfig(profile=True)`` reads exclude queueing and IPC latency.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from functools import partial
from itertools import chain, islice
from multiprocessing.context import BaseContext
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

_TARGET: Optional[Callable[..., Any]] = None


def _install(target: Optional[Callable[..., Any]]) -> None:
    global _TARGET
    _TARGET = target


def _timed(target: Callable[..., Any], args: Tuple[Any, ...]) \
        -> Tuple[float, Any]:
    start = time.perf_counter()
    output = target(*args)
    return time.perf_counter() - start, output


def _task(args: Tuple[Any, ...]) -> Tuple[float, Any]:
    if _TARGET is None:  # pragma: no cover - defensive; installed first
        raise RuntimeError("no target installed in worker process")
    return _timed(_TARGET, args)


#: where one item's ``(seconds, output)`` lands, whichever process
#: runs it
_Outcome = Future[Tuple[float, Any]]
#: an unstarted item: its arguments and its outcome
_Item = Tuple[Tuple[Any, ...], _Outcome]


class _Feed:
    """The unstarted items, handed oldest first to each idle child.

    Completion callbacks run on the executor's threads, so the deque
    and the idle count sit under one lock — and the executor is never
    called with that lock held: it fails futures, whose callbacks take
    the lock, while holding its own.  Feeding stops for good once a
    task has failed, a submit was refused (the pool broke) or the run
    is closing, so no work goes into a broken or closing pool.
    """

    def __init__(self, pool: ProcessPoolExecutor, children: int) -> None:
        self._pool = pool
        self._lock = threading.Lock()  # repro: allow-unpicklable -- parent-only, never in a task
        self._unstarted: deque[_Item] = deque()
        self._idle = children
        self._stopped = False
        self._failure: Optional[BaseException] = None

    def add(self, args: Tuple[Any, ...]) -> _Outcome:
        """Queue one item; returns the future of its result."""
        outcome: _Outcome = Future()
        with self._lock:
            self._unstarted.append((args, outcome))
        self._give()
        return outcome

    def steal(self) -> Optional[_Item]:
        """The newest unstarted item, for the parent to run; raises
        the first failure instead once one is known."""
        with self._lock:
            if self._failure is not None:
                raise self._failure
            return self._unstarted.pop() if self._unstarted else None

    def close(self) -> None:
        with self._lock:
            self._stopped = True

    def _give(self) -> None:
        while True:
            with self._lock:
                if self._stopped or not self._idle or not self._unstarted:
                    return
                args, outcome = self._unstarted.popleft()
                self._idle -= 1
            try:
                future = self._pool.submit(_task, args)
            except RuntimeError as error:  # BrokenProcessPool, shut down
                self._fail(error)
                outcome.set_exception(error)
                return
            future.add_done_callback(partial(self._settle, outcome))

    def _settle(self, outcome: _Outcome, future: _Outcome) -> None:
        error = future.exception()
        if error is None:
            outcome.set_result(future.result())
        else:
            self._fail(error)
            outcome.set_exception(error)
        with self._lock:
            self._idle += 1
        self._give()

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            self._stopped = True
            if self._failure is None:
                self._failure = error


def _drain_head(window: deque[Tuple[Any, _Outcome]],
                feed: _Feed, target: Callable[..., Any]) \
        -> Tuple[Any, float, Any]:
    """The head item's result; the parent runs the newest unstarted
    items while the head is not back."""
    tag, outcome = window.popleft()
    while not outcome.done():
        stolen = feed.steal()
        if stolen is None:
            break
        args, stolen_outcome = stolen
        stolen_outcome.set_result(_timed(target, args))
    return (tag, *outcome.result())


def run_ordered(target: Callable[..., Any],
                items: Iterable[Tuple[Any, Tuple[Any, ...]]], *,
                workers: int, inflight: int) \
        -> Iterator[Tuple[Any, float, Any]]:
    """Apply ``target`` to every item, yielding results in item order.

    ``items`` yields ``(tag, args)`` pairs; per item the iterator
    yields ``(tag, seconds, target(*args))`` with ``seconds`` the
    call's own duration.  The tag never leaves the parent.
    ``workers == 1``, or fewer than two items, runs inline; otherwise
    the parent and ``workers - 1`` forked children run the items (see
    the module docstring), at most ``inflight`` of them taken from
    ``items`` ahead of the drain cursor, which caps memory while
    keeping every process busy.  ``items`` is consumed lazily, in the
    parent only.  A failing task — in a child or in the parent — or a
    child that dies (``BrokenProcessPool``) raises here, and no further
    task is handed out.

    On platforms without ``fork`` the target is pickled to each worker
    instead of inherited; if that fails the run degrades to inline
    execution rather than erroring.
    """
    items = iter(items)
    first = list(islice(items, 2))
    if len(first) < 2:
        workers = 1
    items = chain(first, items)
    initializer: Optional[Callable[..., None]] = None
    initargs: Tuple[Any, ...] = ()
    context: Optional[BaseContext] = None
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    elif workers > 1:  # pragma: no cover - spawn-only platforms
        context = multiprocessing.get_context()
        initializer, initargs = _install, (target,)
        try:
            pickle.dumps(target)
        except Exception:
            warnings.warn(
                "match request is not picklable and fork is "
                "unavailable; falling back to serial execution",
                RuntimeWarning, stacklevel=3)
            workers = 1
    if workers == 1:
        for tag, args in items:
            yield (tag, *_timed(target, args))
        return
    window: deque[Tuple[Any, _Outcome]] = deque()
    _install(target)
    try:
        with ProcessPoolExecutor(max_workers=workers - 1,
                                 mp_context=context,
                                 initializer=initializer,
                                 initargs=initargs) as pool:
            feed = _Feed(pool, workers - 1)
            try:
                for tag, args in items:
                    window.append((tag, feed.add(args)))
                    if len(window) >= inflight:
                        yield _drain_head(window, feed, target)
                while window:
                    yield _drain_head(window, feed, target)
            finally:
                feed.close()
    finally:
        _install(None)
