"""The engine's one worker pool: ordered submit/drain over a task slot.

Every parallel run — row-array slices through the request's kernel,
or whole shards through a
:class:`~repro.engine.shards.ShardRunner` — runs the same loop: the
callable that does the work is installed in the module-level slot
*before* the pool forks, so workers inherit it (and everything it
closes over: sources, prepared similarity state, packed columns)
copy-on-write, tasks only ship small arguments in and survivors out,
and results are drained strictly in submission order, which is what
makes parallel execution merge identically to serial execution
regardless of which worker finishes first.

Every task is timed inside the worker, so the seconds
``EngineConfig(profile=True)`` reads exclude queueing and IPC latency.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import warnings
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
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


def run_ordered(target: Callable[..., Any],
                items: Iterable[Tuple[Any, Tuple[Any, ...]]], *,
                workers: int, inflight: int) \
        -> Iterator[Tuple[Any, float, Any]]:
    """Apply ``target`` to every item, yielding results in item order.

    ``items`` yields ``(tag, args)`` pairs; per item the iterator
    yields ``(tag, seconds, target(*args))`` with ``seconds`` the
    call's own duration.  The tag never leaves the parent.
    ``workers == 1`` runs inline; otherwise at most ``inflight`` items
    are queued on a process pool ahead of the drain cursor, which caps
    memory while keeping every worker busy.  ``items`` is consumed
    lazily.

    On platforms without ``fork`` the target is pickled to each worker
    instead of inherited; if that fails the run degrades to inline
    execution rather than erroring.
    """
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
    pending: deque[Tuple[Any, Future[Tuple[float, Any]]]] = deque()
    _install(target)
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                 initializer=initializer,
                                 initargs=initargs) as pool:
            for tag, args in items:
                pending.append((tag, pool.submit(_task, args)))
                if len(pending) >= inflight:
                    tag, future = pending.popleft()
                    yield (tag, *future.result())
            while pending:
                tag, future = pending.popleft()
                yield (tag, *future.result())
    finally:
        _install(None)
