"""LCK002 fixture: interprocedural lock discipline, good and bad paths.

Linted under ``src/repro/serve/service.py``.  ``_helper`` is only ever
called with ``_lock`` held, so its ``self._flush()`` is clean — the
shape a purely syntactic rule would flag.  ``bad_public`` and the
``bad_helper_path`` chain hold nothing, so both ``self._flush()``
calls there are findings.
"""

import threading

from repro.concurrency import requires_lock


class Service:
    def __init__(self):
        # repro: allow-unpicklable -- fixture type, never crosses a
        # process boundary
        self._lock = threading.RLock()
        self._items = []

    @requires_lock("_lock")
    def _flush(self):
        self._items.clear()

    def ok_with(self):
        with self._lock:
            self._flush()

    def ok_acquire(self):
        self._lock.acquire()
        try:
            self._flush()
        finally:
            self._lock.release()

    def ok_private_path(self):
        with self._lock:
            self._helper()

    def _helper(self):
        self._flush()

    def bad_public(self):
        self._flush()  # bad: public caller holds nothing

    def bad_helper_path(self):
        self._unlocked_helper()

    def _unlocked_helper(self):
        self._flush()  # bad: helper chain holds nothing
