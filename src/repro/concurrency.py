"""Lock-discipline annotations shared by the serve tier.

``@requires_lock("_lock")`` documents — and, where possible, enforces —
that a method must only run while the named instance lock is held.  It
serves three audiences at once:

* readers: the contract is on the ``def`` line instead of buried in a
  docstring ("caller holds _lock");
* the static checker (:mod:`repro.analysis.lck`): annotated methods
  called via ``self.`` on a path that provably holds nothing are
  flagged as LCK002 findings;
* the runtime: when the instance actually has the named attribute and
  it exposes ``_is_owned`` (an ``RLock``), the wrapper asserts
  ownership.  Plain ``Lock`` objects and absent attributes degrade to
  a no-op so the decorator can annotate single-threaded helpers (e.g.
  ``IncrementalIndex``, which is locked by its owning service).

The assert is cheap (one ``getattr`` + one C call) but still skipped
under ``python -O`` like any assert.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, TypeVar, cast

_Method = TypeVar("_Method", bound=Callable[..., Any])


def requires_lock(lock_name: str) -> Callable[[_Method], _Method]:
    """Mark a method as callable only with ``self.<lock_name>`` held."""

    def decorate(method: _Method) -> _Method:
        @functools.wraps(method)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            lock = getattr(self, lock_name, None)
            is_owned = getattr(lock, "_is_owned", None)
            if is_owned is not None:
                assert is_owned(), (
                    f"{type(self).__name__}.{method.__name__} requires "
                    f"{lock_name} held")
            return method(self, *args, **kwargs)

        wrapper.__requires_lock__ = lock_name  # type: ignore[attr-defined]
        return cast(_Method, wrapper)

    return decorate
