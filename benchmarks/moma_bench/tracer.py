"""The benchmark's own tracer: spans recorded from outside ``repro``.

Nothing under ``src/`` is edited.  A traced run installs timing
wrappers around public functions and methods of each layer at run
time, keeps the spans in memory and dumps them when the run ends.  A
span is ``(id, parent, root, name, start, end, attrs)``; a layer's
*self time* is its spans' duration minus what their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "attrs",
                 "child_seconds")

    def __init__(self, id: int, parent: Optional["Span"], name: str) -> None:
        self.id = id
        self.parent = parent.id if parent is not None else None
        self.root = parent.root if parent is not None else id
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: Dict[str, object] = {}
        self.child_seconds = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()  # repro: allow-unpicklable -- the tracer lives in the benchmark process only
        self._local = threading.local()  # repro: allow-unpicklable -- see _lock
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span = Span(len(self.spans), stack[-1] if stack else None, name)
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_seconds += span.seconds

    # -- wrappers ------------------------------------------------------

    def _wrapper(self, original: Callable, name: str,
                 after: Optional[Callable] = None) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result
        return traced

    def wrap_method(self, owner: type, attribute: str, name: str,
                    after: Optional[Callable] = None) -> None:
        """Time ``owner.attribute`` (defined on ``owner`` itself)."""
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self._wrapper(original, name, after))
        self._undo.append(lambda: setattr(owner, attribute, original))

    def wrap_function(self, function: Callable, name: str,
                      after: Optional[Callable] = None) -> None:
        """Time a module-level function wherever ``repro`` bound it.

        Callers hold ``from x import f`` references, so every loaded
        ``repro`` module whose globals point at the function is patched.
        """
        traced = self._wrapper(function, name, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, traced)
                    self._undo.append(
                        lambda m=module, a=attribute: setattr(m, a, function))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading -------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_seconds(self, name: str) -> float:
        return sum(span.self_seconds for span in self.named(name))

    def seconds(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent, "root": span.root,
                    "name": span.name, "start": span.start, "end": span.end,
                    "attrs": span.attrs}) + "\n")
