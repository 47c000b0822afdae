"""Unit tests for the project model: extraction, resolution, caching."""

import ast
import json

from repro.analysis.graph import (
    FileSummary,
    ProjectGraph,
    module_name_for,
    summarize_module,
)


def _summarize(display, source):
    return summarize_module(display, ast.parse(source))


# ----------------------------------------------------------------------
# module naming
# ----------------------------------------------------------------------

def test_module_name_strips_src_and_init():
    assert module_name_for("src/repro/serve/cluster.py") \
        == "repro.serve.cluster"
    assert module_name_for("src/repro/__init__.py") == "repro"
    assert module_name_for("benchmarks/bench_match.py") \
        == "benchmarks.bench_match"


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

IMPORTS = '''\
import os
import threading as thr
from repro.engine import sparse
from repro.serve.index import IncrementalIndex as Index
'''


def test_imports_map_local_names_to_dotted_targets():
    summary = _summarize("src/repro/x.py", IMPORTS)
    assert summary.imports["os"] == "os"
    assert summary.imports["thr"] == "threading"
    assert summary.imports["sparse"] == "repro.engine.sparse"
    assert summary.imports["Index"] == "repro.serve.index.IncrementalIndex"


CLASSY = '''\
class Worker:
    def __init__(self, repo):
        self.repo: Repo = repo
        self.index = Index()
        self._n = 0

    def run(self):
        self.repo.sync()
'''


def test_class_summary_methods_and_attr_types():
    summary = _summarize("src/repro/serve/worker.py", CLASSY)
    (worker,) = summary.classes
    assert worker.methods == ["__init__", "run"]
    assert worker.attr_types == {"repo": "Repo", "index": "Index"}


LOCKED = '''\
class Service:
    def timed(self):
        with self._lock:
            self._flush()

    def manual(self):
        self._lock.acquire()
        try:
            self._flush()
        finally:
            self._lock.release()
        self.after()
'''


def test_lock_spans_with_block_and_acquire_release():
    summary = _summarize("src/repro/serve/service.py", LOCKED)
    timed, manual = summary.functions
    (span,) = timed.lock_spans
    assert span.lock == "_lock" and span.via == "with"
    assert span.covers(4)
    (span,) = manual.lock_spans
    assert span.via == "acquire"
    assert span.covers(9)          # the guarded self._flush()
    assert not span.covers(12)     # self.after() runs post-release


# ----------------------------------------------------------------------
# JSON round-trip (what the cache persists)
# ----------------------------------------------------------------------

def test_summary_round_trips_through_json():
    for source in (IMPORTS, CLASSY, LOCKED):
        summary = _summarize("src/repro/serve/m.py", source)
        payload = json.loads(json.dumps(summary.to_dict()))
        assert FileSummary.from_dict(payload) == summary


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------

LIB = '''\
def helper():
    return 1


class Kernel:
    def score_rows(self, a, b):
        return helper()
'''

APP = '''\
from repro.engine import lib
from repro.engine.lib import Kernel


def build():
    kernel = Kernel()
    return lib.helper(), kernel
'''


def _two_module_graph():
    return ProjectGraph([
        _summarize("src/repro/engine/lib.py", LIB),
        _summarize("src/repro/engine/app.py", APP),
    ])


def test_resolution_via_from_import_and_module_attribute():
    graph = _two_module_graph()
    app = graph.modules["repro.engine.app"]

    symbol = graph.resolve("Kernel", app)
    assert symbol is not None and symbol.kind == "class"
    assert symbol.qualname == "repro.engine.lib.Kernel"

    symbol = graph.resolve("lib.helper", app)
    assert symbol is not None and symbol.kind == "function"
    assert symbol.qualname == "repro.engine.lib.helper"


def test_methods_of_matches_only_the_class():
    graph = _two_module_graph()
    hit = graph.class_named("repro.engine.lib.Kernel")
    assert hit is not None
    cls, file = hit
    assert [m.name for m in graph.methods_of(cls, file)] == ["score_rows"]
