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
from dataclasses import dataclass


@dataclass
class Config:
    name: str = "x"
    count: int = 0
    DEFAULT = 10

    def validate(self):
        config = self
        if not config.name:
            raise ValueError("name")
        object.__setattr__(self, "count", max(0, self.count))
        return self


class Worker:
    def __init__(self, repo):
        self.repo: Repo = repo
        self.index = Index()
        self._n = 0

    def run(self):
        self.repo.sync()
'''


def test_class_summary_fields_attrs_and_types():
    summary = _summarize("src/repro/serve/config.py", CLASSY)
    config, worker = summary.classes
    assert [f.name for f in config.fields] == ["name", "count"]
    assert config.fields[0].annotation == "str"
    assert "DEFAULT" in config.class_attrs
    assert config.methods == ["validate"]
    assert worker.attr_types == {"repo": "Repo", "index": "Index"}
    assert set(worker.instance_attrs) >= {"repo", "index", "_n"}


def test_attr_refs_follow_self_alias_and_setattr():
    summary = _summarize("src/repro/serve/config.py", CLASSY)
    validate = next(f for f in summary.functions if f.name == "validate")
    # `config = self` alias and object.__setattr__ both count as refs
    assert "name" in validate.attr_refs
    assert "count" in validate.attr_refs


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


CLI = '''\
import argparse


def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-size", type=int, default=1024)
    parser.add_argument("--missing", dest="missing_policy")
    return parser
'''


def test_cli_flags_with_derived_and_explicit_dest():
    summary = _summarize("src/repro/__main__.py", CLI)
    by_flag = {flag.flags[0]: flag for flag in summary.cli_flags}
    assert by_flag["--cache-size"].dest == "cache_size"
    assert by_flag["--missing"].dest == "missing_policy"


# ----------------------------------------------------------------------
# JSON round-trip (what the cache persists)
# ----------------------------------------------------------------------

def test_summary_round_trips_through_json():
    for source in (IMPORTS, CLASSY, LOCKED, CLI):
        summary = _summarize("src/repro/serve/m.py", source)
        payload = json.loads(json.dumps(summary.to_dict()))
        assert FileSummary.from_dict(payload) == summary


# ----------------------------------------------------------------------
# resolution and the call graph
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
    return ProjectGraph("/nonexistent-root", [
        _summarize("src/repro/engine/lib.py", LIB),
        _summarize("src/repro/engine/app.py", APP),
    ])


def test_resolution_via_from_import_and_module_attribute():
    graph = _two_module_graph()
    app = graph.module_named("repro.engine.app")
    assert app is not None

    symbol = graph.resolve("Kernel", app)
    assert symbol is not None and symbol.kind == "class"
    assert symbol.qualname == "repro.engine.lib.Kernel"

    symbol = graph.resolve("lib.helper", app)
    assert symbol is not None and symbol.kind == "function"
    assert symbol.qualname == "repro.engine.lib.helper"


def test_callees_cross_module():
    graph = _two_module_graph()
    app = graph.module_named("repro.engine.app")
    build = next(f for f in app.functions if f.name == "build")
    names = {symbol.qualname for symbol in graph.callees(build, app)}
    assert names == {"repro.engine.lib.Kernel",
                     "repro.engine.lib.helper"}


def test_methods_of_matches_only_the_class():
    graph = _two_module_graph()
    hit = graph.class_named("repro.engine.lib.Kernel")
    assert hit is not None
    cls, file = hit
    assert [m.name for m in graph.methods_of(cls, file)] == ["score_rows"]
