"""Shared machinery for the experiment drivers.

The :class:`Workbench` wraps a generated dataset, the declared
evaluation workflow (:func:`repro.core.prebuilt.evaluation_workflow`)
and the mapping cache its outputs are kept in.  A table driver asks
for named outputs; a step runs when the first table needs it, and the
intermediate mappings several tables share (fuzzy title mappings,
publication same-mappings, the venue same-mapping, ...) come out of
the cache afterwards — exactly the role of MOMA's mapping cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core.mapping import Mapping
from repro.core.prebuilt import evaluation_workflow
from repro.core.workflow import MatchContext
from repro.datagen.sources import BibliographicDataset, SourceBundle
from repro.eval.metrics import MatchQuality, evaluate
from repro.eval.report import Table
from repro.model.cache import MappingCache


@dataclass
class ExperimentResult:
    """Outcome of one experiment driver."""

    experiment_id: str
    title: str
    table: Table
    #: raw measured values for programmatic assertions
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        return self.table.render()


class Workbench:
    """Dataset + the evaluation workflow over one mapping cache."""

    def __init__(self, dataset: BibliographicDataset) -> None:
        self.dataset = dataset
        self.cache = MappingCache(max_entries=256)
        self.workflow = evaluation_workflow(dataset.smm)
        authors = dataset.dblp.authors
        #: the one input no step produces: the trivial same-mapping of
        #: the §4.3 script
        self.provided = {"DBLP.AuthorAuthor": Mapping.identity(
            authors.name, authors.ids())}
        #: one line per step run, across all table runs
        self.trace: List[str] = []

    # -- plumbing --------------------------------------------------------

    def bundle(self, name: str) -> SourceBundle:
        return self.dataset.bundle(name)

    def begin(self) -> Callable[[str], Mapping]:
        """``output(name)`` for one table run: a fresh workspace over
        the shared cache, so what an earlier run produced is a cache
        hit and only what nobody produced yet is computed."""
        context = MatchContext(smm=self.dataset.smm, cache=self.cache,
                               mappings=self.provided)
        context.trace = self.trace
        return functools.partial(self.workflow.output, context)

    def mapping(self, name: str) -> Mapping:
        """One declared output by name (``"year|DBLP|ACM"``)."""
        return self.begin()(name)

    # -- the outputs other code asks for by role ---------------------------

    def fuzzy_title(self, left: str, right: str) -> Mapping:
        """Unthresholded trigram title mapping between two sources."""
        return self.mapping(f"fuzzy_title|{left}|{right}")

    def pub_same(self, left: str, right: str) -> Mapping:
        """Title-based publication same-mapping at the 80% threshold."""
        return self.mapping(f"pub_same|{left}|{right}")

    def fuzzy_pub_authors(self, left: str, right: str) -> Mapping:
        """Trigram mapping over the publications' author-list strings."""
        return self.mapping(f"fuzzy_pub_authors|{left}|{right}")

    def fuzzy_author_names(self, left: str, right: str) -> Mapping:
        """Fuzzy author-name mapping between two sources' author LDS."""
        return self.mapping(f"author_names|{left}|{right}")

    def venue_same(self) -> Mapping:
        """DBLP-ACM venue same-mapping: 1:n neighborhood, Best-1."""
        return self.mapping("venue_same|DBLP|ACM")

    def gs_author_same(self, other: str = "DBLP") -> Mapping:
        """Author same-mapping between ``other`` and GS (§5.4.3 setup)."""
        return self.mapping(f"author_same|{other}|GS")

    # -- evaluation ----------------------------------------------------------

    def gold(self, category: str, left: str, right: str) -> Mapping:
        left_name = getattr(self.bundle(left),
                            "publications" if category == "publications"
                            else "authors" if category == "authors"
                            else "venues").name
        right_name = getattr(self.bundle(right),
                             "publications" if category == "publications"
                             else "authors" if category == "authors"
                             else "venues").name
        return self.dataset.gold.get(category, left_name, right_name)

    def score(self, mapping: Mapping, category: str, left: str,
              right: str, *, restrict=None) -> MatchQuality:
        return evaluate(mapping, self.gold(category, left, right),
                        restrict=restrict)

    # -- venue-kind helpers (conference/journal splits) -----------------------

    def venue_kind_of_dblp_venue(self) -> Dict[str, str]:
        venues = self.bundle("DBLP").venues
        assert venues is not None
        return {instance.id: instance.get("kind") for instance in venues}

    def venue_kind_of_pub(self, source: str) -> Dict[str, str]:
        """Publication id -> "conference"/"journal" via the world."""
        bundle = self.bundle(source)
        world = self.dataset.world
        kinds: Dict[str, str] = {}
        for pub_id, true_id in bundle.true_pub.items():
            venue = world.venues[world.publications[true_id].venue_id]
            kinds[pub_id] = venue.kind
        return kinds


def quality_table(title: str, paper: Dict[str, tuple],
                  results: Dict[str, MatchQuality], note: str) -> Table:
    """One "paper / ours" precision, recall and F-measure row per key
    of ``paper`` (tables 2, 6, 7 and 8)."""
    table = Table(title, ["matcher", "precision (paper/ours)",
                          "recall (paper/ours)", "f-measure (paper/ours)"])
    for key, (paper_p, paper_r, paper_f) in paper.items():
        quality = results[key]
        table.add_row(
            key,
            f"{percent_cell(paper_p)} / {percent_cell(quality.precision)}",
            f"{percent_cell(paper_r)} / {percent_cell(quality.recall)}",
            f"{percent_cell(paper_f)} / {percent_cell(quality.f1)}",
        )
    table.add_note(note)
    return table


def percent_cell(value: float) -> str:
    return f"{value * 100:.1f}%"


def ensure_workbench(source) -> Workbench:
    """Accept either a dataset or an existing workbench."""
    if isinstance(source, Workbench):
        return source
    return Workbench(source)
