"""The evaluation's match strategies, declared once (paper §4, §5).

:func:`evaluation_workflow` is the single statement of every step
behind tables 2-10 and the §5.6 extension: one :class:`MatchWorkflow`
whose steps the table drivers (:mod:`repro.eval.experiments`) ask for
by name through :meth:`MatchWorkflow.output`, so a step runs when a
table first needs it and never again.

Outputs are named ``"<what>|<left>|<right>"`` (``"pub_same|DBLP|ACM"``).
Association mappings are read by their SMM names (``"DBLP.VenuePub"``,
``"GS.LinksToACM"``, as registered by :func:`repro.datagen.build_dataset`);
the one input no step produces is §4.3's trivial same-mapping
``"DBLP.AuthorAuthor"`` (:meth:`Mapping.identity` over ``DBLP.Author``),
which the context has to provide.
"""

from __future__ import annotations

from repro.blocking import KeyBlocking, TokenBlocking
from repro.core.matchers.attribute import AttributeMatcher
from repro.core.operators.selection import (
    BestNSelection,
    MaxAttributeDifference,
    NotIdentity,
    ThresholdSelection,
)
from repro.core.workflow import MatchWorkflow
from repro.model.smm import SourceMappingModel

#: trigram fuzzy-mapping floor; low enough that every threshold the
#: experiments use can be applied afterwards without re-matching
FUZZY_FLOOR = 0.4
#: the standard threshold of the paper's attribute matchers (§5.2)
THRESHOLD = 0.8


def evaluation_workflow(smm: SourceMappingModel) -> MatchWorkflow:
    """Every step of tables 2-10 and §5.6 over the sources of ``smm``."""
    workflow = MatchWorkflow("evaluation")
    # max_df values are calibrated to the corrected two-source cutoff
    # semantics (a token's df is compared against max_df of the
    # *combined* population).  The doubled values reproduce the old
    # effective cutoffs to within one df count (integer truncation
    # differs at some population sizes); no token sits on that boundary
    # at the tiny/small/paper dataset scales, so the candidate sets the
    # experiments were tuned on are unchanged.  Both instances only
    # ever run in two-source mode here.
    title_blocking = TokenBlocking(max_df=0.2)
    name_blocking = TokenBlocking(max_df=0.5)
    threshold = ThresholdSelection(THRESHOLD)

    # -- publications by title: matched once at the floor, thresholded
    #    later (tables 2, 3, 5-8 and the extension share these)
    for left, right in (("DBLP", "ACM"), ("DBLP", "GS"), ("ACM", "GS")):
        workflow.add_matcher(
            f"fuzzy_title|{left}|{right}",
            AttributeMatcher("title", "title", "trigram", FUZZY_FLOOR,
                             blocking=title_blocking),
            f"{left}.Publication", f"{right}.Publication")
        workflow.add_select(f"pub_same|{left}|{right}",
                            f"fuzzy_title|{left}|{right}", threshold)

    # -- table 2: three attribute matchers and their merge
    workflow.add_matcher(
        "fuzzy_pub_authors|DBLP|ACM",
        AttributeMatcher("authors", "authors", "trigram", FUZZY_FLOOR,
                         blocking=title_blocking),
        "DBLP.Publication", "ACM.Publication")
    workflow.add_select("pub_authors_same|DBLP|ACM",
                        "fuzzy_pub_authors|DBLP|ACM", threshold)
    # Blocking on the year value is lossless for exact matching —
    # cross-year pairs score 0 anyway — and avoids the quadratic cross
    # product at paper scale.
    workflow.add_matcher(
        "year|DBLP|ACM",
        AttributeMatcher("year", "year", "exact", 1.0,
                         blocking=KeyBlocking(key=lambda value: (
                             str(value) if value is not None else None))),
        "DBLP.Publication", "ACM.Publication")
    # missing values count as 0 (Avg-0), so a year-only agreement can
    # never clear the threshold on its own
    workflow.add_merge(
        "pub_attributes|DBLP|ACM",
        ["fuzzy_title|DBLP|ACM", "fuzzy_pub_authors|DBLP|ACM",
         "year|DBLP|ACM"], "avg0", selections=[threshold])

    # -- table 3: compose paths via the third source, merged with the
    #    direct mapping (GS-ACM's direct mapping is the link mapping)
    workflow.add_inverse("links|ACM|GS", "GS.LinksToACM")
    workflow.add_inverse("pub_same|GS|DBLP", "pub_same|DBLP|GS")
    for pair, direct, first, second in (
        # DBLP -> GS via ACM: direct DBLP-ACM, then inverted GS->ACM links
        ("DBLP|GS", "pub_same|DBLP|GS", "pub_same|DBLP|ACM", "links|ACM|GS"),
        # DBLP -> ACM via GS: DBLP-GS title mapping, then the links
        ("DBLP|ACM", "pub_same|DBLP|ACM", "pub_same|DBLP|GS",
         "GS.LinksToACM"),
        # GS -> ACM via the curated hub DBLP (Figure 8)
        ("GS|ACM", "GS.LinksToACM", "pub_same|GS|DBLP", "pub_same|DBLP|ACM"),
    ):
        workflow.add_compose(f"pub_via|{pair}", first, second, "min", "max")
        workflow.add_merge(f"pub_direct_or_via|{pair}",
                           [direct, f"pub_via|{pair}"], "max")

    # -- table 4: venues via the 1:n neighborhood (§5.4.1), three
    #    selections of one neighborhood mapping
    workflow.add_neighborhood("venue_nh|DBLP|ACM", "DBLP.VenuePub",
                              "pub_same|DBLP|ACM", "ACM.PubVenue")
    workflow.add_select("venue_same_80|DBLP|ACM", "venue_nh|DBLP|ACM",
                        ThresholdSelection(0.8))
    workflow.add_select("venue_same_50|DBLP|ACM", "venue_nh|DBLP|ACM",
                        ThresholdSelection(0.5))
    workflow.add_select("venue_same|DBLP|ACM", "venue_nh|DBLP|ACM",
                        BestNSelection(1))

    # -- table 5: publications via the n:1 venue neighborhood
    workflow.add_neighborhood("pub_nh|DBLP|ACM", "DBLP.PubVenue",
                              "venue_same|DBLP|ACM", "ACM.VenuePub")
    # Min-0 = intersection: a pair survives only when the titles agree
    # AND the publications sit in matched venues.
    workflow.add_merge("pub_title_and_venue|DBLP|ACM",
                       ["pub_same|DBLP|ACM", "pub_nh|DBLP|ACM"], "min0")

    # -- table 6: authors by name and via the n:m neighborhood
    workflow.add_matcher(
        "author_names|DBLP|ACM",
        AttributeMatcher("name", "name", "trigram", FUZZY_FLOOR,
                         blocking=name_blocking),
        "DBLP.Author", "ACM.Author")
    workflow.add_select("author_names_same|DBLP|ACM",
                        "author_names|DBLP|ACM", threshold)
    workflow.add_neighborhood("author_nh|DBLP|ACM", "DBLP.AuthorPub",
                              "pub_same|DBLP|ACM", "ACM.PubAuthor")
    workflow.add_merge(
        "author_same|DBLP|ACM",
        ["author_names_same|DBLP|ACM", "author_nh|DBLP|ACM"], "max",
        selections=[BestNSelection(1, side="both")])

    # -- tables 7 / 8: GS publications helped by the author neighborhood
    for other in ("DBLP", "ACM"):
        # the initials-tolerant person-name similarity, because "GS
        # reduces authors' first names to their first letter" (§5.4.3)
        workflow.add_matcher(
            f"author_person_names|{other}|GS",
            AttributeMatcher("name", "name", "personname", 0.75,
                             blocking=name_blocking),
            f"{other}.Author", "GS.Author")
        workflow.add_select(f"author_same|{other}|GS",
                            f"author_person_names|{other}|GS",
                            BestNSelection(1))
        # RelativeLeft because GS author lists are incomplete
        workflow.add_neighborhood(
            f"pub_nh|{other}|GS", f"{other}.PubAuthor",
            f"author_same|{other}|GS", "GS.AuthorPub", g2="relative_left")
        # Figure 11: the neighborhood result confines candidates for an
        # additional (permissive) title match on small input data.
        workflow.add_matcher(
            f"pub_refined|{other}|GS",
            AttributeMatcher("title", "title", "trigram", 0.5),
            f"{other}.Publication", "GS.Publication",
            candidates=f"pub_nh|{other}|GS")
        workflow.add_merge(
            f"pub_title_or_authors|{other}|GS",
            [f"pub_same|{other}|GS", f"pub_refined|{other}|GS"], "max",
            selections=[BestNSelection(1, side="range")])

    # -- table 9: duplicate authors within DBLP (the §4.3 script)
    workflow.add_neighborhood("co_author_sim|DBLP|DBLP", "DBLP.CoAuthor",
                              "DBLP.AuthorAuthor", "DBLP.CoAuthor")
    workflow.add_matcher(
        "author_name_sim|DBLP|DBLP",
        AttributeMatcher("name", "name", "trigram", 0.5,
                         blocking=TokenBlocking(max_df=0.25)),
        "DBLP.Author", "DBLP.Author")
    # Avg-0: a candidate missing one of the two signals is averaged
    # against 0 — this reproduces the paper's printed merge values
    # (e.g. Trigoni: (67% + 75%) / 2 = 71%) and keeps pairs that share
    # all co-authors but have unrelated names from flooding the top.
    workflow.add_merge(
        "author_duplicates|DBLP|DBLP",
        ["co_author_sim|DBLP|DBLP", "author_name_sim|DBLP|DBLP"], "avg0",
        selections=[NotIdentity()])

    # -- §5.6: duplicate clusters within GS as a transitive self-mapping,
    #    composed into DBLP-GS matching.  A high title threshold plus
    #    the §3.3 year constraint keeps conference/journal versions of
    #    the same work (identical titles, different years — different
    #    real-world publications!) out of the duplicate clusters;
    #    transitive closure then materializes the clusters as a
    #    1:1-per-pair self-mapping.
    gs = smm.require_source("GS.Publication")
    workflow.add_matcher(
        "pub_title_dups|GS|GS",
        AttributeMatcher("title", similarity="trigram", threshold=0.9,
                         blocking=TokenBlocking()),
        "GS.Publication", "GS.Publication")
    workflow.add_select("pub_year_dups|GS|GS", "pub_title_dups|GS|GS",
                        MaxAttributeDifference(gs, gs, "year", 0.5))
    workflow.add_symmetrize("pub_dup_pairs|GS|GS", "pub_year_dups|GS|GS")
    workflow.add_closure("pub_self|GS|GS", "pub_dup_pairs|GS|GS")
    workflow.add_compose("pub_via_self|DBLP|GS", "pub_same|DBLP|GS",
                         "pub_self|GS|GS", "min", "max")
    # merge the propagated evidence in, then let each GS entry keep its
    # best DBLP partner — cluster support disambiguates near-ties
    workflow.add_merge(
        "pub_expanded|DBLP|GS",
        ["pub_same|DBLP|GS", "pub_via_self|DBLP|GS"], "max",
        selections=[BestNSelection(1, side="range")])
    return workflow
