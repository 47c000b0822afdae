"""Derive the three dirty source views and their gold standard.

Each builder takes the ground-truth world and produces a
:class:`SourceBundle`: logical sources for publications / authors /
venues, the association mappings the neighborhood matcher consumes
(publication-author, publication-venue, co-author), and bookkeeping
that ties source ids back to true ids so the gold standard can be
assembled exactly.

Per-source characteristics follow §5.1 of the paper — see the module
docstring of :mod:`repro.datagen` for the substitution rationale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.mapping import Mapping, MappingKind
from repro.datagen.corruption import (
    abbreviate_first_name,
    corrupt_title,
    name_variant,
    random_venue_string,
    typo,
    venue_string,
)
from repro.datagen.gold import GoldStandard
from repro.datagen.names import full_name
from repro.datagen.world import (
    World,
    WorldConfig,
    generate_world,
)
from repro.model.smm import MappingType, SourceMappingModel
from repro.model.source import LogicalSource, ObjectType, PhysicalSource
from repro.sim.tokenize import normalize


@dataclass
class SourceBundle:
    """One derived source: logical sources plus association mappings."""

    name: str
    physical: PhysicalSource
    publications: LogicalSource
    authors: LogicalSource
    venues: Optional[LogicalSource]
    pub_author: Mapping
    author_pub: Mapping
    pub_venue: Optional[Mapping]
    venue_pub: Optional[Mapping]
    co_author: Mapping
    #: source pub id -> true pub id
    true_pub: Dict[str, str] = field(default_factory=dict)
    #: true pub id -> source pub ids (GS may have several)
    pubs_of_true: Dict[str, List[str]] = field(default_factory=dict)
    #: source author id -> true author id
    true_author: Dict[str, str] = field(default_factory=dict)
    #: true author id -> source author ids (DBLP duplicates, GS slugs)
    authors_of_true: Dict[str, List[str]] = field(default_factory=dict)
    #: source venue id -> true venue id
    true_venue: Dict[str, str] = field(default_factory=dict)
    #: extra mappings, e.g. GS -> ACM link same-mapping
    extras: Dict[str, Mapping] = field(default_factory=dict)

    def register_pub(self, source_id: str, true_id: str) -> None:
        self.true_pub[source_id] = true_id
        self.pubs_of_true.setdefault(true_id, []).append(source_id)

    def register_author(self, source_id: str, true_id: str) -> None:
        self.true_author[source_id] = true_id
        ids = self.authors_of_true.setdefault(true_id, [])
        if source_id not in ids:
            ids.append(source_id)


@dataclass
class GsConfig:
    """Google-Scholar noise model knobs."""

    coverage: float = 0.97
    duplicate_rate: float = 0.35
    max_entries_per_pub: int = 4
    author_drop_rate: float = 0.15
    max_authors: int = 6
    year_missing_rate: float = 0.30
    year_off_by_one_rate: float = 0.05
    link_recall: float = 0.216
    link_error_rate: float = 0.03
    # title extraction noise (see corruption.corrupt_title)
    title_typo_rate: float = 0.55
    title_ocr_rate: float = 0.25
    title_truncate_rate: float = 0.12
    title_drop_word_rate: float = 0.12
    title_case_rate: float = 0.05


@dataclass
class DblpConfig:
    """DBLP derivation knobs (duplicate author injection)."""

    duplicate_authors: int = 12
    min_pubs_for_duplicate: int = 4


@dataclass
class AcmConfig:
    """ACM DL derivation knobs."""

    #: conference editions ACM misses (paper: VLDB 2002/2003)
    missing_venues: Tuple[Tuple[str, int], ...] = (
        ("VLDB", 2002), ("VLDB", 2003),
    )
    title_noise_rate: float = 0.03
    #: probability of rendering an author's first name as initials
    author_initial_rate: float = 0.12
    #: probability of dropping a middle initial present in the true name
    drop_middle_rate: float = 0.5


def _co_author_mapping(pub_author: Mapping, lds_name: str) -> Mapping:
    """Derive the symmetric co-author association from publication-author."""
    co = Mapping(lds_name, lds_name, kind=MappingKind.ASSOCIATION)
    for _, row in pub_author.by_domain.items():
        authors = list(row)
        for i, author_a in enumerate(authors):
            for author_b in authors[i + 1:]:
                co.add(author_a, author_b, 1.0)
                co.add(author_b, author_a, 1.0)
    return co


def _display_authors(names: List[str]) -> str:
    return ", ".join(names)


# ----------------------------------------------------------------------
# DBLP
# ----------------------------------------------------------------------

def build_dblp(world: World, config: Optional[DblpConfig] = None,
               *, seed: int = 101) -> SourceBundle:
    """DBLP: curated and complete, with injected duplicate authors."""
    config = config if config is not None else DblpConfig()
    rng = random.Random(seed)

    physical = PhysicalSource("DBLP", "manually curated bibliography",
                              downloadable=True)
    pubs = LogicalSource(physical, ObjectType("Publication"))
    authors = LogicalSource(physical, ObjectType("Author"))
    venues = LogicalSource(physical, ObjectType("Venue"))

    bundle = SourceBundle(
        name="DBLP", physical=physical, publications=pubs, authors=authors,
        venues=venues,
        pub_author=Mapping(pubs.name, authors.name, MappingKind.ASSOCIATION),
        author_pub=Mapping(authors.name, pubs.name, MappingKind.ASSOCIATION),
        pub_venue=Mapping(pubs.name, venues.name, MappingKind.ASSOCIATION),
        venue_pub=Mapping(venues.name, pubs.name, MappingKind.ASSOCIATION),
        co_author=Mapping(authors.name, authors.name, MappingKind.ASSOCIATION),
    )

    # -- duplicate author selection -------------------------------------
    pub_counts: Dict[str, int] = {}
    for pub in world.publications.values():
        for author_id in pub.author_ids:
            pub_counts[author_id] = pub_counts.get(author_id, 0) + 1
    eligible = sorted(
        aid for aid, count in pub_counts.items()
        if count >= config.min_pubs_for_duplicate
    )
    rng.shuffle(eligible)
    duplicated = eligible[:config.duplicate_authors]
    #: true author id -> set of true pub ids credited to the duplicate
    duplicate_pubs: Dict[str, set] = {}
    for author_id in duplicated:
        authored = [pub.id for pub in world.publications.values()
                    if author_id in pub.author_ids]
        rng.shuffle(authored)
        take = max(1, int(len(authored) * rng.uniform(0.3, 0.6)))
        duplicate_pubs[author_id] = set(authored[:take])

    # -- venues -----------------------------------------------------------
    for venue in world.venues.values():
        venue_id = f"dblp:{venue.id}"
        # DBLP style: terse series + year / volume(issue)
        name = venue_string(venue.kind, venue.series, venue.year,
                            venue.number, "tight")
        venues.add_record(
            venue_id, name=name, kind=venue.kind, series=venue.series,
            year=venue.year,
        )
        bundle.true_venue[venue_id] = venue.id

    # -- authors -----------------------------------------------------------
    appearing = {
        author_id for pub in world.publications.values()
        for author_id in pub.author_ids
    }
    #: (true author id, credited pub id) -> dblp author id to use
    def dblp_author_id(author_id: str, pub_id: str) -> str:
        if author_id in duplicate_pubs and pub_id in duplicate_pubs[author_id]:
            return f"dblp:{author_id}:dup"
        return f"dblp:{author_id}"

    for author_id in sorted(appearing):
        author = world.authors[author_id]
        main_id = f"dblp:{author_id}"
        authors.add_record(main_id, name=author.name)
        bundle.register_author(main_id, author_id)
        if author_id in duplicate_pubs:
            first, last = name_variant(author.first, author.last, rng)
            dup_id = f"dblp:{author_id}:dup"
            authors.add_record(dup_id, name=full_name(first, last))
            bundle.register_author(dup_id, author_id)

    # -- publications -------------------------------------------------------
    for pub in world.publications.values():
        pub_id = f"dblp:{pub.id}"
        credited = [dblp_author_id(aid, pub.id) for aid in pub.author_ids]
        names = [authors.require(aid).get("name") for aid in credited]
        venue = world.venues[pub.venue_id]
        pubs.add_record(
            pub_id,
            title=pub.title,
            year=pub.year,
            pages=pub.pages,
            venue=venue_string(venue.kind, venue.series, venue.year,
                               venue.number, "tight"),
            authors=_display_authors(names),
        )
        bundle.register_pub(pub_id, pub.id)
        venue_source_id = f"dblp:{pub.venue_id}"
        bundle.pub_venue.add(pub_id, venue_source_id, 1.0)
        bundle.venue_pub.add(venue_source_id, pub_id, 1.0)
        for author_source_id in credited:
            bundle.pub_author.add(pub_id, author_source_id, 1.0)
            bundle.author_pub.add(author_source_id, pub_id, 1.0)

    bundle.co_author = _co_author_mapping(bundle.pub_author, authors.name)
    return bundle


# ----------------------------------------------------------------------
# ACM Digital Library
# ----------------------------------------------------------------------

def build_acm(world: World, config: Optional[AcmConfig] = None,
              *, seed: int = 202) -> SourceBundle:
    """ACM DL: clean but incomplete; numeric keys; citation counts."""
    config = config if config is not None else AcmConfig()
    rng = random.Random(seed)

    physical = PhysicalSource("ACM", "ACM Digital Library",
                              downloadable=False)
    pubs = LogicalSource(physical, ObjectType("Publication"))
    authors = LogicalSource(physical, ObjectType("Author"))
    venues = LogicalSource(physical, ObjectType("Venue"))

    bundle = SourceBundle(
        name="ACM", physical=physical, publications=pubs, authors=authors,
        venues=venues,
        pub_author=Mapping(pubs.name, authors.name, MappingKind.ASSOCIATION),
        author_pub=Mapping(authors.name, pubs.name, MappingKind.ASSOCIATION),
        pub_venue=Mapping(pubs.name, venues.name, MappingKind.ASSOCIATION),
        venue_pub=Mapping(venues.name, pubs.name, MappingKind.ASSOCIATION),
        co_author=Mapping(authors.name, authors.name, MappingKind.ASSOCIATION),
    )

    missing = set(config.missing_venues)

    def venue_missing(true_venue_id: str) -> bool:
        venue = world.venues[true_venue_id]
        return (venue.series, venue.year) in missing

    # -- venues ---------------------------------------------------------
    venue_counter = 0
    venue_ids: Dict[str, str] = {}
    for venue in world.venues.values():
        if venue_missing(venue.id):
            continue
        venue_counter += 1
        venue_id = f"acm:v{venue_counter:04d}"
        venue_ids[venue.id] = venue_id
        # ACM style: verbose proceedings / journal issue strings
        name = venue_string(venue.kind, venue.series, venue.year,
                            venue.number, "full")
        venues.add_record(
            venue_id, name=name, kind=venue.kind, series=venue.series,
            year=venue.year,
        )
        bundle.true_venue[venue_id] = venue.id

    # -- authors ----------------------------------------------------------
    def acm_render_name(author_id: str) -> str:
        author = world.authors[author_id]
        first = author.first
        if " " in first and rng.random() < config.drop_middle_rate:
            first = first.split()[0]
        if rng.random() < config.author_initial_rate:
            first = abbreviate_first_name(first, keep_middle=False)
        return full_name(first, author.last)

    appearing = sorted({
        author_id
        for pub in world.publications.values()
        if not venue_missing(pub.venue_id)
        for author_id in pub.author_ids
    })
    author_ids: Dict[str, str] = {}
    for counter, true_id in enumerate(appearing, start=1):
        source_id = f"acm:a{counter:05d}"
        author_ids[true_id] = source_id
        authors.add_record(source_id, name=acm_render_name(true_id))
        bundle.register_author(source_id, true_id)

    # -- publications -------------------------------------------------------
    pub_counter = 0
    for pub in world.publications.values():
        if venue_missing(pub.venue_id):
            continue
        pub_counter += 1
        pub_id = f"P-{600000 + pub_counter}"
        title = pub.title
        if rng.random() < config.title_noise_rate:
            title = typo(title, rng, errors=1)
        venue = world.venues[pub.venue_id]
        names = [authors.require(author_ids[aid]).get("name")
                 for aid in pub.author_ids]
        pubs.add_record(
            pub_id,
            title=title,
            year=pub.year,
            citations=pub.citations,
            venue=venue_string(venue.kind, venue.series, venue.year,
                               venue.number, "full"),
            authors=_display_authors(names),
        )
        bundle.register_pub(pub_id, pub.id)
        venue_source_id = venue_ids[pub.venue_id]
        bundle.pub_venue.add(pub_id, venue_source_id, 1.0)
        bundle.venue_pub.add(venue_source_id, pub_id, 1.0)
        for true_author in pub.author_ids:
            author_source_id = author_ids[true_author]
            bundle.pub_author.add(pub_id, author_source_id, 1.0)
            bundle.author_pub.add(author_source_id, pub_id, 1.0)

    bundle.co_author = _co_author_mapping(bundle.pub_author, authors.name)
    return bundle


# ----------------------------------------------------------------------
# Google Scholar
# ----------------------------------------------------------------------

def build_gs(world: World, acm: SourceBundle,
             config: Optional[GsConfig] = None,
             *, seed: int = 303) -> SourceBundle:
    """Google Scholar: simulated crawl with duplicates and dirty data.

    Also fabricates the *pre-existing* GS -> ACM link same-mapping the
    paper exploits in §5.3 ("we utilize an existing mapping by
    extracting existing links in the GS publication entries linking to
    ACM"), with deliberately poor recall.
    """
    config = config if config is not None else GsConfig()
    rng = random.Random(seed)

    physical = PhysicalSource("GS", "Google Scholar (crawled)",
                              downloadable=False)
    pubs = LogicalSource(physical, ObjectType("Publication"))
    authors = LogicalSource(physical, ObjectType("Author"))

    bundle = SourceBundle(
        name="GS", physical=physical, publications=pubs, authors=authors,
        venues=None,
        pub_author=Mapping(pubs.name, authors.name, MappingKind.ASSOCIATION),
        author_pub=Mapping(authors.name, pubs.name, MappingKind.ASSOCIATION),
        pub_venue=None,
        venue_pub=None,
        co_author=Mapping(authors.name, authors.name, MappingKind.ASSOCIATION),
    )

    def gs_author_id(true_author_id: str) -> str:
        """GS authors are keyed by their abbreviated display name, so
        distinct people with the same initials collapse into one
        instance — the paper's "ambiguous author representations"."""
        author = world.authors[true_author_id]
        display = full_name(
            abbreviate_first_name(author.first, keep_middle=False),
            author.last,
        )
        slug = normalize(display).replace(" ", "_")
        source_id = f"gs:author:{slug}"
        if source_id not in authors:
            authors.add_record(source_id, name=display)
        bundle.register_author(source_id, true_author_id)
        return source_id

    links = Mapping(pubs.name, acm.publications.name, MappingKind.SAME,
                    name="GS.LinksToACM")
    acm_pub_ids = acm.publications.ids()

    entry_counter = 0
    for pub in world.publications.values():
        if rng.random() >= config.coverage:
            continue
        entries = 1
        while (entries < config.max_entries_per_pub
               and rng.random() < config.duplicate_rate):
            entries += 1
        for _ in range(entries):
            entry_counter += 1
            entry_id = f"gs:{entry_counter:06d}"
            title = corrupt_title(
                pub.title, rng,
                typo_probability=config.title_typo_rate,
                ocr_probability=config.title_ocr_rate,
                truncate_probability=config.title_truncate_rate,
                drop_probability=config.title_drop_word_rate,
                case_probability=config.title_case_rate,
            )
            venue = world.venues[pub.venue_id]
            attributes: Dict[str, object] = {
                "title": title,
                "venue": random_venue_string(
                    venue.kind, venue.series, venue.year, venue.number, rng
                ),
                "citations": max(0, int(pub.citations
                                        * rng.uniform(0.3, 1.0))),
            }
            if rng.random() >= config.year_missing_rate:
                year = pub.year
                if rng.random() < config.year_off_by_one_rate:
                    year += rng.choice((-1, 1))
                attributes["year"] = year
            # incomplete, abbreviated author lists; first author kept
            kept_authors: List[str] = []
            for index, true_author in enumerate(
                    pub.author_ids[:config.max_authors]):
                if index > 0 and rng.random() < config.author_drop_rate:
                    continue
                kept_authors.append(true_author)
            author_source_ids = [gs_author_id(aid) for aid in kept_authors]
            attributes["authors"] = _display_authors([
                authors.require(aid).get("name") for aid in author_source_ids
            ])
            pubs.add_record(entry_id, **attributes)
            bundle.register_pub(entry_id, pub.id)
            for author_source_id in author_source_ids:
                bundle.pub_author.add(entry_id, author_source_id, 1.0)
                bundle.author_pub.add(author_source_id, entry_id, 1.0)
            # the sparse, pre-existing link mapping to ACM
            acm_counterparts = acm.pubs_of_true.get(pub.id, [])
            if acm_counterparts and rng.random() < config.link_recall:
                if rng.random() < config.link_error_rate:
                    links.add(entry_id, rng.choice(acm_pub_ids), 1.0)
                else:
                    links.add(entry_id, acm_counterparts[0], 1.0)

    bundle.co_author = _co_author_mapping(bundle.pub_author, authors.name)
    bundle.extras["links_to_acm"] = links
    return bundle


# ----------------------------------------------------------------------
# gold standard
# ----------------------------------------------------------------------

def build_gold(world: World, dblp: SourceBundle, acm: SourceBundle,
               gs: SourceBundle,
               duplicated_dblp_authors: Optional[Mapping] = None
               ) -> GoldStandard:
    """Assemble every perfect mapping from the builders' bookkeeping."""
    gold = GoldStandard()

    def cross_pub_gold(left: SourceBundle, right: SourceBundle) -> Mapping:
        mapping = Mapping(left.publications.name, right.publications.name,
                          MappingKind.SAME)
        for true_id, left_ids in left.pubs_of_true.items():
            right_ids = right.pubs_of_true.get(true_id)
            if not right_ids:
                continue
            for left_id in left_ids:
                for right_id in right_ids:
                    mapping.add(left_id, right_id, 1.0)
        return mapping

    def cross_author_gold(left: SourceBundle, right: SourceBundle) -> Mapping:
        mapping = Mapping(left.authors.name, right.authors.name,
                          MappingKind.SAME)
        for true_id, left_ids in left.authors_of_true.items():
            right_ids = right.authors_of_true.get(true_id)
            if not right_ids:
                continue
            for left_id in left_ids:
                for right_id in right_ids:
                    mapping.add(left_id, right_id, 1.0)
        return mapping

    gold.add("publications", cross_pub_gold(dblp, acm))
    gold.add("publications", cross_pub_gold(dblp, gs))
    gold.add("publications", cross_pub_gold(gs, acm))
    gold.add("authors", cross_author_gold(dblp, acm))
    gold.add("authors", cross_author_gold(dblp, gs))

    venue_gold = Mapping(dblp.venues.name, acm.venues.name, MappingKind.SAME)
    acm_venue_by_true = {true: source
                         for source, true in acm.true_venue.items()}
    for dblp_venue_id, true_id in dblp.true_venue.items():
        acm_venue_id = acm_venue_by_true.get(true_id)
        if acm_venue_id is not None:
            venue_gold.add(dblp_venue_id, acm_venue_id, 1.0)
    gold.add("venues", venue_gold)

    if duplicated_dblp_authors is not None:
        gold.add("author-duplicates", duplicated_dblp_authors)
    return gold


def _dblp_duplicate_gold(dblp: SourceBundle) -> Mapping:
    """Self-mapping of injected DBLP duplicate author pairs."""
    mapping = Mapping(dblp.authors.name, dblp.authors.name, MappingKind.SAME)
    for source_ids in dblp.authors_of_true.values():
        if len(source_ids) < 2:
            continue
        for i, id_a in enumerate(source_ids):
            for id_b in source_ids[i + 1:]:
                mapping.add(id_a, id_b, 1.0)
                mapping.add(id_b, id_a, 1.0)
    return mapping


# ----------------------------------------------------------------------
# the assembled dataset
# ----------------------------------------------------------------------

@dataclass
class BibliographicDataset:
    """Everything the evaluation needs, in one object."""

    world: World
    dblp: SourceBundle
    acm: SourceBundle
    gs: SourceBundle
    gold: GoldStandard
    smm: SourceMappingModel

    def bundle(self, name: str) -> SourceBundle:
        """Resolve a bundle by physical source name."""
        bundles = {"DBLP": self.dblp, "ACM": self.acm, "GS": self.gs}
        bundle = bundles.get(name.upper())
        if bundle is None:
            raise KeyError(f"unknown source {name!r}; have {sorted(bundles)}")
        return bundle


#: scale presets: overrides applied to WorldConfig
SCALE_PRESETS: Dict[str, Dict[str, object]] = {
    "tiny": {
        "start_year": 2002, "end_year": 2003,
        "conference_pubs": (6, 10), "journal_pubs": (2, 3),
        "magazine_pubs": (2, 4), "clusters": 10,
    },
    "small": {
        "scale": 0.35, "clusters": 30,
    },
    "paper": {
        "scale": 1.0,
    },
}


def _build_smm(dblp: SourceBundle, acm: SourceBundle,
               gs: SourceBundle) -> SourceMappingModel:
    smm = SourceMappingModel()
    smm.add_mapping_type(MappingType(
        "PubAuthor", "Publication", "Author", "n:m", inverse="AuthorPub"))
    smm.add_mapping_type(MappingType(
        "AuthorPub", "Author", "Publication", "n:m", inverse="PubAuthor"))
    smm.add_mapping_type(MappingType(
        "PubVenue", "Publication", "Venue", "n:1", inverse="VenuePub"))
    smm.add_mapping_type(MappingType(
        "VenuePub", "Venue", "Publication", "1:n", inverse="PubVenue"))
    smm.add_mapping_type(MappingType(
        "CoAuthor", "Author", "Author", "n:m", inverse="CoAuthor"))
    for bundle in (dblp, acm, gs):
        smm.add_source(bundle.publications)
        smm.add_source(bundle.authors)
        if bundle.venues is not None:
            smm.add_source(bundle.venues)
        prefix = bundle.name
        smm.register_mapping(f"{prefix}.PubAuthor", bundle.pub_author,
                             "PubAuthor")
        smm.register_mapping(f"{prefix}.AuthorPub", bundle.author_pub,
                             "AuthorPub")
        if bundle.pub_venue is not None:
            smm.register_mapping(f"{prefix}.PubVenue", bundle.pub_venue,
                                 "PubVenue")
        if bundle.venue_pub is not None:
            smm.register_mapping(f"{prefix}.VenuePub", bundle.venue_pub,
                                 "VenuePub")
        smm.register_mapping(f"{prefix}.CoAuthor", bundle.co_author,
                             "CoAuthor")
    smm.register_mapping("GS.LinksToACM", gs.extras["links_to_acm"])
    return smm


def build_dataset(scale: str = "small", *, seed: int = 7,
                  world_config: Optional[WorldConfig] = None,
                  dblp_config: Optional[DblpConfig] = None,
                  acm_config: Optional[AcmConfig] = None,
                  gs_config: Optional[GsConfig] = None
                  ) -> BibliographicDataset:
    """Generate a full evaluation dataset at the given scale preset.

    ``scale`` is ``"tiny"`` (unit tests), ``"small"`` (default
    benchmarks) or ``"paper"`` (approximates the paper's DBLP/ACM
    sizes).  Pass ``world_config`` to bypass the presets entirely.
    """
    if world_config is None:
        overrides = SCALE_PRESETS.get(scale)
        if overrides is None:
            raise KeyError(
                f"unknown scale {scale!r}; known: {sorted(SCALE_PRESETS)}"
            )
        world_config = WorldConfig(seed=seed, **overrides)
    world = generate_world(world_config)
    dblp = build_dblp(world, dblp_config, seed=seed + 101)
    acm = build_acm(world, acm_config, seed=seed + 202)
    gs = build_gs(world, acm, gs_config, seed=seed + 303)
    gold = build_gold(world, dblp, acm, gs,
                      duplicated_dblp_authors=_dblp_duplicate_gold(dblp))
    smm = _build_smm(dblp, acm, gs)
    return BibliographicDataset(world, dblp, acm, gs, gold, smm)


def dataset_statistics(dataset: BibliographicDataset) -> Dict[str, Dict[str, int]]:
    """Instance counts per source — the reproduction of Table 1."""
    def counts(bundle: SourceBundle) -> Dict[str, int]:
        return {
            "venues": len(bundle.venues) if bundle.venues is not None else 0,
            "publications": len(bundle.publications),
            "authors": len(bundle.authors),
        }

    return {
        "DBLP": counts(dataset.dblp),
        "ACM": counts(dataset.acm),
        "GS": counts(dataset.gs),
    }
