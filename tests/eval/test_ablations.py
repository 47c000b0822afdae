"""The paper's ablation claims, one test per bound, on the tiny workbench.

Each class holds one design choice fixed against its alternatives —
token blocking, Relative compose aggregation, the Avg-0 / Min-0 merge,
the curated hub of Fig. 8, the selection trade-offs and the §7
e-commerce transfer — and each test asserts one quality bound, so a
failure names the claim it breaks.
"""

import pytest

from repro.blocking import TokenBlocking, pair_completeness, reduction_ratio
from repro.core.matchers.attribute import AttributeMatcher
from repro.core.matchers.neighborhood import neighborhood_match
from repro.core.operators.compose import compose
from repro.core.operators.merge import merge
from repro.core.operators.selection import BestNSelection, ThresholdSelection
from repro.core.prebuilt import THRESHOLD
from repro.datagen.ecommerce import EcommerceConfig, build_ecommerce_dataset
from repro.eval import evaluate


class TestTokenBlocking:
    """Token blocking, the default for titles, keeps recall attainable
    while pruning the DBLP x ACM cross product."""

    @pytest.fixture(scope="class")
    def blocked(self, workbench):
        dblp = workbench.bundle("DBLP").publications
        acm = workbench.bundle("ACM").publications
        pairs = set(TokenBlocking().candidates(
            dblp, acm, domain_attribute="title", range_attribute="title"))
        return (pair_completeness(pairs, workbench.gold(
                    "publications", "DBLP", "ACM")),
                reduction_ratio(len(pairs), len(dblp), len(acm)))

    def test_keeps_almost_every_gold_pair_in_reach(self, blocked):
        completeness, _reduction = blocked
        assert completeness > 0.98

    def test_cuts_at_least_half_the_cross_product(self, blocked):
        _completeness, reduction = blocked
        assert reduction > 0.5


class TestComposeAggregation:
    """Venue neighborhood matching (Table 4, Best-1) works because the
    Relative aggregation rewards multi-path support."""

    @pytest.fixture(scope="class")
    def f1(self, workbench):
        dblp, acm = workbench.bundle("DBLP"), workbench.bundle("ACM")
        pub_same = workbench.pub_same("DBLP", "ACM")

        def score(aggregate):
            raw = neighborhood_match(dblp.venue_pub, pub_same,
                                     acm.pub_venue, g2=aggregate)
            return workbench.score(BestNSelection(1).apply(raw),
                                   "venues", "DBLP", "ACM").f1

        return {aggregate: score(aggregate)
                for aggregate in ("relative", "max")}

    def test_relative_is_no_worse_than_single_path_max(self, f1):
        assert f1["relative"] >= f1["max"]

    def test_relative_matches_venues(self, f1):
        assert f1["relative"] > 0.85


class TestCuratedHub:
    """Fig. 8: GS-ACM is best matched by composing through the curated
    DBLP hub."""

    @pytest.fixture(scope="class")
    def f1(self, workbench):
        links = workbench.bundle("GS").extras["links_to_acm"]
        dblp_acm = workbench.pub_same("DBLP", "ACM")
        dblp_gs = workbench.pub_same("DBLP", "GS")
        routes = {
            "direct": links,
            "dblp": compose(dblp_gs.inverse(), dblp_acm, "min", "max"),
            # a deliberately poor hub: DBLP-ACM routed through GS both ways
            "gs": compose(compose(dblp_gs.inverse(), dblp_gs, "min", "max"),
                          links, "min", "max"),
        }
        return {route: workbench.score(mapping, "publications",
                                       "GS", "ACM").f1
                for route, mapping in routes.items()}

    def test_beats_the_direct_link_mapping(self, f1):
        assert f1["dblp"] > f1["direct"]

    def test_beats_a_dirty_hub(self, f1):
        assert f1["dblp"] > f1["gs"]


class TestMergeFunction:
    """Table 2's inputs (title, author, year) under each combination
    function at the 80 % threshold."""

    @pytest.fixture(scope="class")
    def quality(self, workbench):
        inputs = [workbench.fuzzy_title("DBLP", "ACM"),
                  workbench.fuzzy_pub_authors("DBLP", "ACM"),
                  workbench.mapping("year|DBLP|ACM")]
        threshold = ThresholdSelection(THRESHOLD)
        return {function: workbench.score(
                    threshold.apply(merge(inputs, function)),
                    "publications", "DBLP", "ACM")
                for function in ("avg", "avg0", "min0", "max")}

    def test_avg0_beats_ignore_missing_avg(self, quality):
        # ignoring missing lets the year matcher's same-year cross
        # product dominate the merge
        assert quality["avg0"].f1 > quality["avg"].f1

    def test_min0_is_at_least_as_precise_as_max(self, quality):
        assert quality["min0"].precision >= quality["max"].precision


class TestSelection:
    """Selection on the venue same-mapping: thresholds buy precision,
    Best-1 keeps recall."""

    @pytest.fixture(scope="class")
    def quality(self, workbench):
        dblp, acm = workbench.bundle("DBLP"), workbench.bundle("ACM")
        raw = neighborhood_match(dblp.venue_pub,
                                 workbench.pub_same("DBLP", "ACM"),
                                 acm.pub_venue)
        strategies = {"threshold 0.20": ThresholdSelection(0.2),
                      "threshold 0.90": ThresholdSelection(0.9),
                      "best-1": BestNSelection(1)}
        return {label: workbench.score(selection.apply(raw),
                                       "venues", "DBLP", "ACM")
                for label, selection in strategies.items()}

    def test_a_higher_threshold_never_loses_precision(self, quality):
        assert quality["threshold 0.90"].precision >= \
            quality["threshold 0.20"].precision - 1e-9

    def test_best1_keeps_the_recall_a_high_threshold_starves(self, quality):
        assert quality["best-1"].recall >= quality["threshold 0.90"].recall


class TestEcommerceTransfer:
    """§7: the same operators match products, brands and categories
    between a curated catalog and a noisy marketplace feed."""

    @pytest.fixture(scope="class")
    def f1(self):
        data = build_ecommerce_dataset(EcommerceConfig(seed=5, products=400))
        catalog, market = data.catalog, data.market
        fuzzy = AttributeMatcher("name", similarity="trigram",
                                 threshold=0.55).match(catalog.products,
                                                       market.products)
        direct = ThresholdSelection(0.8).apply(fuzzy)
        products = BestNSelection(1, side="range").apply(direct)
        brands = BestNSelection(1).apply(neighborhood_match(
            catalog.brand_product, direct, market.product_brand))
        categories = BestNSelection(1).apply(neighborhood_match(
            catalog.category_product, direct, market.product_category))
        gold = data.gold
        return {
            "products": evaluate(products, gold.get(
                "products", "Catalog.Product", "Market.Product")).f1,
            "brands": evaluate(brands, gold.get(
                "brands", "Catalog.Brand", "Market.Brand")).f1,
            "categories": evaluate(categories, gold.get(
                "categories", "Catalog.Category", "Market.Category")).f1,
        }

    def test_products_by_name_and_best1(self, f1):
        assert f1["products"] > 0.6

    def test_brands_by_neighborhood(self, f1):
        assert f1["brands"] > 0.85

    def test_categories_by_neighborhood(self, f1):
        assert f1["categories"] > 0.85
