"""The two batch workloads.

``batch-workflows`` is the paper's workload: the table 2–10 match
workflows and the self-mapping extension on one ``Workbench`` per
pass, default serial engine.  ``batch-engine`` is its mirror image:
three matchers over a large DBLP × ACM publication pair on a sharded
two-worker engine, no ``repro.core`` operators at all.

Both repeat whole passes for ``--seconds`` seconds, and both report
their timings *at reference speed* (see ``reference.py``): a fixed
kernel runs between the steps of every pass (table runners, matchers),
and each step's seconds are divided by the kernel's time around it.
The box's speed drifts by tens of per cent over minutes; over ten
seeds the raw median pass spread 28 %, the same passes at reference
speed 2.4 %.  A job is one pass; the headline is the median job, the
tail the upper-quartile job.  The world is the same for every seed and
its size is pinned to the midpoints of the presets' ranges, so that ten
seeds vary the content of the three sources, not the amount of work.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from common import (Outcome, digest, load_expected, median, percentile,
                    timeboxed)
from tracer import Tracer

#: midpoints of WorldConfig's per-venue publication ranges
_PINNED = dict(conference_pubs=(90, 90), journal_pubs=(5, 5),
               magazine_pubs=(10, 10))
#: smoke mode: the "tiny" preset's shape, pinned the same way
_SMOKE = dict(start_year=2002, end_year=2003, conference_pubs=(8, 8),
              journal_pubs=(2, 2), magazine_pubs=(3, 3), clusters=10)

ENGINE_WORKERS = 2
#: share of each source in the serial-vs-sharded row oracle
ORACLE_SHARE = 0.25
SIM_SAMPLE_PAIRS = 50_000


#: the world (publications, authors, communities) is the same for every
#: ``--seed``; the seed derives the three sources from it (which records
#: each one drops, typos, name variants).  Worlds of equal size still
#: differ by 10 % in matching work, through who is prolific and which
#: names collide
WORLD_SEED = 7


def _world(smoke: bool, **full):
    from repro.datagen.world import WorldConfig
    return WorldConfig(seed=WORLD_SEED,
                       **(_SMOKE if smoke else {**_PINNED, **full}))


def _build(config, seed: int):
    from repro.datagen import build_dataset
    return build_dataset(world_config=config, seed=seed)


def _f1_values(node: object) -> List[float]:
    """Every ``f1`` in a runner's ``data`` tree (one per table row)."""
    if not isinstance(node, dict):
        return []
    if "f1" in node:
        return [node["f1"]]
    return [f1 for child in node.values() for f1 in _f1_values(child)]


def _table_digests(data: Dict[str, dict]) -> Dict[str, str]:
    """One digest per table runner's ``data``.

    Table 9 lists its top duplicate-author candidates in the iteration
    order of a merged mapping, so pair orientation and the order of
    tied scores follow the interpreter's string-hash seed; only its
    hash-independent content (the scores and the recall) is digested.
    """
    stable = dict(data)
    table9 = data["table9"]
    stable["table9"] = {
        "recall_at_k": table9["recall_at_k"],
        "gold_pairs": table9["gold_pairs"],
        "merged": [row["merged"] for row in table9["candidates"]]}
    return {name: digest(table) for name, table in stable.items()}


Span = Tuple[float, float]


def _seconds(spans: Dict[str, Span]) -> Dict[str, float]:
    return {name: ended - begun for name, (begun, ended) in spans.items()}


def _floor(passes: List[Dict[str, Span]]) -> Dict[str, float]:
    """Each step's fastest raw time over ``passes``."""
    timed = [_seconds(spans) for spans in passes]
    return {name: min(steps[name] for steps in timed) for name in timed[0]}


def _headline(passes: List[Dict[str, Span]], setups: List[Span],
              imports: Span, records: int, reference,
              metrics: Dict[str, float]) -> None:
    """The timing metrics of a batch run, at reference speed.

    The first pass warms the interpreter up (lazy imports, numpy's
    first calls) and is left out where there are passes to spare.
    """
    timed = passes[1:] if len(passes) > 2 else passes
    jobs = [sum(reference.at_reference(*span) for span in spans.values())
            for spans in timed]
    metrics.update({
        "setup_s": reference.at_reference(*imports) + median(
            [reference.at_reference(*span) for span in setups]),
        "match_p50_ms": median(jobs) * 1000.0,
        # a run has 6-12 passes: the upper quartile is the highest
        # percentile that is not just the single slowest pass
        "match_tail_ms": percentile(jobs, 0.75) * 1000.0,
        "match_records_per_s": records / median(jobs),
        "batch_wall_s": median(
            [sum(_seconds(spans).values()) for spans in timed]),
    })


def _rows_after(span, args, result) -> None:
    span.attrs["rows"] = len(result)


# ----------------------------------------------------------------------
# batch-workflows
# ----------------------------------------------------------------------

def _runners() -> List[Tuple[str, Callable]]:
    from repro.eval import experiments
    tables = [(f"table{n}", getattr(experiments, f"run_table{n}"))
              for n in range(2, 11)]
    return tables + [("self_mapping", experiments.run_self_mapping_extension)]


def _named_mappings(workbench) -> Dict[str, str]:
    """Digests of the memoized mappings the tables share (cache hits)."""
    named = {
        "fuzzy_title|DBLP|ACM": workbench.fuzzy_title("DBLP", "ACM"),
        "fuzzy_title|DBLP|GS": workbench.fuzzy_title("DBLP", "GS"),
        "fuzzy_title|ACM|GS": workbench.fuzzy_title("ACM", "GS"),
        "fuzzy_pub_authors|DBLP|ACM":
            workbench.fuzzy_pub_authors("DBLP", "ACM"),
        "author_names|DBLP|ACM": workbench.fuzzy_author_names("DBLP", "ACM"),
        "venue_same|best1": workbench.venue_same(),
        "gs_author_same|DBLP": workbench.gs_author_same("DBLP"),
        "gs_author_same|ACM": workbench.gs_author_same("ACM"),
    }
    return {key: digest(mapping.to_rows()) for key, mapping in named.items()}


def _workflow_pass(workbench, tracer: Optional[Tracer], reference) \
        -> Tuple[Dict[str, Span], Dict[str, object]]:
    """Run every table once; per-runner intervals and result data."""
    spans: Dict[str, Span] = {}
    data: Dict[str, object] = {}
    for name, runner in _runners():
        reference.tick()
        begun = time.perf_counter()
        if tracer is None:
            result = runner(workbench)
        else:
            with tracer.span(f"eval.{name}"):
                result = runner(workbench)
        spans[name] = (begun, time.perf_counter())
        data[name] = result.data
    return spans, data


def _install_core_wrappers(tracer: Tracer, requests: List[object]) -> None:
    from repro.core.matchers.attribute import AttributeMatcher
    from repro.core.matchers.multi_attribute import MultiAttributeMatcher
    from repro.core.matchers.neighborhood import (NeighborhoodMatcher,
                                                  neighborhood_match)
    from repro.core.operators.compose import compose
    from repro.core.operators.merge import merge
    from repro.core.operators.selection import Selection
    from repro.engine import BatchMatchEngine

    tracer.wrap_function(merge, "core.merge", _rows_after)
    tracer.wrap_function(compose, "core.compose", _rows_after)
    tracer.wrap_function(neighborhood_match, "core.neighborhood", _rows_after)
    pending = list(Selection.__subclasses__())
    while pending:
        selection = pending.pop()
        pending.extend(selection.__subclasses__())
        if "apply" in selection.__dict__:
            tracer.wrap_method(selection, "apply", "core.select", _rows_after)
    for matcher in (AttributeMatcher, MultiAttributeMatcher,
                    NeighborhoodMatcher):
        tracer.wrap_method(matcher, "match", "core.matcher", _rows_after)

    def after_execute(span, args, result) -> None:
        engine, request = args[0], args[1]
        span.attrs["similarity"] = (
            "multiattr" if len(request.specs) > 1
            else request.specs[0].similarity.name)
        profile = engine.profile_summary()
        if profile is not None:
            span.attrs["prepare_s"] = profile["prepare_seconds"]
            span.attrs["score_s"] = profile["score_seconds"]
            shard_seconds = engine.last_profile["shard_seconds"]
            if shard_seconds:
                span.attrs["imbalance"] = (
                    max(shard_seconds) * len(shard_seconds)
                    / sum(shard_seconds))
        requests.append(request)

    tracer.wrap_method(BatchMatchEngine, "execute", "engine.execute",
                       after_execute)


def _blocking_layer(requests: List[object], metrics: Dict[str, float]) \
        -> List[Tuple[str, str]]:
    """Time candidate streaming and shard planning per source pair.

    Returns the value pairs of the first title request's candidates,
    the fixed sample the similarity layer is timed on.
    """
    seen = set()
    sample: List[Tuple[str, str]] = []
    for key in ("blocking.candidates_s", "blocking.pairs",
                "blocking.shards_s"):
        metrics[key] = 0.0
    for request in requests:
        spec = request.specs[0]
        key = (id(request.blocking), request.domain.name, request.range.name,
               spec.attribute)
        if request.blocking is None or key in seen:
            continue
        seen.add(key)
        attributes = dict(domain_attribute=spec.attribute,
                          range_attribute=spec.range_attribute)
        begun = time.perf_counter()
        pairs = list(request.blocking.candidates(
            request.domain, request.range, **attributes))
        metrics["blocking.candidates_s"] += time.perf_counter() - begun
        metrics["blocking.pairs"] += len(pairs)
        begun = time.perf_counter()
        request.blocking.shards(request.domain, request.range,
                                n_shards=4 * ENGINE_WORKERS, **attributes)
        metrics["blocking.shards_s"] += time.perf_counter() - begun
        if not sample and spec.attribute == "title" \
                and not request.is_self:
            for a, b in pairs[:SIM_SAMPLE_PAIRS]:
                left = request.domain.require(a).get("title")
                right = request.range.require(b).get("title")
                if left is not None and right is not None:
                    sample.append((str(left), str(right)))
    return sample


def _sim_layer(sample: List[Tuple[str, str]],
               metrics: Dict[str, float]) -> None:
    from repro.sim import get_similarity
    if not sample:
        return
    values = [value for pair in sample for value in pair]
    metrics["sim.prepare_s"] = 0.0
    for name in ("trigram", "tfidf"):
        similarity = get_similarity(name)
        begun = time.perf_counter()
        similarity.prepare(values)
        metrics["sim.prepare_s"] += time.perf_counter() - begun
        begun = time.perf_counter()
        scores = similarity.score_batch(sample)
        elapsed = time.perf_counter() - begun
        assert len(scores) == len(sample)
        metrics[f"sim.{name}_pairs_per_s"] = len(sample) / elapsed


def _span_layers(tracer: Tracer, passes: int,
                 metrics: Dict[str, float]) -> None:
    """Per-pass ``core.*`` and ``engine.*`` figures from the spans."""
    for layer in ("merge", "compose", "select", "neighborhood"):
        metrics[f"core.{layer}_s"] = \
            tracer.self_seconds(f"core.{layer}") / passes
    metrics["core.matcher_self_s"] = \
        tracer.self_seconds("core.matcher") / passes
    metrics["core.mapping_rows"] = sum(
        span.attrs.get("rows", 0) for span in tracer.spans
        if span.name.startswith("core.")) / passes
    spans = tracer.named("engine.execute")
    for key in ("trigram", "tfidf", "multiattr"):
        metrics[f"engine.{key}_s"] = sum(
            span.seconds for span in spans
            if span.attrs.get("similarity") == key) / passes
    metrics["engine.prepare_s"] = sum(
        span.attrs.get("prepare_s", 0.0) for span in spans) / passes
    metrics["engine.score_s"] = sum(
        span.attrs.get("score_s", 0.0) for span in spans) / passes
    metrics["engine.shard_imbalance"] = median(
        [span.attrs["imbalance"] for span in spans
         if "imbalance" in span.attrs])


def run_workflows(seed: int, seconds: float, trace: bool, smoke: bool,
                  outcome: Outcome, tracer: Tracer) -> None:
    begun = time.perf_counter()
    from reference import Reference
    from repro.engine import configure_default_engine, set_default_engine
    from repro.eval.experiments import Workbench
    config = _world(smoke, scale=0.25, clusters=22)
    imports = (begun, time.perf_counter())
    reference = Reference()

    metrics = outcome.metrics
    setups: List[Span] = []
    untraced: List[Dict[str, Span]] = []
    digests: List[Dict[str, str]] = []
    workbench = data = None

    def one_pass(active: Optional[Tracer]) -> Dict[str, Span]:
        nonlocal workbench, data
        reference.tick(force=True)
        start = time.perf_counter()
        dataset = _build(config, seed)
        metrics["datagen.build_s"] = time.perf_counter() - start
        workbench = Workbench(dataset)
        setups.append((start, time.perf_counter()))
        spans, data = _workflow_pass(workbench, active, reference)
        digests.append(_table_digests(data))
        return spans

    requests: List[object] = []
    traced: List[Dict[str, Span]] = []
    for _ in timeboxed(seconds * (0.8 if trace else 1.0),
                       minimum=1 if trace else 2):
        untraced.append(one_pass(None))
        if not trace:
            continue
        # a traced pass right after each untraced one, so that the
        # box's drift hits both sides of trace.overhead_ratio alike
        _install_core_wrappers(tracer, requests)
        configure_default_engine(profile=True)
        try:
            traced.append(one_pass(tracer))
        finally:
            tracer.uninstall()
            set_default_engine(None)
    reference.tick(force=True)
    floor = sum(_floor(untraced).values())

    records = sum(
        len(source) for bundle in (workbench.dataset.dblp,
                                   workbench.dataset.acm,
                                   workbench.dataset.gs)
        for source in (bundle.publications, bundle.authors, bundle.venues)
        if source is not None)
    f1s = [f1 for table in data.values() for f1 in _f1_values(table)]
    _headline(untraced, setups, imports, records, reference, metrics)
    metrics["quality_f1"] = sum(f1s) / len(f1s)
    cache = workbench.cache.stats()
    metrics["model.cache_hit_ratio"] = (
        cache["hits"] / (cache["hits"] + cache["misses"]))
    outcome.note(f"batch-workflows: {len(untraced)} untraced passes over "
                 f"{records} source records, {len(f1s)} table rows; raw median "
                 f"pass {metrics['batch_wall_s']:.3f}s, box at "
                 f"{reference.median_speed:.2f} x reference kernel time")

    if trace:
        passes = len(traced)
        # the traced floor, table by table: the eval.* figures sum to
        # the numerator of trace.overhead_ratio exactly
        traced_floor = _floor(traced)
        for name, value in traced_floor.items():
            metrics[f"eval.{name}_s"] = value
        _span_layers(tracer, passes, metrics)
        per_pass = requests[:len(requests) // passes]
        _sim_layer(_blocking_layer(per_pass, metrics), metrics)
        engine_s = tracer.seconds("engine.execute") / passes
        metrics["engine.pairs_per_s"] = (
            metrics["blocking.pairs"] / engine_s if engine_s else 0.0)
        metrics["trace.overhead_ratio"] = sum(traced_floor.values()) / floor
        outcome.note(f"batch-workflows: {passes} traced passes, "
                     f"{len(tracer.spans)} spans")

    # -- correctness, outside the timed passes -------------------------
    for number, value in enumerate(digests[1:], start=2):
        outcome.check(value == digests[0],
                      f"pass {number} produced different table data")
    observed = {"tables": digests[-1],
                "mappings": _named_mappings(workbench),
                "quality_f1": metrics["quality_f1"]}
    outcome.observed = observed
    expected = load_expected(seed, smoke)
    if expected is not None:
        for group in ("tables", "mappings"):
            for key, value in expected["batch-workflows"][group].items():
                outcome.check(observed[group].get(key) == value,
                              f"{group}[{key}] differs from expected/")
        outcome.check(
            observed["quality_f1"] == expected["batch-workflows"]["quality_f1"],
            "quality_f1 differs from expected/")


# ----------------------------------------------------------------------
# batch-engine
# ----------------------------------------------------------------------

def _matchers(engine) -> List[Tuple[str, object]]:
    from repro.blocking import TokenBlocking
    from repro.core.matchers.attribute import AttributeMatcher
    from repro.core.matchers.multi_attribute import (AttributePair,
                                                     MultiAttributeMatcher)
    blocking = TokenBlocking()
    return [
        ("trigram", AttributeMatcher("title", similarity="trigram",
                                     threshold=0.7, blocking=blocking,
                                     engine=engine)),
        ("tfidf", AttributeMatcher("title", similarity="tfidf",
                                   threshold=0.5, blocking=blocking,
                                   engine=engine)),
        ("multiattr", MultiAttributeMatcher(
            [AttributePair("title", similarity="trigram"),
             AttributePair("venue", similarity="tfidf", weight=2.0),
             AttributePair("year", similarity="year", weight=0.5)],
            combine="weighted", threshold=0.5, blocking=blocking,
            engine=engine)),
    ]


def _sharded_engine(profile: bool = False):
    from repro.engine import BatchMatchEngine, EngineConfig
    return BatchMatchEngine(EngineConfig(
        workers=ENGINE_WORKERS, shard_blocking=True, profile=profile))


def _engine_pass(domain, range_, profile: bool = False, reference=None) \
        -> Tuple[Dict[str, Span], Dict[str, object]]:
    """Per-matcher intervals and mappings of one sharded pass."""
    spans: Dict[str, Span] = {}
    mappings: Dict[str, object] = {}
    for name, matcher in _matchers(_sharded_engine(profile)):
        if reference is not None:
            reference.tick()
        begun = time.perf_counter()
        mappings[name] = matcher.match(domain, range_)
        spans[name] = (begun, time.perf_counter())
    return spans, mappings


def run_engine(seed: int, seconds: float, trace: bool, smoke: bool,
               outcome: Outcome, tracer: Tracer) -> None:
    begun = time.perf_counter()
    from reference import Reference
    from repro.engine import BatchMatchEngine
    from repro.eval.metrics import evaluate
    config = _world(smoke, scale=1.0, clusters=85)
    imports = (begun, time.perf_counter())
    reference = Reference(runs=2)

    metrics = outcome.metrics
    setups: List[Span] = []
    untraced: List[Dict[str, Span]] = []
    digests: List[Dict[str, str]] = []
    dataset = mappings = None

    def one_pass(profile: bool = False) -> Dict[str, Span]:
        nonlocal dataset, mappings
        # set-up is sampled three times, then the dataset is reused;
        # the traced run reports no setup_s and builds once
        if len(setups) < (1 if trace else 3):
            reference.tick(force=True)
            start = time.perf_counter()
            dataset = _build(config, seed)
            setups.append((start, time.perf_counter()))
            metrics["datagen.build_s"] = setups[-1][1] - start
        spans, mappings = _engine_pass(dataset.dblp.publications,
                                       dataset.acm.publications, profile,
                                       reference)
        digests.append({name: digest(mapping.to_rows())
                        for name, mapping in mappings.items()})
        return spans

    requests: List[object] = []
    traced: List[Dict[str, Span]] = []
    for _ in timeboxed(seconds * (0.8 if trace else 1.0),
                       minimum=1 if trace else 2):
        untraced.append(one_pass())
        if not trace:
            continue
        _install_core_wrappers(tracer, requests)
        try:
            traced.append(one_pass(profile=True))
        finally:
            tracer.uninstall()
    reference.tick(force=True)
    floor = sum(_floor(untraced).values())
    domain, range_ = dataset.dblp.publications, dataset.acm.publications
    gold = dataset.gold.get("publications", domain.name, range_.name)
    f1s = {name: evaluate(mapping, gold).f1
           for name, mapping in mappings.items()}
    records = (len(domain) + len(range_)) * len(mappings)
    _headline(untraced, setups, imports, records, reference, metrics)
    metrics["quality_f1"] = sum(f1s.values()) / len(f1s)
    outcome.note(f"batch-engine: {len(untraced)} untraced passes, "
                 f"{len(domain)} x {len(range_)} publications; raw median "
                 f"pass {metrics['batch_wall_s']:.3f}s, box at "
                 f"{reference.median_speed:.2f} x reference kernel time")

    if trace:
        passes = len(traced)
        traced_floor = sum(_floor(traced).values())
        _span_layers(tracer, passes, metrics)
        _sim_layer(_blocking_layer(requests[:1], metrics), metrics)
        metrics["engine.pairs_per_s"] = \
            metrics["blocking.pairs"] * len(mappings) / traced_floor
        metrics["trace.overhead_ratio"] = traced_floor / floor
        # the default serial engine on the full sources: the base of
        # engine.serial_vs_sharded and a full-row oracle for trigram
        name, matcher = _matchers(BatchMatchEngine())[0]
        start = time.perf_counter()
        serial = matcher.match(domain, range_)
        serial_s = time.perf_counter() - start
        metrics["engine.serial_vs_sharded"] = \
            serial_s / metrics[f"engine.{name}_s"]
        outcome.check(digest(serial.to_rows()) == digests[-1][name],
                      "sharded trigram rows differ from the serial engine")
        outcome.note(f"batch-engine: {passes} traced passes; serial "
                     f"trigram {serial_s:.2f}s vs sharded "
                     f"{metrics['engine.trigram_s']:.2f}s")

    # -- correctness, outside the timed passes -------------------------
    for number, value in enumerate(digests[1:], start=2):
        outcome.check(value == digests[0],
                      f"pass {number} produced different mappings")
    # execution-model oracle: sharded workers vs the default serial
    # engine on a seeded quarter of both sources (the full sources
    # cost ~7 s per matcher serially, more than the run itself)
    rng = random.Random(seed)
    small_domain = domain.subset(
        rng.sample(domain.ids(), max(2, int(len(domain) * ORACLE_SHARE))))
    small_range = range_.subset(
        rng.sample(range_.ids(), max(2, int(len(range_) * ORACLE_SHARE))))
    _, sharded = _engine_pass(small_domain, small_range)
    for name, matcher in _matchers(BatchMatchEngine()):
        outcome.check(
            matcher.match(small_domain, small_range).to_rows()
            == sharded[name].to_rows(),
            f"{name}: sharded rows differ from the default serial engine")
    observed = {"mappings": digests[-1], "f1": f1s,
                "rows": {name: len(mapping)
                         for name, mapping in mappings.items()}}
    outcome.observed = observed
    expected = load_expected(seed, smoke)
    if expected is not None:
        for key, value in expected["batch-engine"].items():
            outcome.check(observed[key] == value,
                          f"{key} differ from expected/")
