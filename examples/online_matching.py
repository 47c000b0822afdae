"""Online matching of web query results (§2.1's second use case).

Web sources cannot be downloaded, only queried; object matching then
runs on query results as they arrive.  This example runs the serving
subsystem the way a deployment would: a
:class:`~repro.serve.MatchService` holds DBLP behind an incrementally
indexed, kernel-packed reference, the v1 HTTP server fronts it, and a
:class:`~repro.serve.Client` drives everything over the wire — query
batches from the simulated Google Scholar source score through single
kernel calls, repeated results reuse the cache (the paper's mapping
reuse), matched same-mappings persist into a
:class:`~repro.model.repository.MappingRepository`, and a late
"publication feed" ingest shows reference mutation with precise cache
invalidation.

Run with::

    python examples/online_matching.py
"""

import threading

from repro.datagen import build_dataset
from repro.datagen.query import QueryClient
from repro.model.entity import ObjectInstance
from repro.model.repository import MappingRepository
from repro.serve import Client, MatchService, ServeConfig
from repro.serve.http import build_server


def main():
    dataset = build_dataset("tiny")
    gs_client = QueryClient(dataset.gs.publications, attribute="title")
    repository = MappingRepository(":memory:")
    service = MatchService(
        dataset.dblp.publications,
        config=ServeConfig(attribute="title", similarity="trigram",
                           threshold=0.75,
                           mapping_name="gs-vs-dblp",
                           source_name="GS.Publication"),
        repository=repository)
    server = build_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = Client(f"http://{host}:{port}")

    print(f"match service listening on http://{host}:{port} "
          f"({client.healthz()['records']} DBLP records)")
    print("Simulating query-time integration: query GS per DBLP title,")
    print("match each result batch online over the v1 HTTP API.\n")

    gold = dataset.gold.publications("GS.Publication", "DBLP.Publication")
    shown = 0
    correct = total = 0
    for pub_id in dataset.dblp.publications.ids():
        title = dataset.dblp.publications.require(pub_id).get("title")
        results = gs_client.search(title, max_results=3)
        if not results:
            continue
        matches_by_id = client.match(results)["matches"]
        for result in results:
            matches = matches_by_id[result.id]
            if not matches:
                continue
            total += 1
            best_id, score = matches[0]
            is_correct = gold.get(result.id, best_id) is not None
            correct += is_correct
            if shown < 8:
                shown += 1
                mark = "+" if is_correct else "!"
                print(f" {mark} GS {result.id}: "
                      f"{str(result.get('title'))[:46]:46s} "
                      f"-> {best_id} (sim={score:.2f})")

    stats = client.stats()
    print(f"\nmatched {total} query results online, "
          f"{correct / total:.1%} of top-1 matches correct")
    print(f"reuse cache: {stats['cache']['hits']} hits / "
          f"{stats['cache']['misses']} misses "
          "(duplicate GS entries returned by several queries are free)")
    print(f"kernel calls: {stats['batches']} (one per request with cache "
          f"misses) for {stats['batched_records']} records")
    print(f"repository: {repository.info('gs-vs-dblp')['correspondences']} "
          "correspondences materialized in 'gs-vs-dblp'")

    # the reference is live: ingest a fresh record and match against it
    fresh = ObjectInstance("dblp-fresh-1", {
        "title": "Mapping-based Object Matching as a Service"})
    client.ingest([fresh])
    probe = ObjectInstance("gs-probe", {
        "title": "mapping based object matching as a service"})
    best = client.match_record(probe)
    print(f"\nafter ingest, new record matches immediately: "
          f"{best[0][0]} (sim={best[0][1]:.2f})")

    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


if __name__ == "__main__":
    main()
