"""Set-style mapping operations built on merge/compose.

Union, intersection and difference of same-mappings, symmetrization
and transitive closure of self-mappings (duplicate clusters), and the
hub composition helper of Figure 8 ("all data sources connected with
the hub can efficiently be matched with each other").
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.mapping import Mapping, MappingKind, canonical, concatenate
from repro.core.operators.compose import compose
from repro.core.operators.merge import merge


def mapping_union(mappings: Sequence[Mapping], name: Optional[str] = None) -> Mapping:
    """Union of correspondences; agreeing pairs keep the max similarity."""
    return merge(mappings, "max", name=name)


def intersection(mappings: Sequence[Mapping], name: Optional[str] = None) -> Mapping:
    """Pairs present in *all* inputs, at their minimum similarity (Min-0)."""
    return merge(mappings, "min0", name=name)


def difference(left: Mapping, right: Mapping, name: Optional[str] = None) -> Mapping:
    """Correspondences of ``left`` whose pair is absent from ``right``."""
    if left.domain != right.domain or left.range != right.range:
        raise ValueError("difference requires mappings between the same sources")
    rows, others = left.columns(), right.columns()
    shared = np.isin(rows.pair_keys(), others.pair_keys())
    return left.take(~shared, name=name)


def symmetrize(mapping: Mapping, name: Optional[str] = None) -> Mapping:
    """Make a self-mapping symmetric: add (b, a, s) for every (a, b, s).

    Duplicate relationships are inherently symmetric but matchers often
    emit only one direction; agreeing opposite directions keep the
    maximum similarity.
    """
    if not mapping.is_self_mapping():
        raise ValueError("symmetrize only applies to self-mappings")
    columns = mapping.columns()
    mirrored = columns._replace(domain=columns.range, range=columns.domain)
    return Mapping.of(mapping.domain, mapping.range,
                      canonical(concatenate([columns, mirrored])),
                      kind=mapping.kind,
                      name=name if name is not None else mapping.name)


def transitive_closure(mapping: Mapping, name: Optional[str] = None) -> Mapping:
    """Transitive closure of a self-mapping via union-find.

    Same-mappings "conceptually represent 1:1 mappings [so] their
    composition should also result into 1:1 mappings, i.e., the
    composition of same-mappings should be transitive" (§4.1.2).  The
    closure materializes that semantics for duplicate clusters: every
    pair within a connected component becomes a correspondence carrying
    the *minimum* similarity along some witness path is not tracked —
    we conservatively use the smallest similarity seen in the cluster.
    """
    if not mapping.is_self_mapping():
        raise ValueError("transitive_closure only applies to self-mappings")

    parent: dict[str, str] = {}

    def find(node: str) -> str:
        root = node
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[node] != root:  # path compression
            parent[node], node = root, parent[node]
        return root

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    cluster_min: dict[str, float] = {}
    for domain_id, range_id, _similarity in mapping:
        union(domain_id, range_id)
    for domain_id, _range_id, similarity in mapping:
        root = find(domain_id)
        cluster_min[root] = min(cluster_min.get(root, 1.0), similarity)

    members: dict[str, list[str]] = {}
    for node in parent:
        members.setdefault(find(node), []).append(node)

    result = Mapping(mapping.domain, mapping.range,
                     kind=MappingKind.SAME, name=name)
    for root, nodes in members.items():
        similarity = cluster_min.get(root, 1.0)
        for i, node_a in enumerate(nodes):
            for node_b in nodes[i + 1:]:
                result.add(node_a, node_b, similarity)
                result.add(node_b, node_a, similarity)
    return result


def hub_compose(hub_mappings: Iterable[Mapping], source: str, target: str,
                f: str = "min", g: str = "max",
                name: Optional[str] = None) -> Mapping:
    """Match ``source`` to ``target`` through a hub (Figure 8).

    ``hub_mappings`` are same-mappings between the hub source and the
    peripheral sources (in either orientation).  The function locates
    the two mappings that touch ``source`` and ``target``, orients them
    as ``source -> hub`` and ``hub -> target`` and composes.
    """
    to_hub: Optional[Mapping] = None
    from_hub: Optional[Mapping] = None
    for mapping in hub_mappings:
        if mapping.domain == source:
            to_hub = mapping
        elif mapping.range == source:
            to_hub = mapping.inverse()
        if mapping.range == target:
            from_hub = mapping
        elif mapping.domain == target:
            from_hub = mapping.inverse()
    if to_hub is None or from_hub is None:
        raise ValueError(
            f"hub mappings do not connect {source!r} and {target!r}"
        )
    if to_hub.range != from_hub.domain:
        raise ValueError(
            "hub mappings disagree on the hub source: "
            f"{to_hub.range!r} vs {from_hub.domain!r}"
        )
    return compose(to_hub, from_hub, f, g, name=name)
