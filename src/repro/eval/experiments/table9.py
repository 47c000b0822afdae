"""Table 9 — duplicate author candidates within DBLP (§4.3, §5.5).

The paper's self-mapping script::

    $CoAuthSim = nhMatch(DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor)
    $NameSim   = attrMatch(DBLP.Author, DBLP.Author, Trigram, 0.5,
                           "[name]", "[name]")
    $Merged    = merge($CoAuthSim, $NameSim, Average)
    $Result    = select($Merged, "[domain.id]<>[range.id]")

Two authors are duplicate candidates when they share a significant
fraction of co-authors and/or have similar names.  The paper lists its
top-5 candidates with co-author overlap 100..67 %, name similarity and
the number of shared co-authors (compose paths); we report our top
candidates the same way plus recall of the injected duplicate pairs.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping import distinct_keys
from repro.eval.experiments.common import (
    ExperimentResult,
    Workbench,
    ensure_workbench,
    percent_cell,
)
from repro.eval.report import Table

#: the paper's top-5 (for the table's reference column)
PAPER_TOP = (
    ("Catalina Fan", "Catalina Wei", 1.00, 0.64, 0.82),
    ("Amir M. Zarkesh", "Amir Zarkesh", 0.75, 0.84, 0.79),
    ("M. Barczyc", "M. Barczyk", 0.73, 0.75, 0.74),
    ("Agathoniki Trigoni", "Niki Trigoni", 0.67, 0.75, 0.71),
    ("Joe Chun-Hung Yuen", "Joe Yuen", 0.67, 0.62, 0.65),
)


def run_table9(source, *, top_k: int = 5) -> ExperimentResult:
    workbench: Workbench = ensure_workbench(source)
    output = workbench.begin()
    dblp = workbench.bundle("DBLP")
    authors = dblp.authors

    co_author_sim = output("co_author_sim|DBLP|DBLP")
    name_sim = output("author_name_sim|DBLP|DBLP")
    merged = output("author_duplicates|DBLP|DBLP")

    gold = workbench.dataset.gold.get("author-duplicates",
                                      authors.name, authors.name)
    gold_pairs = {tuple(sorted(pair)) for pair in gold.pairs()}

    # unordered candidate pairs ranked by merged similarity.  The merged
    # mapping is symmetric but iterates in the order of its set-built
    # inputs, so each pair is taken where it first occurs, named
    # (min id, max id), and ties are broken on the ids — the ranking
    # must not follow PYTHONHASHSEED.  Ranked on the columns first:
    # only the pairs that are reported get their detail row.
    columns = merged.columns()
    ids = columns.domain_space.ids  # a self-mapping: one id space
    low = np.minimum(columns.domain, columns.range).astype(np.int64)
    first, _ = distinct_keys(
        (low << 32) | np.maximum(columns.domain, columns.range))
    sims = columns.sims[first]
    keep = max(top_k, len(gold_pairs))
    if 0 < keep < len(first):
        # everything tied with the keep-th similarity is still in
        first = first[sims >= np.partition(sims, -keep)[-keep]]
    ranked = sorted(
        (-similarity, *sorted((ids[domain], ids[range_])))
        for domain, range_, similarity in zip(
            columns.domain[first].tolist(), columns.range[first].tolist(),
            columns.sims[first].tolist()))
    top = [{
        "author_a": author_a,
        "author_b": author_b,
        "name_a": authors.require(author_a).get("name"),
        "name_b": authors.require(author_b).get("name"),
        "co_author": co_author_sim.get(author_a, author_b) or 0.0,
        "name": name_sim.get(author_a, author_b) or 0.0,
        "merged": -negated,
        "shared_co_authors": len(
            set(dblp.co_author.range_ids_of(author_a))
            & set(dblp.co_author.range_ids_of(author_b))),
    } for negated, author_a, author_b in ranked[:keep]]
    # recall of injected duplicates among the top candidates
    found = sum(
        1 for row in top
        if (row["author_a"], row["author_b"]) in gold_pairs
    )
    recall_at_k = found / len(gold_pairs) if gold_pairs else 1.0

    table = Table(
        "Table 9: top duplicate author candidates within DBLP",
        ["rank", "author", "author'", "co-author", "name", "merge",
         "(paths)"],
    )
    for rank, row in enumerate(top[:top_k], start=1):
        table.add_row(
            rank, row["name_a"], row["name_b"],
            percent_cell(row["co_author"]), percent_cell(row["name"]),
            percent_cell(row["merged"]), row["shared_co_authors"],
        )
    table.add_note(
        "paper's top-5 for reference: "
        + "; ".join(f"{a} ~ {b} (co {percent_cell(co)}, name "
                    f"{percent_cell(nm)}, merge {percent_cell(mg)})"
                    for a, b, co, nm, mg in PAPER_TOP)
    )
    table.add_note(
        f"injected duplicate pairs recovered among top candidates: "
        f"{found}/{len(gold_pairs)}"
    )
    return ExperimentResult(
        "table9", "duplicate author detection", table,
        data={
            "candidates": top[:top_k],
            "recall_at_k": recall_at_k,
            "gold_pairs": len(gold_pairs),
        },
    )
