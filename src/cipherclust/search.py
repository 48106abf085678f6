"""Cluster abstracts, query-time pruning, and document ranking.

Each cluster is summarized by an abstract: its top-a tokens by total corpus
frequency. A query is scored against the abstracts to decide which clusters
are worth searching; documents in the surviving clusters are then ranked by
summed term frequency. Clusters and abstracts are immutable at query time,
so concurrent queries over shared snapshots are safe.

Query cost follows the query, not the clusters. The lookup structures are
built once, when an Abstract or ClusterSet is constructed (so at load time
for read_abstracts and read_clusters): each abstract holds a token ->
frequency dict and its minimum token, each cluster a frozenset of its
tokens. prune then costs O(clusters x query tokens), and search costs one
membership probe per query token in each selected cluster plus the postings
it adds: O(selected x query tokens + postings), plus an integer sort of the
scores to find the cutoff-th best and a keyed sort of the documents that
reach it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .clustering import ClusterSet
from .crypto import CipherToken, token_from_b64, token_to_b64
from .index import IndexDataError, data_lines, write_lines


@dataclass(frozen=True)
class Abstract:
    """A cluster's top tokens; entries must name each token once."""

    cluster_id: int
    entries: tuple[tuple[CipherToken, int], ...]  # (token, corpus frequency), highest first
    frequencies: dict[CipherToken, int] = field(init=False, compare=False, repr=False)
    # prune's tie-break: cluster token sets are disjoint, so it is unique per abstract
    min_token: CipherToken | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        frequencies = dict(self.entries)
        if len(frequencies) != len(self.entries):
            raise ValueError(f"abstract of cluster {self.cluster_id} lists a token twice")
        object.__setattr__(self, "frequencies", frequencies)
        object.__setattr__(self, "min_token", min(frequencies, default=None))


@dataclass(frozen=True)
class SearchResult:
    ranked: tuple[tuple[str, int], ...]  # (docId, score), best first
    clusters_searched: tuple[int, ...]


def build_abstracts(clusters: ClusterSet, a: int) -> list[Abstract]:
    """One abstract per cluster: the a highest-total-frequency tokens.

    Ties at the cutoff keep the lexicographically smaller ciphertext.
    """
    if a < 1:
        raise ValueError("abstract size must be >= 1")
    abstracts = []
    for cid, cluster in enumerate(clusters.clusters):
        scored = sorted(
            ((token, clusters.index.total_frequency(token)) for token in cluster.tokens),
            key=lambda kv: (-kv[1], kv[0]),
        )
        abstracts.append(Abstract(cluster_id=cid, entries=tuple(scored[:a])))
    return abstracts


def prune(query_tokens: Iterable[CipherToken], abstracts: list[Abstract], c: int) -> list[int]:
    """Top-c clusters whose abstracts overlap the query, by summed frequency.

    Clusters scoring zero are dropped; if every cluster scores zero the whole
    set is returned so the search can fall back to the full index.
    """
    if c < 1:
        raise ValueError("prune width must be >= 1")
    query = set(query_tokens)
    scored = []
    for abstract in abstracts:
        frequencies = abstract.frequencies
        score = sum(frequencies[token] for token in query if token in frequencies)
        if score > 0:
            scored.append((-score, abstract.min_token, abstract.cluster_id))
    if not scored:
        return [abstract.cluster_id for abstract in abstracts]
    scored.sort()
    return [cid for _, _, cid in scored[:c]]


def search(
    query_tokens: Iterable[CipherToken], clusters: ClusterSet, selected: Iterable[int], cutoff: int
) -> SearchResult:
    """Rank documents of the selected clusters against the query tokens.

    selected must name distinct cluster ids in 0..k_used-1 and cutoff must be
    >= 1. Only documents scoring at least the cutoff-th best score are
    sorted, so ties at the cutoff rank as in a full sort.
    """
    if cutoff < 1:
        raise ValueError(f"result cutoff must be >= 1, got {cutoff}")
    selected = tuple(selected)
    if not selected:
        raise ValueError("at least one cluster must be selected")
    token_sets = clusters.token_sets
    seen: set[int] = set()
    for cid in selected:
        if not 0 <= cid < len(token_sets):
            raise ValueError(f"cluster id {cid} is out of range 0..{len(token_sets) - 1}")
        if cid in seen:
            raise ValueError(f"cluster id {cid} is selected twice")
        seen.add(cid)
    query = set(query_tokens)
    entries = clusters.index.entries
    scores: dict[str, int] = {}
    for cid in selected:
        members = token_sets[cid]
        for token in query:
            if token not in members:
                continue
            for doc, freq in entries[token]:
                scores[doc] = scores.get(doc, 0) + freq
    items = scores.items()
    if len(scores) > cutoff:
        floor = sorted(scores.values(), reverse=True)[cutoff - 1]
        items = [kv for kv in items if kv[1] >= floor]
    ranked = sorted(items, key=lambda kv: (-kv[1], kv[0]))[:cutoff]
    return SearchResult(ranked=tuple(ranked), clusters_searched=selected)


def check_pairing(abstracts: list[Abstract], clusters: ClusterSet, path: str | Path) -> None:
    """Reject abstracts that were not built from these clusters.

    There must be one abstract per cluster, and each entry must name a token
    of its own cluster with that token's total frequency in the clusters'
    index. The error names the abstracts file and the cluster id. Costs one
    pass over the postings of the abstracts' tokens.
    """
    n, k = len(abstracts), clusters.k_used
    if n != k:
        unpaired = f"the abstract of cluster {k} has no cluster" if n > k else f"cluster {n} has no abstract"
        raise IndexDataError(f"{path}: {n} abstracts for {k} clusters; {unpaired}")
    for abstract, members in zip(abstracts, clusters.token_sets):
        for token, freq in abstract.entries:
            if token not in members:
                raise IndexDataError(
                    f"{path}: abstract of cluster {abstract.cluster_id} names token "
                    f"{token_to_b64(token)}, which is not in that cluster"
                )
            total = clusters.index.total_frequency(token)
            if freq != total:
                raise IndexDataError(
                    f"{path}: abstract of cluster {abstract.cluster_id} gives token "
                    f"{token_to_b64(token)} frequency {freq}; the clusters give {total}"
                )


# ---------------------------------------------------------------------------
# abstracts file (JSON lines) and results TSV

def write_abstracts(abstracts: list[Abstract], path: str | Path) -> None:
    lines = []
    for abstract in abstracts:
        obj = {
            "cluster": abstract.cluster_id,
            "entries": [[token_to_b64(t), freq] for t, freq in abstract.entries],
        }
        lines.append(json.dumps(obj, separators=(",", ":")))
    write_lines(path, lines)


def read_abstracts(path: str | Path) -> list[Abstract]:
    """Parse an abstracts file written by write_abstracts.

    Rejected with path:lineno: a malformed line or entry, a frequency that is
    not an integer >= 1, a token listed twice and cluster ids that do not run
    0, 1, 2, ... in order.
    """
    abstracts = []
    for lineno, line in data_lines(path):
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
            cid = obj["cluster"]
            entries = tuple((token_from_b64(t), f) for t, f in obj["entries"])
        except (ValueError, KeyError, TypeError) as exc:
            raise IndexDataError(f"{where}: malformed abstract line: {exc}")
        if type(cid) is not int or cid != len(abstracts):
            raise IndexDataError(f"{where}: cluster id {cid!r}; ids must be 0,1,2,... in order")
        for token, freq in entries:
            if type(freq) is not int or freq < 1:
                raise IndexDataError(
                    f"{where}: token {token_to_b64(token)} has frequency {freq!r}; need an integer >= 1"
                )
        try:
            abstracts.append(Abstract(cluster_id=cid, entries=entries))
        except ValueError as exc:
            raise IndexDataError(f"{where}: {exc}")
    return abstracts


def format_results(result: SearchResult) -> str:
    """TSV rendering: rank, docId, score."""
    lines = [f"{rank}\t{doc}\t{score}" for rank, (doc, score) in enumerate(result.ranked, 1)]
    return "\n".join(lines) + ("\n" if lines else "")
