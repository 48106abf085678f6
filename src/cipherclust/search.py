"""Cluster abstracts, query-time pruning, and document ranking.

Each cluster is summarized by an abstract: its top-a tokens by total corpus
frequency. A query is scored against the abstracts to decide which clusters
are worth searching; documents in the surviving clusters are then ranked by
summed term frequency. Clusters and abstracts are immutable at query time,
so concurrent queries over shared snapshots are safe.

Query cost follows the query, not the clusters. Cluster token sets are
disjoint and each abstract lists tokens of its own cluster, so a token is in
at most one cluster and at most one abstract. The lookup maps are built
once, when the maps are made. The abstracts are two maps, token -> abstract
frequency and token -> cluster id, filled by build_abstracts or
read_abstracts; the clusters' token -> cluster id map is
ClusterSet.cluster_of, built with the set. prune then looks each query token
up once, O(query tokens), plus a sort of the clusters it hits, or returns
range(k), every cluster, which allocates nothing, when it hits none. search
reads any other selection once, checking each id, then looks each query
token up once and takes the posting lists of those in a selected cluster,
O(clusters selected + query tokens + postings added); given range(k), it
skips the walk, O(query tokens + postings added). The longest list seeds the
scores in one dict() call; only the other lists' postings are added one by
one. The cutoff-th best score is found by an integer sort of the scores, or
by a heap of cutoff entries above HEAP_FLOOR_RATIO x cutoff scores, and
only the documents that reach it get the keyed sort.

A query whose longest selected list has clustering.LONG_LIST_POSTINGS or
more postings is ranked by Fagin's threshold algorithm over impact views
(ClusterSet.views, built at load): a tuple of each long list's document ids
by descending frequency, ties by id. The short lists are scored in full;
the views are then read in batches from FIRST_BATCH, each half as large
again as the last, until the cutoff-th best score is strictly above the sum
of the frequencies at the read frontiers, or the views run out. Every
document is scored in C over the long lists' posting dicts, and the ranking
is exact, ties at the cutoff by document id.
postings_touched counts the postings read: the short lists plus the
impact-order entries read, not the long lists' lengths. Queries that touch
no long list pay one length test.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import add, lt
from pathlib import Path
from typing import Iterable, Sequence

from . import clustering
from .clustering import ClusterSet
from .crypto import CipherToken, token_from_b64, token_to_b64
from .index import IndexDataError, data_lines, write_lines

# Above this many scores per result wanted, search finds the cutoff-th best with a heap of cutoff
# entries rather than a full sort. Measured on CPython 3.11, nlargest(cutoff) overtakes sorted at
# about 55 scores per result for cutoffs 1-5, 40 for cutoff 10, 30 for 20-50 and 25 for 100-1000.
HEAP_FLOOR_RATIO = 40

# Documents read from each impact order in the threshold path's first batch; each later batch is
# half as large again. Growing by half rather than doubling overshoots the stopping depth less: on
# a 3,500-document text corpus the costliest queries stop at depths 89-121, which doubling batches
# read to 224 and these to 152.
FIRST_BATCH = 32


@dataclass(frozen=True)
class Abstracts:
    """The abstracts of k clusters, as the two maps prune reads.

    frequency maps each abstract token to its corpus frequency and cluster
    maps it to its abstract's cluster id: the abstract of cluster i is the
    tokens that cluster maps to i, in insertion order. A token has one id,
    so no token can be in two abstracts, as no token is in two clusters. k
    counts the abstracts, empty ones included. min_token maps each cluster
    id with a non-empty abstract to the abstract's smallest token: prune's
    tie-break, unique per abstract, derived once, here.
    """

    k: int
    frequency: dict[CipherToken, int]
    cluster: dict[CipherToken, int]
    min_token: dict[int, CipherToken] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        min_token: dict[int, CipherToken] = {}
        for token, cid in self.cluster.items():
            if cid not in min_token or token < min_token[cid]:
                min_token[cid] = token
        object.__setattr__(self, "min_token", min_token)


@dataclass(frozen=True)
class SearchResult:
    ranked: tuple[tuple[str, int], ...]  # (docId, score), best first
    # postings read: the work done, which the ranking does not show (every posting of the selected
    # lists, except that the threshold path reads the long lists only down to where it stops)
    postings_touched: int = field(default=0, compare=False)


def build_abstracts(clusters: ClusterSet, a: int) -> Abstracts:
    """One abstract per cluster: the a highest-total-frequency tokens.

    Ties at the cutoff keep the lexicographically smaller ciphertext.
    """
    if a < 1:
        raise ValueError("abstract size must be >= 1")
    frequency: dict[CipherToken, int] = {}
    cluster: dict[CipherToken, int] = {}
    for cid, members in enumerate(clusters.clusters):
        scored = sorted(
            ((token, clusters.index.total_frequency(token)) for token in members.tokens),
            key=lambda kv: (-kv[1], kv[0]),
        )
        for token, freq in scored[:a]:
            frequency[token] = freq
            cluster[token] = cid
    return Abstracts(clusters.k_used, frequency, cluster)


def prune(query_tokens: Iterable[CipherToken], abstracts: Abstracts, c: int) -> Sequence[int]:
    """Top-c clusters whose abstracts overlap the query, by summed frequency.

    Ties go to the abstract with the smaller minimum token. Clusters scoring
    zero are dropped; if every cluster scores zero, range(k) is returned,
    every cluster id in order, so the search falls back to the full index.
    """
    if c < 1:
        raise ValueError("prune width must be >= 1")
    frequency, cluster = abstracts.frequency, abstracts.cluster
    scores: dict[int, int] = {}
    for token in set(query_tokens):
        freq = frequency.get(token)
        if freq is not None:
            cid = cluster[token]
            scores[cid] = scores.get(cid, 0) + freq
    min_token = abstracts.min_token
    scored = [(-score, min_token[cid], cid) for cid, score in scores.items() if score > 0]
    if not scored:
        return range(abstracts.k)
    scored.sort()
    return [cid for _, _, cid in scored[:c]]


def search(
    query_tokens: Iterable[CipherToken], clusters: ClusterSet, selected: Iterable[int], cutoff: int
) -> SearchResult:
    """Rank documents of the selected clusters against the query tokens.

    selected must name distinct cluster ids in 0..k_used-1, at least one,
    and is read once, so a generator will do; cutoff must be >= 1. A range
    equal to range(k_used), every cluster in order, as prune's fallback
    returns, is not walked: every token of the set is in a selected cluster.
    Any other selection, a list of the same ids among them, is walked id by
    id and refused at its first fault. Only documents scoring at least the
    cutoff-th best score are sorted, so ties at the cutoff rank as in a full
    sort. A query touching a list with an impact view takes the threshold
    path, _threshold_top.
    """
    if cutoff < 1:
        raise ValueError(f"result cutoff must be >= 1, got {cutoff}")
    k = clusters.k_used
    cluster_of = clusters.cluster_of
    if isinstance(selected, range) and selected == range(k):
        found = [t for t in set(query_tokens) if t in cluster_of]
    else:
        chosen: set[int] = set()
        for cid in selected:
            if not 0 <= cid < k:
                raise ValueError(f"cluster id {cid} is out of range 0..{k - 1}")
            if cid in chosen:
                raise ValueError(f"cluster id {cid} is selected twice")
            chosen.add(cid)
        if not chosen:
            raise ValueError("at least one cluster must be selected")
        found = [t for t in set(query_tokens) if cluster_of.get(t) in chosen]
    entries = clusters.index.entries
    lists = sorted(map(entries.__getitem__, found), key=len)
    long: list[CipherToken] = []
    if lists and len(lists[-1]) >= clustering.LONG_LIST_POSTINGS:
        # the lists with a view are left to _threshold_top; the others are scored here
        views = clusters.views
        long = [t for t in found if t in views]
        lists = sorted((entries[t] for t in found if t not in views), key=len)
    touched = sum(map(len, lists))
    # a document is in a token's postings at most once, so the longest list seeds the scores exactly
    scores: dict[str, int] = dict(lists.pop()) if lists else {}
    for postings in lists:
        for doc, freq in postings.items():
            scores[doc] = scores.get(doc, 0) + freq
    if long:
        ranked, read = _threshold_top(scores, [entries[t] for t in long], [views[t] for t in long], cutoff)
        return SearchResult(ranked=ranked, postings_touched=touched + read)
    items = scores.items()
    if len(scores) > cutoff:
        if len(scores) > HEAP_FLOOR_RATIO * cutoff:
            floor = heapq.nlargest(cutoff, scores.values())[-1]
        else:
            floor = sorted(scores.values(), reverse=True)[cutoff - 1]
        items = [kv for kv in items if kv[1] >= floor]
    ranked = sorted(items, key=lambda kv: (-kv[1], kv[0]))[:cutoff]
    return SearchResult(ranked=tuple(ranked), postings_touched=touched)


def _threshold_top(
    exact: dict[str, int], long: list[dict[str, int]], orders: list[tuple[str, ...]], cutoff: int
) -> tuple[tuple[tuple[str, int], ...], int]:
    """Fagin's threshold algorithm: the top cutoff (doc, score) pairs of the short lists' summed
    scores, exact, plus the long posting lists, and the number of impact-order entries read.

    orders holds each long list's impact view. Every document of a short list is scored first,
    its long-list frequencies read from the posting dicts. The orders are then read in growing
    batches, and each new document is scored from the long lists alone: it is in no short list.
    A document not yet scored scores at most the sum of the frequencies at the lists' read
    frontiers, so reading stops once the cutoff-th best score is strictly above that sum, or when
    every order is read out. Strictly, so no unscored document can tie at the cutoff, where the
    ranking is by document id.
    """
    entries_read = 0

    def totals(docs: list[str], base=None) -> list[int]:
        """base plus every long list's frequency of each of docs, summed in C."""
        for postings in long:
            at = map(postings.get, docs, repeat(0))
            base = at if base is None else map(add, base, at)
        return list(base)

    docs = list(exact)
    scores = totals(docs, exact.values())
    seen = set(docs)
    depth, step = 0, FIRST_BATCH
    while True:
        bound = sum(postings[order[depth]] for postings, order in zip(long, orders) if depth < len(order))
        if not bound or sum(map(lt, repeat(bound), scores)) >= cutoff:
            break
        batch: set[str] = set()
        for order in orders:
            chunk = order[depth:depth + step]
            entries_read += len(chunk)
            batch.update(chunk)
        batch -= seen
        seen |= batch
        new = list(batch)
        docs += new
        scores += totals(new)
        depth += step
        step += step // 2
    # every document scoring above the bound is scored, and at least cutoff do unless all are read
    ranked = sorted(compress(zip(docs, scores), map(lt, repeat(bound), scores)), key=lambda kv: (-kv[1], kv[0]))
    return tuple(ranked[:cutoff]), entries_read


def check_pairing(abstracts: Abstracts, clusters: ClusterSet, path: str | Path) -> None:
    """Reject abstracts, read from path, that were not built from these clusters.

    There must be one abstract per cluster (clusters.k_used), and each
    abstract token must be a token of its own cluster (clusters.cluster_of)
    with its total frequency in the clusters' index. The error names the
    abstracts file and the cluster id. Costs one lookup per entry plus one
    pass over the postings of the abstracts' tokens.
    """
    n, k = abstracts.k, clusters.k_used
    cluster_of, index = clusters.cluster_of, clusters.index
    if n != k:
        unpaired = f"the abstract of cluster {k} has no cluster" if n > k else f"cluster {n} has no abstract"
        raise IndexDataError(f"{path}: {n} abstracts for {k} clusters; {unpaired}")
    for token, cid in abstracts.cluster.items():
        if cluster_of.get(token) != cid:
            raise IndexDataError(
                f"{path}: abstract of cluster {cid} names token {token_to_b64(token)}, which is not in that cluster"
            )
        freq, total = abstracts.frequency[token], index.total_frequency(token)
        if freq != total:
            raise IndexDataError(
                f"{path}: abstract of cluster {cid} gives token "
                f"{token_to_b64(token)} frequency {freq}; the clusters give {total}"
            )


# ---------------------------------------------------------------------------
# abstracts file (JSON lines) and results TSV

def write_abstracts(abstracts: Abstracts, path: str | Path) -> str:
    """One JSON line per abstract, ordered by cluster id; entries in the maps' insertion order.

    That order is rank order for build_abstracts and file order for
    read_abstracts, so a file read back is written byte for byte.
    """
    entries: list[list[list]] = [[] for _ in range(abstracts.k)]
    for token, cid in abstracts.cluster.items():
        entries[cid].append([token_to_b64(token), abstracts.frequency[token]])
    return write_lines(path, (
        json.dumps({"cluster": cid, "entries": listed}, separators=(",", ":")) for cid, listed in enumerate(entries)
    ))


def read_abstracts(path: str | Path) -> Abstracts:
    """Parse an abstracts file written by write_abstracts.

    Rejected with path:lineno: a malformed line or entry (an empty token
    among them), cluster ids that do not run 0, 1, 2, ... in order, a
    frequency that is not an integer >= 1, and a token listed twice, in one
    abstract or again on a later line.
    """
    frequency: dict[CipherToken, int] = {}
    cluster: dict[CipherToken, int] = {}
    k = 0
    for lineno, line in data_lines(path):
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
            cid = obj["cluster"]
            entries = [(token_from_b64(t), f) for t, f in obj["entries"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise IndexDataError(f"{where}: malformed abstract line: {exc}")
        if type(cid) is not int or cid != k:
            raise IndexDataError(f"{where}: cluster id {cid!r}; ids must be 0,1,2,... in order")
        for token, freq in entries:
            if type(freq) is not int or freq < 1:
                raise IndexDataError(
                    f"{where}: token {token_to_b64(token)} has frequency {freq!r}; need an integer >= 1"
                )
        if len(dict(entries)) != len(entries):
            raise IndexDataError(f"{where}: abstract of cluster {cid} lists a token twice")
        for token, freq in entries:
            if token in cluster:
                first = cluster[token]
                raise IndexDataError(f"{where}: token {token_to_b64(token)} is also in the abstract of cluster {first}")
            frequency[token] = freq
            cluster[token] = cid
        k += 1
    return Abstracts(k, frequency, cluster)


def format_results(result: SearchResult) -> str:
    """TSV rendering: rank, docId, score."""
    lines = [f"{rank}\t{doc}\t{score}" for rank, (doc, score) in enumerate(result.ranked, 1)]
    return "\n".join(lines) + ("\n" if lines else "")
