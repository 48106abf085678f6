"""Cluster abstracts, query-time pruning, and document ranking.

Each cluster is summarized by an abstract: its top-a tokens by total corpus
frequency. A query is scored against the abstracts to decide which clusters
are worth searching; documents in the surviving clusters are then ranked by
summed term frequency. Clusters and abstracts are immutable at query time,
so concurrent queries over shared snapshots are safe.

Query cost follows the query, not the clusters. Cluster token sets are
disjoint and each abstract lists tokens of its own cluster, so a token is in
at most one cluster and at most one abstract. The lookup maps are built
once, at load time: token -> abstract frequency and token -> cluster id for
the abstracts when an Abstracts is constructed, and token -> cluster id for
the clusters (ClusterSet.cluster_of, built on first use) by read_clusters. prune
then looks each query token up once, O(query tokens), plus a sort of the
clusters it hits; search looks each query token up once and takes the
posting lists of those in a selected cluster, O(query tokens + postings
added). The longest list seeds the scores in one dict() call; only the
other lists' postings are added one by one. The cutoff-th best score is
found by an integer sort of the scores, or by a heap of cutoff entries
above HEAP_FLOOR_RATIO x cutoff scores, and only the documents that reach
it get the keyed sort.

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
from typing import Iterable, Iterator, Mapping

from . import clustering
from .clustering import ClusterSet
from .crypto import CipherToken, token_from_b64, token_to_b64
from .index import CentralIndex, IndexDataError, data_lines, write_lines

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
class Abstract:
    """A cluster's top tokens; entries must name each token once."""

    cluster_id: int
    entries: tuple[tuple[CipherToken, int], ...]  # (token, corpus frequency), highest first

    def __post_init__(self):
        if len({token for token, _ in self.entries}) != len(self.entries):
            raise ValueError(f"abstract of cluster {self.cluster_id} lists a token twice")


class SharedTokenError(ValueError):
    """A token in the abstracts of two clusters, first and second by cluster id."""

    def __init__(self, token: CipherToken, first: int, second: int):
        super().__init__(f"token {token_to_b64(token)} is in the abstracts of clusters {first} and {second}")
        self.token, self.first, self.second = token, first, second


@dataclass(frozen=True)
class Abstracts:
    """The abstracts of a cluster set, in order, with prune's lookup maps.

    No token may be in two abstracts, as no token is in two clusters. So
    frequency and cluster map each abstract token to its frequency and to
    its abstract's cluster id, and min_token maps each cluster id with a
    non-empty abstract to the abstract's smallest token: prune's tie-break,
    unique per abstract. All three are built once, here.
    """

    abstracts: tuple[Abstract, ...]
    frequency: dict[CipherToken, int] = field(init=False, compare=False, repr=False)
    cluster: dict[CipherToken, int] = field(init=False, compare=False, repr=False)
    min_token: dict[int, CipherToken] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        frequency: dict[CipherToken, int] = {}
        cluster: dict[CipherToken, int] = {}
        min_token: dict[int, CipherToken] = {}
        for abstract in self.abstracts:
            cid = abstract.cluster_id
            for token, freq in abstract.entries:
                if token in cluster:
                    raise SharedTokenError(token, cluster[token], cid)
                frequency[token] = freq
                cluster[token] = cid
            if abstract.entries:
                min_token[cid] = min(token for token, _ in abstract.entries)
        object.__setattr__(self, "frequency", frequency)
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "min_token", min_token)

    def __len__(self) -> int:
        return len(self.abstracts)

    def __iter__(self) -> Iterator[Abstract]:
        return iter(self.abstracts)

    def __getitem__(self, position: int) -> Abstract:
        return self.abstracts[position]


@dataclass(frozen=True)
class SearchResult:
    ranked: tuple[tuple[str, int], ...]  # (docId, score), best first
    clusters_searched: tuple[int, ...]
    # postings read: the work done, which the ranking does not show (every posting of the selected
    # lists, except that the threshold path reads the long lists only down to where it stops)
    postings_touched: int = field(default=0, compare=False)


def build_abstracts(clusters: ClusterSet, a: int) -> Abstracts:
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
    return Abstracts(tuple(abstracts))


def prune(query_tokens: Iterable[CipherToken], abstracts: Abstracts, c: int) -> list[int]:
    """Top-c clusters whose abstracts overlap the query, by summed frequency.

    Ties go to the abstract with the smaller minimum token. Clusters scoring
    zero are dropped; if every cluster scores zero the cluster ids of all
    abstracts are returned, in abstract order, so the search can fall back
    to the full index.
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
        return [abstract.cluster_id for abstract in abstracts]
    scored.sort()
    return [cid for _, _, cid in scored[:c]]


def search(
    query_tokens: Iterable[CipherToken], clusters: ClusterSet, selected: Iterable[int], cutoff: int
) -> SearchResult:
    """Rank documents of the selected clusters against the query tokens.

    selected must name distinct cluster ids in 0..k_used-1 and cutoff must be
    >= 1. Only documents scoring at least the cutoff-th best score are
    sorted, so ties at the cutoff rank as in a full sort. A query touching a
    list with an impact view takes the threshold path, _threshold_top.
    """
    if cutoff < 1:
        raise ValueError(f"result cutoff must be >= 1, got {cutoff}")
    selected = tuple(selected)
    if not selected:
        raise ValueError("at least one cluster must be selected")
    k = clusters.k_used
    chosen: set[int] = set()
    for cid in selected:
        if not 0 <= cid < k:
            raise ValueError(f"cluster id {cid} is out of range 0..{k - 1}")
        if cid in chosen:
            raise ValueError(f"cluster id {cid} is selected twice")
        chosen.add(cid)
    cluster_of = clusters.cluster_of
    entries = clusters.index.entries
    query = set(query_tokens)
    lists = [entries[t] for t in query if cluster_of.get(t) in chosen]
    lists.sort(key=len)
    long: list[CipherToken] = []
    if lists and len(lists[-1]) >= clustering.LONG_LIST_POSTINGS:
        # the lists with a view are left to _threshold_top; the others are scored here
        views = clusters.views
        found = [t for t in query if cluster_of.get(t) in chosen]
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
        return SearchResult(ranked=ranked, clusters_searched=selected, postings_touched=touched + read)
    items = scores.items()
    if len(scores) > cutoff:
        if len(scores) > HEAP_FLOOR_RATIO * cutoff:
            floor = heapq.nlargest(cutoff, scores.values())[-1]
        else:
            floor = sorted(scores.values(), reverse=True)[cutoff - 1]
        items = [kv for kv in items if kv[1] >= floor]
    ranked = sorted(items, key=lambda kv: (-kv[1], kv[0]))[:cutoff]
    return SearchResult(ranked=tuple(ranked), clusters_searched=selected, postings_touched=touched)


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


def check_pairing(
    abstracts: Abstracts, k: int, cluster_of: Mapping[CipherToken, int], index: CentralIndex, path: str | Path
) -> None:
    """Reject abstracts that were not built from these clusters.

    The clusters are given as their count k, the cluster id of each token
    and the index they partition. There must be one abstract per cluster,
    and each entry must name a token of its own cluster with that token's
    total frequency in the index. The error names the abstracts file and the
    cluster id. Costs one lookup per entry plus one pass over the postings
    of the abstracts' tokens.
    """
    n = len(abstracts)
    if n != k:
        unpaired = f"the abstract of cluster {k} has no cluster" if n > k else f"cluster {n} has no abstract"
        raise IndexDataError(f"{path}: {n} abstracts for {k} clusters; {unpaired}")
    for abstract in abstracts:
        for token, freq in abstract.entries:
            if cluster_of.get(token) != abstract.cluster_id:
                raise IndexDataError(
                    f"{path}: abstract of cluster {abstract.cluster_id} names token "
                    f"{token_to_b64(token)}, which is not in that cluster"
                )
            total = index.total_frequency(token)
            if freq != total:
                raise IndexDataError(
                    f"{path}: abstract of cluster {abstract.cluster_id} gives token "
                    f"{token_to_b64(token)} frequency {freq}; the clusters give {total}"
                )


# ---------------------------------------------------------------------------
# abstracts file (JSON lines) and results TSV

def write_abstracts(abstracts: Abstracts, path: str | Path) -> str:
    lines = []
    for abstract in abstracts:
        obj = {
            "cluster": abstract.cluster_id,
            "entries": [[token_to_b64(t), freq] for t, freq in abstract.entries],
        }
        lines.append(json.dumps(obj, separators=(",", ":")))
    return write_lines(path, lines)


def read_abstracts(path: str | Path) -> Abstracts:
    """Parse an abstracts file written by write_abstracts.

    Rejected with path:lineno: a malformed line or entry (an empty token
    among them), a frequency that is not an integer >= 1, a token listed
    twice (in one abstract or in two) and cluster ids that do not run 0, 1,
    2, ... in order.
    """
    abstracts = []
    linenos = []
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
        linenos.append(lineno)
    try:
        return Abstracts(tuple(abstracts))
    except SharedTokenError as exc:  # cluster ids are positions here, so exc.second indexes linenos
        token = token_to_b64(exc.token)
        raise IndexDataError(f"{path}:{linenos[exc.second]}: token {token} is also in the abstract of cluster {exc.first}")


def format_results(result: SearchResult) -> str:
    """TSV rendering: rank, docId, score."""
    lines = [f"{rank}\t{doc}\t{score}" for rank, (doc, score) in enumerate(result.ranked, 1)]
    return "\n".join(lines) + ("\n" if lines else "")
