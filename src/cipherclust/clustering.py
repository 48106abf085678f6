"""Center selection and token distribution.

Centers are picked in one pass over tokens sorted by document-association
degree: a token whose uniqueness (new documents vs already-covered ones)
exceeds 1 becomes a candidate, scored by centrality; the top-k candidates
win. There is no iterative center shifting. Remaining tokens are then
assigned to the center with the highest relatedness, a contribution-weighted
log co-occurrence score that only needs frequencies, never plaintext. The
score of one token-center pair is defined in the `distribute` docstring;
`tests/oracles.py` (`relatedness_scores`) states it as a plain loop.

Both stages run on token-document frequency matrices, one at a time.
Center selection is inherently sequential (the coverage set evolves): it
walks the kept tokens' matrix against a covered-document mask and reads only
C's diagonal, computed from that matrix without forming C. Distribution
builds the matrix of every token and is batched over its rows: it scores the
token-center pairs that share a document, plus the few disjoint centers that
can still win or tie, into one running winner per token, so its cost follows
co-occurrence, not tokens x centers. Clustering runs on numpy alone; the
chain of `matrices.matrix_pipeline` is only an input `choose_centers`
accepts.

numpy and the matrices module are imported by the functions that compute
with them, so reading and writing clusters files (the search path) loads
neither.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .crypto import CipherToken, token_from_b64, token_to_b64
from .index import CentralIndex, IndexDataError, check_doc_id, data_lines, in_doc_order, trim, write_lines

if TYPE_CHECKING:
    import numpy as np

    from .matrices import FrequencyMatrix, KEstimate, LabeledMatrix


class ClusteringError(ValueError):
    pass


def choose_centers(k: int, c: LabeledMatrix, index: CentralIndex) -> list[CipherToken]:
    """choose_centers_from_diagonal over the tokens and diagonal of the chain's C."""
    from .matrices import c_diagonal, frequency_matrix

    return choose_centers_from_diagonal(k, c.row_labels, c_diagonal(c), frequency_matrix(index, c.row_labels))


def choose_centers_from_diagonal(
    k: int, tokens: Sequence[CipherToken], diag: np.ndarray, freq: FrequencyMatrix
) -> list[CipherToken]:
    """Single-pass center selection over tokens with separation factors diag.

    Row i of freq holds the postings of tokens[i]. Tokens are visited in
    descending degree (posting count) order, ties by ciphertext bytes. A
    token is admitted when more of its documents are outside the coverage
    set than inside: uniqueness omega = outside / inside exceeds 1. Its
    documents join the coverage set and its centrality phi = omega * c_ii *
    (1 - c_ii) is recorded; with nothing inside, omega is infinite and phi
    is inf, or 0 when c_ii * (1 - c_ii) is 0. The at-most-k admitted tokens
    with the highest centrality are returned; infinite centralities outrank
    all finite ones and tie-break by higher degree, then ciphertext bytes.
    """
    import numpy as np

    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    sep = diag.tolist()
    bounds = freq.indptr.tolist()
    degree = np.diff(freq.indptr).tolist()
    order = sorted(range(len(tokens)), key=lambda i: (-degree[i], tokens[i]))

    covered = np.zeros(freq.n_docs, dtype=bool)
    admitted: list[tuple[int, float]] = []
    for i in order:
        docs = freq.indices[bounds[i]:bounds[i + 1]]
        inside = int(np.count_nonzero(covered[docs]))
        outside = degree[i] - inside
        if outside > inside:
            covered[docs] = True
            spread = sep[i] * (1.0 - sep[i])
            if inside:
                admitted.append((i, (outside / inside) * spread))
            else:
                admitted.append((i, math.inf if spread > 0.0 else 0.0))

    def rank(entry: tuple[int, float]):
        i, phi = entry
        if math.isinf(phi):
            return (0, -degree[i], tokens[i])
        return (1, -phi, tokens[i])

    admitted.sort(key=rank)
    return [tokens[i] for i, _ in admitted[:k]]


@dataclass(frozen=True)
class Cluster:
    center: CipherToken
    tokens: tuple[CipherToken, ...]  # byte-sorted, includes the center


# Posting lists at least this long get an impact view, so search can stop reading them early. On a
# 3,500-document text corpus the 10 lists of 1,000+ postings hold the head words of the costliest
# queries; their views take 191 KB (8 bytes per posting), 4.7% of the loaded clusters, and 4 ms to
# build on a 2-vCPU machine. At 250 (19 views) the scoring tail was no lower, and the views took
# 37 KB and 0.5 ms more.
LONG_LIST_POSTINGS = 1000


def impact_views(index: CentralIndex) -> dict[CipherToken, tuple[str, ...]]:
    """The impact view of every posting list of at least LONG_LIST_POSTINGS postings.

    A view is the list's document ids by descending frequency, ties by
    ascending id; each id is the posting dict's own key string, so a view
    holds one reference per posting.
    """
    # postings are in document order, and the sort is stable: ties stay in that order
    return {
        token: tuple(sorted(postings, key=postings.__getitem__, reverse=True))
        for token, postings in index.entries.items()
        if len(postings) >= LONG_LIST_POSTINGS
    }


@dataclass(frozen=True)
class ClusterSet:
    """k_used disjoint clusters whose token union equals the distributed index.

    cluster_of maps each token to its cluster id. It is built once, with
    the set, and its size is the disjointness check; search, check_pairing
    and the build's partition check each read a token's cluster from it.
    views holds the impact_views of the index, for search's threshold path,
    at the LONG_LIST_POSTINGS in force when it is first read: a build, which
    never searches, makes none, and read_clusters builds it as it loads.
    """

    clusters: tuple[Cluster, ...]
    index: CentralIndex
    k_requested: int
    cluster_of: dict[CipherToken, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        cluster_of = {token: cid for cid, cluster in enumerate(self.clusters) for token in cluster.tokens}
        if len(cluster_of) != sum(len(cluster.tokens) for cluster in self.clusters):
            raise ValueError("clusters must be disjoint and list each token once")
        object.__setattr__(self, "cluster_of", cluster_of)

    @cached_property
    def views(self) -> dict[CipherToken, tuple[str, ...]]:
        return impact_views(self.index)

    @property
    def k_used(self) -> int:
        return len(self.clusters)


# matrix elements per scoring block: bounds distribute's temporaries, not its results
_SCORE_BLOCK = 1 << 13


def distribute(index: CentralIndex, centers: list[CipherToken], k_requested: int | None = None) -> ClusterSet:
    """Assign every non-center token of the index to its most related center.

    cluster_index calls it with the centers it chose; it builds the
    frequency matrix of every token, in byte order, so a cluster is its
    center's rows, ascending.

    The relatedness of token t to center c sums, over t's documents d,
    kappa * log(rho): the contribution kappa = f_t(d) / T_t and the
    co-occurrence rho = (f_t(d) + f_c(d)) / (T_t + T_c), where f is an
    in-document frequency and T a total frequency. It is never positive;
    closer to zero means more related.

    Ties break toward the lexicographically smaller center ciphertext. Each
    score sums the token's per-document terms in sorted order, so relabeled
    but otherwise identical inputs produce identical assignments.

    Only the pairs the argmax depends on are scored. A center that shares
    no document with the token scores D(T_c) = sum(kappa * log(f / (T_t +
    T_c))), which is non-increasing in the center's total frequency T_c:
    T_t + T_c is exact, IEEE division and multiplication by kappa > 0 round
    monotonically, log is monotone, and sorting then summing in a fixed
    order keeps the terms' order. A center that shares a document scores at
    least D of its own T_c, since f + f_c >= f. So:

    1. Every co-occurring pair is scored exactly. `cooccurring_pairs`
       finds them as the pattern of F . F_c^T, through F_c's transpose.
    2. The distinct T_c are walked in ascending order, scoring D against
       the smallest-ciphertext center of each, until D falls strictly below
       the token's best score so far. D bounds every disjoint center at that
       T_c or above, so none of them can win or tie. A disjoint center with
       the same T_c as a scored one scores the same and has a larger
       ciphertext; if the scored one co-occurs, its exact score is at least
       D. So every exact tie, including ties between different T_c, still
       goes to the smaller ciphertext.
    3. Pairs are scored in blocks of equal posting-list length with the
       per-row arithmetic of scoring every pair, so the scores are
       bit-identical to it.

    Work and memory grow with nnz(F) + co-occurring pairs + T_c levels
    scored per token (usually one or two); no tokens x centers array is
    formed.
    """
    from .matrices import frequency_matrix

    if not centers:
        raise ClusteringError("at least one center is required")
    if len(set(centers)) != len(centers):
        raise ClusteringError("centers must be pairwise distinct")
    for center in centers:
        if center not in index.entries:
            raise ClusteringError(f"center {token_to_b64(center)} is not in the index")

    tokens = index.tokens()
    center_list = sorted(centers)
    clusters = tuple(
        Cluster(center=c, tokens=tuple(map(tokens.__getitem__, rows)))
        for c, rows in zip(center_list, _assign(tokens, frequency_matrix(index, tokens), center_list))
    )
    return ClusterSet(clusters=clusters, index=index, k_requested=k_requested or len(centers))


def _assign(tokens: list[CipherToken], freq: FrequencyMatrix, center_list: list[CipherToken]) -> list[list[int]]:
    """distribute's scoring, a running winner per row: per center (byte order), the rows it wins, its own among them."""
    import numpy as np

    from .matrices import cooccurring_pairs

    n_centers, n_docs = len(center_list), freq.n_docs

    totals = np.bincount(freq.row_of(), weights=freq.data, minlength=freq.n_rows)
    lengths = np.diff(freq.indptr)

    center_rows = np.array([bisect_left(tokens, c) for c in center_list], dtype=np.int64)
    center_freq = freq.rows(center_rows)
    center_totals = totals[center_rows]
    # ascending center * n_docs + doc keys of the centers' postings, for f_c lookups
    center_keys = center_freq.row_of() * n_docs + center_freq.indices
    is_center = np.zeros(len(tokens), dtype=bool)
    is_center[center_rows] = True

    def score(tok: np.ndarray, cen: np.ndarray, shared: bool) -> np.ndarray:
        """Relatedness of each (token row, center index) pair; shared=False scores as if f_c = 0."""
        out = np.empty(len(tok))
        if not len(tok):
            return out
        width_of = lengths[tok]
        by_width = np.argsort(width_of, kind="stable")
        for group in np.split(by_width, np.flatnonzero(np.diff(width_of[by_width])) + 1):
            width = int(width_of[group[0]])
            step = max(1, _SCORE_BLOCK // max(width, 1))
            for lo in range(0, len(group), step):
                rows = group[lo:lo + step]
                t, c = tok[rows], cen[rows]
                at = freq.indptr[t][:, None] + np.arange(width)
                f = freq.data[at]
                t_total = totals[t][:, None]
                num = f
                if shared:
                    keys = c[:, None] * n_docs + freq.indices[at]
                    hit = np.minimum(np.searchsorted(center_keys, keys), len(center_keys) - 1)
                    num = f + np.where(center_keys[hit] == keys, center_freq.data[hit], 0.0)
                rho = num / (t_total + center_totals[c][:, None])
                terms = (f / t_total) * np.log(rho)
                out[rows] = np.sum(np.sort(terms, axis=1), axis=1)
        return out

    # co-occurring pairs of the non-center tokens, scored exactly; per row, the best score so far and
    # the center index that won it (a center wins its own row), ties to the smaller index (= ciphertext)
    co_tok, co_cen, _ = cooccurring_pairs(freq, center_freq.transpose())
    keep = ~is_center[co_tok]
    co_tok, co_cen = co_tok[keep], co_cen[keep]
    co_score = score(co_tok, co_cen, shared=True)
    best = np.full(len(tokens), -np.inf)
    np.maximum.at(best, co_tok, co_score)
    won = np.full(len(tokens), n_centers)
    won[center_rows] = np.arange(n_centers)
    hit = co_score == best[co_tok]
    np.minimum.at(won, co_tok[hit], co_cen[hit])

    # T_c levels in ascending order, each led by its smallest center index
    # (= ciphertext); score the leader as if disjoint while that reaches the best
    by_total = np.argsort(center_totals, kind="stable")
    sorted_totals = center_totals[by_total]
    leaders = by_total[np.flatnonzero(np.r_[True, sorted_totals[1:] != sorted_totals[:-1]])]
    tok = np.flatnonzero(~is_center)
    for leader in leaders:
        if not len(tok):
            break
        s = score(tok, np.full(len(tok), leader), shared=False)
        held = best[tok]
        take = (s > held) | ((s == held) & (leader < won[tok]))
        best[tok[take]], won[tok[take]] = s[take], leader
        tok = tok[s >= held]

    # every row is won, so a stable sort by winner splits the rows, ascending, by center
    by_center = np.argsort(won, kind="stable")
    split = np.searchsorted(won[by_center], np.arange(n_centers + 1))
    members = by_center.tolist()
    return [members[split[j]:split[j + 1]] for j in range(n_centers)]


def cluster_index(index: CentralIndex, k: int | str = "auto") -> tuple[ClusterSet, KEstimate]:
    """Full clustering pass: trim, diag(C), pick centers, distribute.

    diag(C) and the centers read the kept tokens' frequency matrix, which is
    freed before distribute builds the matrix of every token, so the two are
    never held at once. k may be a positive integer or "auto" to use the
    trace estimate. The estimate is returned for a fixed k too; the cluster
    set's k_requested is the k actually targeted.
    """
    from .matrices import estimate_k_from_diagonal, frequency_matrix, separation_diagonal

    kept = trim(index).kept
    kept_freq = frequency_matrix(index, kept)
    diag = separation_diagonal(kept_freq)
    estimate = estimate_k_from_diagonal(diag)
    k_target = estimate.k if k == "auto" else int(k)
    centers = choose_centers_from_diagonal(k_target, kept, diag, kept_freq)
    del kept_freq
    return distribute(index, centers, k_target), estimate


# ---------------------------------------------------------------------------
# clusters file (JSON lines)

def write_clusters(cluster_set: ClusterSet, path: str | Path) -> str:
    """One JSON object per cluster, ordered by id; tokens carry postings. Returns write_lines' digest.

    Postings are written in held order, each `(doc, freq)` item as an array.
    Each token entry is rendered on its own into the line's fixed frame, so
    no object tree of a whole line is built; tokens are base64 and ids are
    ints, which need no escaping. Each document id is quoted once per write.
    """
    entries = cluster_set.index.entries
    quoted = {doc: json.dumps(doc) for doc in cluster_set.index.docs}
    return write_lines(path, (
        f'{{"id":{cid},"center":"{token_to_b64(cluster.center)}","tokens":['
        + ",".join(f'{{"t":"{token_to_b64(token)}","postings":['
                   + ",".join([f"[{quoted[doc]},{freq}]" for doc, freq in entries[token].items()]) + "]}"
                   for token in cluster.tokens)
        + "]}"
        for cid, cluster in enumerate(cluster_set.clusters)
    ))


def read_clusters(path: str | Path) -> ClusterSet:
    """Rebuild a ClusterSet (and its distributed index) from a clusters file.

    Rejected with path:lineno: a malformed line or token entry (an empty
    token among them), cluster ids that are not the integers 0, 1, 2, ... in
    order, a token with no posting, a token listed twice (in one cluster or
    in two), a posting list naming a document twice, a frequency that is
    not an integer >= 1, a document id that is not a string or that ingest
    rejects (checked when the document is first seen), a token entry
    anywhere but in its line's tokens array, and a center missing from its
    own cluster's tokens; and, naming the path, a file of no cluster. Since
    clusters are disjoint, a missing center also rejects two clusters
    sharing a center.

    Each line is decoded by one JSON decoder, which files every object
    keyed exactly t and postings as soon as it completes it: the entry's
    posting map goes into the index and the object becomes its token, so
    no entry's lists outlive it and a one-cluster file never holds its
    line's whole parse tree. Any other item of the tokens array (an entry
    with an extra key among them) is filed in the walk over that array
    after the decode. Within a line, faults are found in this order: a
    decoded entry's fault or a JSON syntax error, whichever the decoder
    reaches first; the center's fault; the tokens array's, with the walk's
    item by item; the id's; a token entry outside the tokens array; a
    center missing from the cluster. Every fault of a line comes before any
    fault of the next.

    The requested k is not stored in the file; k_requested is set to the
    cluster count actually present. Every posting map holds one string per
    document id, the first one read, across all lines, and is sorted only if
    out of document order. Then the ClusterSet's views are built: a server
    pays for them as it loads, not at its first query.
    """
    clusters: list[Cluster] = []
    entries: dict[CipherToken, dict[str, int]] = {}
    docs: dict[str, str] = {}

    def filed(entry) -> CipherToken:
        """File one token entry's posting map in entries, checked, and return its token."""
        try:
            name = entry["t"]
            token = token_from_b64(name)
            postings = list(entry["postings"])
        except (ValueError, KeyError, TypeError) as exc:
            raise IndexDataError(f"{where}: malformed token entry: {exc}")
        if not postings:
            raise IndexDataError(f"{where}: token {name} has no posting")
        if token in entries:
            raise IndexDataError(f"{where}: token {name} is listed twice")
        by_doc: dict[str, int] = {}
        for posting in postings:
            try:
                doc_id, freq = posting
            except (ValueError, TypeError) as exc:
                raise IndexDataError(f"{where}: token {name} has a malformed posting: {exc}")
            if type(doc_id) is not str:
                raise IndexDataError(f"{where}: token {name} has document id {doc_id!r}; need a string")
            if type(freq) is not int or freq < 1:
                raise IndexDataError(
                    f"{where}: token {name} has frequency {freq!r} for {doc_id!r}; need an integer >= 1"
                )
            if doc_id in by_doc:
                raise IndexDataError(f"{where}: token {name} lists document {doc_id!r} twice")
            shared = docs.get(doc_id)
            if shared is None:
                check_doc_id(doc_id, f"{where}: ")
                shared = docs[doc_id] = doc_id
            by_doc[shared] = freq
        entries[token] = in_doc_order(by_doc)
        return token

    decoder = json.JSONDecoder(object_hook=lambda obj: filed(obj) if obj.keys() == {"t", "postings"} else obj)
    for lineno, line in data_lines(path):
        where = f"{path}:{lineno}"
        filed_before = len(entries)
        try:
            obj = decoder.decode(line)
            center = token_from_b64(obj["center"])
            # an entry the decoder filed is its token: JSON decodes to no other bytes
            tokens = tuple(sorted(item if type(item) is bytes else filed(item) for item in obj["tokens"]))
            cid = obj["id"]
        except IndexDataError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise IndexDataError(f"{where}: malformed cluster line: {exc}")
        if type(cid) is not int or cid != len(clusters):
            raise IndexDataError(f"{where}: cluster ids must be 0,1,2,... in order")
        if len(entries) - filed_before != len(tokens):
            raise IndexDataError(f"{where}: a token entry lies outside the cluster's tokens array")
        if center not in tokens:
            raise IndexDataError(f"{where}: center {token_to_b64(center)} is not among the cluster's tokens")
        clusters.append(Cluster(center=center, tokens=tokens))
    if not clusters:
        raise IndexDataError(f"{path}: the clusters file holds no cluster")
    cluster_set = ClusterSet(clusters=tuple(clusters), index=CentralIndex(entries), k_requested=len(clusters))
    cluster_set.views  # noqa: B018 - built here, at load
    return cluster_set
