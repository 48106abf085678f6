"""Center selection and token distribution.

Centers are picked in one pass over tokens sorted by document-association
degree: a token whose uniqueness (new documents vs already-covered ones)
exceeds 1 becomes a candidate, scored by centrality; the top-k candidates
win. There is no iterative center shifting. Remaining tokens are then
assigned to the center with the highest relatedness, a contribution-weighted
log co-occurrence score that only needs frequencies, never plaintext.

Center selection is inherently sequential (the coverage set evolves);
distribution reads immutable inputs only, so callers may shard tokens across
workers using the pure relatedness function.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .crypto import CipherToken, token_from_b64, token_to_b64
from .index import CentralIndex, IndexDataError, Posting, data_lines, trim, write_lines
from .matrices import (
    KEstimate, LabeledMatrix, MatrixRole, estimate_k, frequency_matrix, matrix_pipeline, separation_factors
)


class ClusteringError(ValueError):
    pass


def uniqueness(token: CipherToken, covered: set[str] | frozenset[str], index: CentralIndex) -> float:
    """|A_i - U| / |A_i ^ U| for the token's document set A_i.

    +inf when nothing of A_i is covered yet (always eligible), 0 when A_i is
    fully covered.
    """
    if token not in index.entries:
        raise KeyError(token)
    docs = index.doc_set(token)
    outside = len(docs - covered)
    inside = len(docs & covered)
    if outside == 0:
        return 0.0
    if inside == 0:
        return math.inf
    return outside / inside


def centrality(omega: float, c_ii: float) -> float:
    """omega * c_ii * (1 - c_ii), with inf * 0 defined as 0."""
    spread = c_ii * (1.0 - c_ii)
    if math.isinf(omega):
        return math.inf if spread > 0.0 else 0.0
    return omega * spread


def choose_centers(k: int, c: LabeledMatrix, index: CentralIndex) -> list[CipherToken]:
    """Single-pass center selection over the C matrix's tokens.

    Tokens are visited in descending document-association order (ties by
    ciphertext bytes). A token with uniqueness > 1 is admitted: its documents
    merge into the coverage set and its centrality is recorded. The at-most-k
    admitted tokens with the highest centrality are returned; infinite
    centralities outrank all finite ones and tie-break by higher degree,
    then ciphertext bytes.
    """
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    if c.role is not MatrixRole.C_TOKEN_TO_TOKEN:
        raise ClusteringError("center selection needs the token-to-token matrix")
    sep = separation_factors(c)
    degree = {t: len(index.entries[t]) for t in sep}
    order = sorted(sep, key=lambda t: (-degree[t], t))

    covered: set[str] = set()
    admitted: list[tuple[CipherToken, float]] = []
    for token in order:
        omega = uniqueness(token, covered, index)
        if omega > 1.0:
            covered |= index.doc_set(token)
            admitted.append((token, centrality(omega, sep[token])))

    def rank(entry: tuple[CipherToken, float]):
        token, phi = entry
        if math.isinf(phi):
            return (0, -degree[token], token)
        return (1, -phi, token)

    admitted.sort(key=rank)
    return [token for token, _ in admitted[:k]]


def contribution(token: CipherToken, doc: str, index: CentralIndex) -> float:
    """Share of the token's corpus frequency contributed by one document."""
    if token not in index.entries:
        raise KeyError(token)
    freq = next((p.frequency for p in index.entries[token] if p.doc == doc), 0)
    if freq == 0:
        return 0.0
    return freq / index.total_frequency(token)


def cooccurrence(token: CipherToken, doc: str, center: CipherToken, index: CentralIndex) -> float:
    """Joint in-document frequency share of a token and a center."""
    if token not in index.entries:
        raise KeyError(token)
    if center not in index.entries:
        raise KeyError(center)
    f_t = next((p.frequency for p in index.entries[token] if p.doc == doc), 0)
    f_c = next((p.frequency for p in index.entries[center] if p.doc == doc), 0)
    if f_t + f_c == 0:
        return 0.0
    return (f_t + f_c) / (index.total_frequency(token) + index.total_frequency(center))


def relatedness(center: CipherToken, token: CipherToken, index: CentralIndex) -> float:
    """Sum over the token's documents of contribution * log(co-occurrence).

    Non-positive; closer to zero means more related. fsum keeps the result
    independent of document enumeration order.
    """
    if token not in index.entries:
        raise KeyError(token)
    if center not in index.entries:
        raise KeyError(center)
    total = index.total_frequency(token) + index.total_frequency(center)
    center_freq = {p.doc: p.frequency for p in index.entries[center]}
    token_total = index.total_frequency(token)
    terms = []
    for p in index.entries[token]:
        kappa = p.frequency / token_total
        rho = (p.frequency + center_freq.get(p.doc, 0)) / total
        terms.append(kappa * math.log(rho))
    return math.fsum(terms)


@dataclass(frozen=True)
class Cluster:
    center: CipherToken
    tokens: tuple[CipherToken, ...]  # byte-sorted, includes the center


@dataclass(frozen=True)
class ClusterSet:
    """k_used clusters whose token union equals the distributed index.

    token_sets holds each cluster's tokens as a frozenset, built once here
    so a search probes a cluster per query token instead of scanning it.
    """

    clusters: tuple[Cluster, ...]
    index: CentralIndex
    k_requested: int
    token_sets: tuple[frozenset[CipherToken], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "token_sets", tuple(frozenset(c.tokens) for c in self.clusters))

    @property
    def k_used(self) -> int:
        return len(self.clusters)

    def all_tokens(self) -> list[CipherToken]:
        out: list[CipherToken] = []
        for cluster in self.clusters:
            out.extend(cluster.tokens)
        return out


def distribute(index: CentralIndex, centers: list[CipherToken], k_requested: int | None = None) -> ClusterSet:
    """Assign every non-center token of the index to its most related center.

    Ties break toward the lexicographically smaller center ciphertext.
    Summation order inside each score is canonicalized so relabeled but
    otherwise identical inputs produce identical assignments.
    """
    if not centers:
        raise ClusteringError("at least one center is required")
    if len(set(centers)) != len(centers):
        raise ClusteringError("centers must be pairwise distinct")
    for center in centers:
        if center not in index.entries:
            raise ClusteringError(f"center {token_to_b64(center)} is not in the index")

    tokens = index.tokens()
    center_list = sorted(centers)
    center_set = set(center_list)

    freq = frequency_matrix(index, tokens)
    totals = np.asarray(freq.sum(axis=1)).ravel()

    token_pos = {t: i for i, t in enumerate(tokens)}
    center_rows = np.array([token_pos[c] for c in center_list], dtype=np.int64)
    center_dense = freq[center_rows].toarray()
    center_totals = totals[center_rows]

    members: dict[CipherToken, list[CipherToken]] = {c: [] for c in center_list}
    for i, token in enumerate(tokens):
        if token in center_set:
            continue
        lo, hi = freq.indptr[i], freq.indptr[i + 1]
        cols = freq.indices[lo:hi]
        f = freq.data[lo:hi]
        kappa = f / totals[i]
        rho = (f[None, :] + center_dense[:, cols]) / (totals[i] + center_totals)[:, None]
        terms = kappa[None, :] * np.log(rho)
        scores = np.sum(np.sort(terms, axis=1), axis=1)
        best = scores.max()
        winner = min(center_list[j] for j in np.flatnonzero(scores == best))
        members[winner].append(token)

    clusters = tuple(
        Cluster(center=c, tokens=tuple(sorted([c] + members[c]))) for c in center_list
    )
    return ClusterSet(clusters=clusters, index=index, k_requested=k_requested or len(centers))


def cluster_index(index: CentralIndex, k: int | str = "auto") -> tuple[ClusterSet, KEstimate]:
    """Full clustering pass: trim, build matrices, pick centers, distribute.

    k may be a positive integer or "auto" to use the trace estimate. The
    estimate is returned for a fixed k too; the cluster set's k_requested
    is the k actually targeted.
    """
    c = matrix_pipeline(trim(index))["C"]
    estimate = estimate_k(c)
    k_target = estimate.k if k == "auto" else int(k)
    centers = choose_centers(k_target, c, index)
    return distribute(index, centers, k_requested=k_target), estimate


# ---------------------------------------------------------------------------
# clusters file (JSON lines)

def write_clusters(cluster_set: ClusterSet, path: str | Path) -> None:
    """One JSON object per cluster, ordered by id; tokens carry postings."""
    lines = []
    for cid, cluster in enumerate(cluster_set.clusters):
        tokens_payload = [
            {
                "t": token_to_b64(token),
                "postings": [[p.doc, p.frequency] for p in cluster_set.index.entries[token]],
            }
            for token in cluster.tokens
        ]
        obj = {"id": cid, "center": token_to_b64(cluster.center), "tokens": tokens_payload}
        lines.append(json.dumps(obj, separators=(",", ":")))
    write_lines(path, lines)


def read_clusters(path: str | Path) -> ClusterSet:
    """Rebuild a ClusterSet (and its distributed index) from a clusters file.

    The requested k is not stored in the file; k_requested is set to the
    cluster count actually present. Rejected with path:lineno: a malformed
    line or token entry, a token listed twice (in one cluster or in two), a
    posting list naming a document twice, a frequency that is not an integer
    >= 1, and a center missing from its own cluster's tokens. Since clusters
    are disjoint, the last also rejects two clusters sharing a center.
    Document ids are shared, one string per document.
    """
    clusters: list[Cluster] = []
    acc: dict[CipherToken, dict[str, int]] = {}
    docs: dict[str, str] = {}
    for lineno, line in data_lines(path):
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
            center = token_from_b64(obj["center"])
            token_objs = list(obj["tokens"])
            cid = int(obj["id"])
        except (ValueError, KeyError, TypeError) as exc:
            raise IndexDataError(f"{where}: malformed cluster line: {exc}")
        if len(clusters) != cid:
            raise IndexDataError(f"{where}: cluster ids must be 0,1,2,... in order")
        tokens = []
        for entry in token_objs:
            try:
                name = entry["t"]
                token = token_from_b64(name)
                postings = list(entry["postings"])
            except (ValueError, KeyError, TypeError) as exc:
                raise IndexDataError(f"{where}: malformed token entry: {exc}")
            if token in acc:
                raise IndexDataError(f"{where}: token {name} is listed twice")
            tokens.append(token)
            by_doc = acc[token] = {}
            for posting in postings:
                try:
                    doc_id, freq = posting
                except (ValueError, TypeError) as exc:
                    raise IndexDataError(f"{where}: token {name} has a malformed posting: {exc}")
                doc_id = str(doc_id)
                if type(freq) is not int or freq < 1:
                    raise IndexDataError(
                        f"{where}: token {name} has frequency {freq!r} for {doc_id!r}; need an integer >= 1"
                    )
                if doc_id in by_doc:
                    raise IndexDataError(f"{where}: token {name} lists document {doc_id!r} twice")
                by_doc[docs.setdefault(doc_id, doc_id)] = freq
        if center not in tokens:
            raise IndexDataError(f"{where}: center {obj['center']} is not among the cluster's tokens")
        clusters.append(Cluster(center=center, tokens=tuple(sorted(tokens))))
    entries = {
        token: tuple(Posting(d, f) for d, f in sorted(by_doc.items()))
        for token, by_doc in sorted(acc.items())
    }
    index = CentralIndex(entries=entries, docs=tuple(sorted(docs)))
    return ClusterSet(clusters=tuple(clusters), index=index, k_requested=len(clusters))
