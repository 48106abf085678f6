"""Independent reference implementations the pipeline is checked against.

Everything here is written with plain loops over dicts and lists, on purpose:
these oracles must not share code (or bugs) with the sparse implementations
they verify.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np


def sorted_keywords(text: str, n: int, stopwords) -> list[tuple[str, int]]:
    """Top-n non-stopword `[a-z0-9]+` terms of the lower-cased text by count,
    ties by term: every term counted, then one sort on (-count, term)."""
    counts = Counter(t for t in re.findall("[a-z0-9]+", text.lower()) if t not in stopwords)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def encrypted_postings(records, encrypt) -> dict[bytes, dict[str, int]]:
    """Per-document (term, frequency) records as an index in two plain steps:
    every term encrypted, then each token's postings gathered in document-id order."""
    postings: dict[bytes, dict[str, int]] = {}
    for doc, pairs in records:
        for term, freq in pairs:
            postings.setdefault(encrypt(term), {})[doc] = freq
    return {token: dict(sorted(by_doc.items())) for token, by_doc in postings.items()}


def dense_pipeline(a: list[list[float]]):
    """Brute-force A -> N -> R -> S -> C on a dense row-major matrix."""
    m = len(a)
    d = len(a[0]) if a else 0

    col_max = [max(a[i][j] for i in range(m)) for j in range(d)]
    n = [[(a[i][j] / col_max[j] if col_max[j] else 0.0) for j in range(d)] for i in range(m)]

    row_sum = [sum(n[i]) for i in range(m)]
    r = [[(n[i][j] / row_sum[i] if row_sum[i] else 0.0) for j in range(d)] for i in range(m)]

    col_sum = [sum(n[i][j] for i in range(m)) for j in range(d)]
    s = [[(n[i][j] / col_sum[j] if col_sum[j] else 0.0) for i in range(m)] for j in range(d)]

    c = [[sum(r[i][q] * s[q][j] for q in range(d)) for j in range(m)] for i in range(m)]
    return n, r, s, c


def exact_pipeline(a: list[list[int]]):
    """Same pipeline in exact rational arithmetic; returns (C, trace)."""
    m = len(a)
    d = len(a[0]) if a else 0
    af = [[Fraction(a[i][j]) for j in range(d)] for i in range(m)]

    col_max = [max(af[i][j] for i in range(m)) for j in range(d)]
    n = [[(af[i][j] / col_max[j] if col_max[j] else Fraction(0)) for j in range(d)] for i in range(m)]
    row_sum = [sum(n[i]) for i in range(m)]
    r = [[(n[i][j] / row_sum[i] if row_sum[i] else Fraction(0)) for j in range(d)] for i in range(m)]
    col_sum = [sum(n[i][j] for i in range(m)) for j in range(d)]
    s = [[(n[i][j] / col_sum[j] if col_sum[j] else Fraction(0)) for i in range(m)] for j in range(d)]
    c = [[sum(r[i][q] * s[q][j] for q in range(d)) for j in range(m)] for i in range(m)]
    trace = sum(c[i][i] for i in range(m))
    return c, trace


def algorithm_centers(
    k: int,
    diag: dict[bytes, float],
    doc_sets: dict[bytes, frozenset],
) -> list[bytes]:
    """Line-by-line transliteration of the single-pass center selection.

    Tokens are walked in descending document-association order (ties by
    bytes); uniqueness > 1 admits a token and merges its documents into the
    coverage set; the k highest-centrality admitted tokens win, infinities
    ranked by degree then bytes.
    """
    order = sorted(diag, key=lambda t: (-len(doc_sets[t]), t))
    covered: set = set()
    heap: list[tuple[bytes, float]] = []
    for token in order:
        a_i = doc_sets[token]
        outside = len(a_i - covered)
        inside = len(a_i & covered)
        if outside == 0:
            omega = 0.0
        elif inside == 0:
            omega = math.inf
        else:
            omega = outside / inside
        if omega > 1:
            covered = covered | a_i
            spread = diag[token] * (1 - diag[token])
            if math.isinf(omega):
                phi = math.inf if spread > 0 else 0.0
            else:
                phi = omega * spread
            heap.append((token, phi))

    def key(pair):
        token, phi = pair
        if math.isinf(phi):
            return (0, -len(doc_sets[token]), token)
        return (1, -phi, token)

    return [token for token, _ in sorted(heap, key=key)[:k]]


def contribution(freqs: dict[bytes, dict[str, int]], token: bytes, doc: str) -> float:
    """kappa: the share of the token's total frequency held by one document."""
    return freqs[token].get(doc, 0) / sum(freqs[token].values())


def cooccurrence(freqs: dict[bytes, dict[str, int]], token: bytes, doc: str, center: bytes) -> float:
    """rho: the joint in-document frequency share of a token and a center."""
    joint = freqs[token].get(doc, 0) + freqs[center].get(doc, 0)
    return joint / (sum(freqs[token].values()) + sum(freqs[center].values()))


def relatedness_scores(
    freqs: dict[bytes, dict[str, int]], token: bytes, centers: list[bytes]
) -> dict[bytes, float]:
    """Plain-loop contribution * log(co-occurrence) sums over the token's documents, per center."""
    scores = {}
    for center in centers:
        acc = 0.0
        for doc in freqs[token]:
            acc += contribution(freqs, token, doc) * math.log(cooccurrence(freqs, token, doc, center))
        scores[center] = acc
    return scores


def brute_force_assignments(
    freqs: dict[bytes, dict[str, int]], centers: list[bytes]
) -> dict[bytes, bytes]:
    """Argmax relatedness per token, ties to the smaller center bytes."""
    out = {}
    for token in freqs:
        if token in centers:
            continue
        scores = relatedness_scores(freqs, token, centers)
        best = max(scores.values())
        out[token] = min(c for c in centers if scores[c] == best)
    return out


def dense_distribute(
    entries: dict[bytes, tuple[tuple[str, int], ...]], docs: tuple[str, ...], centers: list[bytes]
) -> list[tuple[bytes, tuple[bytes, ...]]]:
    """(center, byte-sorted tokens) per center, scoring every token against every center.

    Each token's (centers x postings) block of kappa * log(rho) terms is
    sorted and summed per row; the best score wins and ties go to the
    smaller center bytes. This is the exact reference for distribute, which
    skips the pairs that cannot win or tie: its scores must match these bit
    for bit, so the arithmetic is the same numpy per-row arithmetic.
    """
    doc_pos = {d: j for j, d in enumerate(docs)}
    center_list = sorted(centers)
    totals = {t: float(sum(f for _, f in postings)) for t, postings in entries.items()}
    center_dense = np.zeros((len(center_list), len(docs)))
    for row, center in enumerate(center_list):
        for doc, f in entries[center]:
            center_dense[row, doc_pos[doc]] = f
    center_totals = np.array([totals[c] for c in center_list])

    members: dict[bytes, list[bytes]] = {c: [] for c in center_list}
    for token in sorted(entries):
        if token in members:
            continue
        cols = np.array([doc_pos[d] for d, _ in entries[token]], dtype=np.int64)
        f = np.array([float(f) for _, f in entries[token]])
        kappa = f / totals[token]
        rho = (f[None, :] + center_dense[:, cols]) / (totals[token] + center_totals)[:, None]
        terms = kappa[None, :] * np.log(rho)
        scores = np.sum(np.sort(terms, axis=1), axis=1)
        best = scores.max()
        winner = min(center_list[j] for j in np.flatnonzero(scores == best))
        members[winner].append(token)
    return [(c, tuple(sorted([c] + members[c]))) for c in center_list]


def assignment_matches(
    freqs: dict[bytes, dict[str, int]],
    centers: list[bytes],
    token: bytes,
    got_center: bytes,
    tol: float = 1e-9,
) -> bool:
    """got_center must be the oracle argmax, up to numerical ties within tol."""
    scores = relatedness_scores(freqs, token, centers)
    best = max(scores.values())
    return scores[got_center] >= best - tol


def scan_frequency(entries: list[tuple[bytes, int]], token: bytes) -> int:
    """Frequency of a token in an abstract's entries by a linear scan; 0 if absent."""
    for t, freq in entries:
        if t == token:
            return freq
    return 0


def scan_prune(
    query_tokens: list[bytes], abstracts: list[tuple[int, list[tuple[bytes, int]]]], c: int
) -> list[int]:
    """Top-c cluster ids by summed abstract frequency, walking every abstract entry.

    abstracts are (cluster id, entries) pairs. Ties break on the abstract's
    smallest token; when no abstract scores, every id is returned in order.
    """
    query = set(query_tokens)
    scored = []
    for cluster_id, entries in abstracts:
        score = 0
        smallest = None
        for token, freq in entries:
            if token in query:
                score += freq
            if smallest is None or token < smallest:
                smallest = token
        if score > 0:
            scored.append((-score, smallest, cluster_id))
    if not scored:
        return [cluster_id for cluster_id, _ in abstracts]
    scored.sort()
    return [cluster_id for _, _, cluster_id in scored[:c]]


def scan_search(
    query_tokens: list[bytes],
    cluster_tokens: list[list[bytes]],
    postings: dict[bytes, list[tuple[str, int]]],
    selected: list[int],
    cutoff: int,
) -> list[tuple[str, int]]:
    """Top-cutoff (doc, summed frequency) pairs, walking every token of each selected cluster."""
    query = set(query_tokens)
    scores: dict[str, int] = {}
    for cluster_id in selected:
        for token in cluster_tokens[cluster_id]:
            if token in query:
                for doc, freq in postings[token]:
                    scores[doc] = scores.get(doc, 0) + freq
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:cutoff]


def pattern(freq):
    """The nonzero pattern of a FrequencyMatrix as a boolean scipy.sparse CSR matrix."""
    from scipy import sparse

    return sparse.csr_matrix(
        (np.ones(len(freq.indices), dtype=bool), freq.indices, freq.indptr), shape=(freq.n_rows, freq.n_docs)
    )


def product_pairs(freq, center_freq) -> tuple[np.ndarray, np.ndarray]:
    """(row of freq, row of center_freq) of the nonzeros of the boolean product F . F_c^T, by row then column."""
    product = (pattern(freq) @ pattern(center_freq).T).tocoo()
    order = np.lexsort((product.col, product.row))
    return product.row[order].astype(np.int64), product.col[order].astype(np.int64)
