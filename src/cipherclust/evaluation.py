"""Evaluation harness: cluster coherence, TSAP@10 relevance, search timing.

Coherence needs readable tokens, so it only applies to indexes built with
the identity codec; the clustering code path itself is unchanged either way.
numpy is imported by the coherence functions that compute with it, so
TSAP scoring and report comparison load no numeric library.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .clustering import ClusterSet
from .crypto import TokenCodec, encrypt_query
from .index import data_lines, index_digest, write_lines
from .search import Abstracts, SearchResult, prune, search

if TYPE_CHECKING:
    import numpy as np

TSAP_CUTOFF = 10
GRADES = (0, 1, 2)
# run_benchmark times each search path as the best of this many runs, to damp scheduler noise
BENCHMARK_REPEATS = 9


class EvaluationError(ValueError):
    pass


def _parse_written_int(text: str, what: str, where: str) -> int:
    """An integer as the evaluation writers write it: ASCII digits, no sign, space, underscore or leading zero."""
    if not re.fullmatch("0|[1-9][0-9]*", text):
        raise EvaluationError(f"{where}: {what} {text!r} is not an integer in plain digits without a leading zero")
    return int(text)


@dataclass(frozen=True)
class EmbeddingTable:
    """Word -> vector map with a single declared dimension."""

    dimension: int
    vectors: dict[str, np.ndarray]
    digest: str | None = None


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Parse the plain-text `word v1 ... vd` format.

    Words are lower-cased. Rejected with path:lineno: a line with no
    components, a dimension other than the first line's, a component that is
    not a finite number and a word repeated, once lower-cased, on a later line.
    """
    import numpy as np

    vectors: dict[str, np.ndarray] = {}
    first_line: dict[str, int] = {}
    dimension: int | None = None
    for lineno, line in data_lines(path):
        parts = line.split()
        word = parts[0].lower()
        if word in first_line:
            raise EvaluationError(f"{path}:{lineno}: word {word!r} is also on line {first_line[word]}")
        first_line[word] = lineno
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise EvaluationError(f"{path}:{lineno}: vector of {word!r}: {exc}")
        if not np.isfinite(vec).all():
            bad = parts[1 + int(np.flatnonzero(~np.isfinite(vec))[0])]
            raise EvaluationError(f"{path}:{lineno}: vector of {word!r} has a non-finite component {bad!r}")
        if dimension is None:
            dimension = vec.size
            if dimension == 0:
                raise EvaluationError(f"{path}:{lineno}: vector has no components")
        elif vec.size != dimension:
            raise EvaluationError(
                f"{path}:{lineno}: dimension mismatch ({vec.size} != {dimension})"
            )
        vectors[word] = vec
    if dimension is None:
        raise EvaluationError(f"{path}: empty embedding table")
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return EmbeddingTable(dimension=dimension, vectors=vectors, digest=digest)


def cluster_coherence(words: Iterable[str], table: EmbeddingTable) -> float | None:
    """Mean cosine similarity over all unordered pairs of embeddable words.

    Words missing from the table (or with zero vectors) are skipped; fewer
    than two embeddable words means the cluster is not scorable (None).
    For unit vectors u_i the pairwise sum is |sum u_i|^2 - n, so no n x n
    matrix is needed.
    """
    import numpy as np

    vecs = []
    for word in words:
        v = table.vectors.get(word)
        if v is None:
            continue
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        vecs.append(v / norm)
    n = len(vecs)
    if n < 2:
        return None
    total = np.stack(vecs).sum(axis=0)
    return (float(total @ total) - n) / (n * (n - 1))


@dataclass(frozen=True)
class ClusterCoherence:
    cluster_id: int
    coherence: float | None
    embeddable_tokens: int
    skipped_tokens: int


@dataclass(frozen=True)
class SearchTiming:
    """Per-query latency: searching the pruned cluster subset vs all clusters.

    Pruning itself happens on the client tier against the small abstracts;
    its cost is reported separately as prune_ms and is not part of the
    pruned-vs-full search comparison.
    """

    query_id: str
    pruned_ms: float
    full_ms: float
    prune_ms: float
    clusters_searched: int


@dataclass
class EvaluationReport:
    per_cluster: list[ClusterCoherence] = field(default_factory=list)
    overall: float | None = None
    tsap_per_query: list[tuple[str, float]] = field(default_factory=list)
    search_times: list[SearchTiming] = field(default_factory=list)
    corpus_sha256: str | None = None
    embeddings_sha256: str | None = None

    def to_dict(self) -> dict:
        return {
            "per_cluster": [
                {
                    "cluster": c.cluster_id,
                    "coherence": c.coherence,
                    "embeddable_tokens": c.embeddable_tokens,
                    "skipped_tokens": c.skipped_tokens,
                }
                for c in self.per_cluster
            ],
            "overall": self.overall,
            "tsap_per_query": [{"query": q, "score": s} for q, s in self.tsap_per_query],
            "search_times": [
                {
                    "query": t.query_id,
                    "pruned_ms": t.pruned_ms,
                    "full_ms": t.full_ms,
                    "prune_ms": t.prune_ms,
                    "clusters_searched": t.clusters_searched,
                }
                for t in self.search_times
            ],
            "corpus_sha256": self.corpus_sha256,
            "embeddings_sha256": self.embeddings_sha256,
        }

    @classmethod
    def load(cls, path: str | Path) -> "EvaluationReport":
        """Read what compare uses from a coherence report: overall (a number
        or null), corpus_sha256 and embeddings_sha256 (strings)."""
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
            overall, digests = obj["overall"], (obj["corpus_sha256"], obj["embeddings_sha256"])
        except (ValueError, KeyError, TypeError) as exc:
            raise EvaluationError(f"{path}: not a coherence report: {exc}")
        if type(overall) not in (int, float, type(None)) or not all(type(d) is str for d in digests):
            raise EvaluationError(
                f"{path}: not a coherence report; need overall as a number or null and "
                "corpus_sha256 and embeddings_sha256 as strings"
            )
        return cls(overall=overall, corpus_sha256=digests[0], embeddings_sha256=digests[1])


def coherence_report(clusters: ClusterSet, table: EmbeddingTable) -> EvaluationReport:
    """Score every cluster of an identity-codec ClusterSet against the table.

    Overall coherency is the mean over scorable clusters (>= 2 embeddable
    tokens); non-scorable clusters are reported but excluded from the mean.
    """
    per_cluster = []
    scorable = []
    for cid, cluster in enumerate(clusters.clusters):
        try:
            words = [token.decode("utf-8") for token in cluster.tokens]
        except UnicodeDecodeError:
            raise EvaluationError(
                "cluster tokens are not readable text; coherence needs an "
                "identity-codec index"
            )
        embeddable = sum(1 for w in words if w in table.vectors)
        coherence = cluster_coherence(words, table)
        per_cluster.append(
            ClusterCoherence(
                cluster_id=cid,
                coherence=coherence,
                embeddable_tokens=embeddable,
                skipped_tokens=len(words) - embeddable,
            )
        )
        if coherence is not None:
            scorable.append(coherence)
    overall = (math.fsum(scorable) / len(scorable)) if scorable else None
    return EvaluationReport(
        per_cluster=per_cluster,
        overall=overall,
        corpus_sha256=index_digest(clusters.index),
        embeddings_sha256=table.digest,
    )


def tsap_at_10(ranked: list[str], judgments: dict[tuple[str, str], int], query_id: str) -> float:
    """TREC-style average precision at cutoff 10.

    Rank i contributes 1/i when judged relevant (grade 2), 1/(2i) when
    partially relevant (grade 1), 0 otherwise; the sum is divided by 10.
    Absent ranks contribute nothing.
    """
    if len(ranked) > TSAP_CUTOFF:
        raise EvaluationError(f"ranked list longer than cutoff {TSAP_CUTOFF}")
    total = 0.0
    for i, doc in enumerate(ranked, 1):
        grade = judgments.get((query_id, doc), 0)
        if grade == 2:
            total += 1.0 / i
        elif grade == 1:
            total += 1.0 / (2 * i)
    return total / TSAP_CUTOFF


def compare(dynamic: EvaluationReport, static: EvaluationReport) -> dict:
    """Overall coherency of both strategies plus relative improvement.

    The comparison is undefined (improvement None) when either side is
    non-scorable or the static overall is zero.
    """
    for digest, inputs in (("corpus_sha256", "over different corpora"),
                           ("embeddings_sha256", "with different embedding tables")):
        ours, theirs = getattr(dynamic, digest), getattr(static, digest)
        if ours and theirs and ours != theirs:
            raise EvaluationError(f"reports were built {inputs}")
    flags = []
    improvement = None
    if dynamic.overall is None or static.overall is None or static.overall == 0.0:
        flags.append("comparison_undefined")
    else:
        improvement = (dynamic.overall - static.overall) / abs(static.overall) * 100.0
        if dynamic.overall < static.overall:
            flags.append("dynamic_below_static")
    return {
        "dynamic_overall": dynamic.overall,
        "static_overall": static.overall,
        "improvement_pct": improvement,
        "flags": flags,
    }


# ---------------------------------------------------------------------------
# judgments / queries / results files

def load_judgments(path: str | Path) -> dict[tuple[str, str], int]:
    """TSV `queryId<TAB>docId<TAB>grade`, one grade per (query, doc)."""
    judgments: dict[tuple[str, str], int] = {}
    for lineno, line in data_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise EvaluationError(f"{path}:{lineno}: expected queryId<TAB>docId<TAB>grade")
        query_id, doc_id, grade_s = parts
        grade = _parse_written_int(grade_s, "grade", f"{path}:{lineno}")
        if grade not in GRADES:
            raise EvaluationError(f"{path}:{lineno}: grade must be one of {GRADES}")
        key = (query_id, doc_id)
        if key in judgments and judgments[key] != grade:
            raise EvaluationError(f"{path}:{lineno}: conflicting grades for {key}")
        judgments[key] = grade
    return judgments


def load_queries(path: str | Path) -> list[tuple[str, str]]:
    """TSV `queryId<TAB>query text`.

    Rejected with path:lineno: a line without exactly one tab and a query id
    repeated on a later line.
    """
    queries = []
    first_line: dict[str, int] = {}
    for lineno, line in data_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise EvaluationError(f"{path}:{lineno}: expected queryId<TAB>query text")
        query_id = parts[0]
        if query_id in first_line:
            raise EvaluationError(f"{path}:{lineno}: query id {query_id!r} is also on line {first_line[query_id]}")
        first_line[query_id] = lineno
        queries.append((query_id, parts[1]))
    return queries


def write_results_file(results: dict[str, SearchResult], path: str | Path) -> None:
    """TSV `queryId<TAB>rank<TAB>docId<TAB>score`, queries in input order."""
    write_lines(path, (
        f"{query_id}\t{rank}\t{doc}\t{score}"
        for query_id, result in results.items()
        for rank, (doc, score) in enumerate(result.ranked, 1)
    ))


def read_results_file(path: str | Path) -> dict[str, list[str]]:
    """Ranked doc ids per query, in rank order.

    As write_results_file writes them, each query's ranks must run 1, 2, 3, ...
    in file order; rank 0, a repeated rank and a gap are rejected with path:lineno.
    """
    ranked: dict[str, list[str]] = {}
    for lineno, line in data_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise EvaluationError(f"{path}:{lineno}: expected queryId, rank, docId, score")
        query_id, rank_s, doc_id, _ = parts
        rank = _parse_written_int(rank_s, "rank", f"{path}:{lineno}")
        docs = ranked.setdefault(query_id, [])
        if rank != len(docs) + 1:
            problem = "twice" if 1 <= rank <= len(docs) else f"where rank {len(docs) + 1} is due"
            raise EvaluationError(f"{path}:{lineno}: query {query_id!r} has rank {rank} {problem}")
        docs.append(doc_id)
    return ranked


# ---------------------------------------------------------------------------
# benchmark runner: pruned vs whole-index search with monotonic timing

def run_benchmark(
    queries: list[tuple[str, str]],
    clusters: ClusterSet,
    abstracts: Abstracts,
    codec: TokenCodec,
    prune_width: int,
    cutoff: int,
) -> tuple[dict[str, SearchResult], list[SearchTiming]]:
    """Search every benchmark query both pruned and unpruned.

    Each path is timed as the best of BENCHMARK_REPEATS monotonic-clock runs.
    """
    full_ids = range(clusters.k_used)
    results: dict[str, SearchResult] = {}
    timings: list[SearchTiming] = []
    for query_id, text in queries:
        tokens = encrypt_query(codec, text)
        pruned_best = math.inf
        full_best = math.inf
        prune_best = math.inf
        for _ in range(BENCHMARK_REPEATS):
            start = time.perf_counter_ns()
            selected = prune(tokens, abstracts, prune_width)
            prune_best = min(prune_best, time.perf_counter_ns() - start)
            start = time.perf_counter_ns()
            result = search(tokens, clusters, selected, cutoff)
            pruned_best = min(pruned_best, time.perf_counter_ns() - start)
            start = time.perf_counter_ns()
            search(tokens, clusters, full_ids, cutoff)
            full_best = min(full_best, time.perf_counter_ns() - start)
        results[query_id] = result
        timings.append(
            SearchTiming(
                query_id=query_id,
                pruned_ms=pruned_best / 1e6,
                full_ms=full_best / 1e6,
                prune_ms=prune_best / 1e6,
                clusters_searched=len(result.clusters_searched),
            )
        )
    return results, timings
