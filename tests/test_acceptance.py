"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cipherclust import clustering
from cipherclust.cli import main
from cipherclust.clustering import choose_centers, cluster_index, distribute
from cipherclust.crypto import IdentityTokenCodec
from cipherclust.evaluation import (
    coherence_report,
    compare,
    load_embeddings,
    load_queries,
    tsap_at_10,
)
from cipherclust.index import build_index_from_corpus, ingest, trim
from cipherclust.matrices import estimate_k, matrix_pipeline
from cipherclust.search import build_abstracts, prune, search

from conftest import (
    EXAMPLE_DOCS,
    EXAMPLE_FREQS,
    doc_sets,
    entry,
    keep_all,
    random_index,
    records_from_freqs,
    structured_freqs,
)
from oracles import (
    algorithm_centers,
    assignment_matches,
    dense_pipeline,
    exact_pipeline,
)

EXACT_TRACE = 2.1830616958374516


@contextmanager
def criterion(num: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {num:02d} PASS  {description} ({elapsed:.2f}s)")


def test_criterion_01_worked_example_golden():
    with criterion(1, "worked-example golden tables and k estimate"):
        started = time.perf_counter()
        index = ingest(records_from_freqs(EXAMPLE_FREQS, EXAMPLE_DOCS))
        mats = matrix_pipeline(keep_all(index))
        docs = EXAMPLE_DOCS

        table_n = {
            b"Uh5W": [0.58, 0, 0.34, 0.07, 1, 0],
            b"/Vdn": [0.1, 0, 0, 1, 0.85, 0],
            b"oR1r": [0, 0.47, 0, 0.5, 0, 0],
            b"vJHZ": [1, 1, 0, 0.38, 0, 1],
            b"tH7c": [0, 0.92, 1, 0, 0.08, 0.19],
        }
        for token, row in table_n.items():
            for doc, want in zip(docs, row):
                assert entry(mats["N"], token, doc) == pytest.approx(want, abs=0.01)

        table_r = {
            b"Uh5W": [0.29, 0, 0.17, 0.04, 0.50, 0],
            b"/Vdn": [0.05, 0, 0, 0.51, 0.43, 0],
            b"oR1r": [0, 0.48, 0, 0.52, 0, 0],
            b"vJHZ": [0.29, 0.29, 0, 0.11, 0, 0.29],
            b"tH7c": [0, 0.42, 0.45, 0, 0.03, 0.09],
        }
        for token, row in table_r.items():
            for doc, want in zip(docs, row):
                assert entry(mats["R"], token, doc) == pytest.approx(want, abs=0.01)

        # S rows d1, d2 (flagged vJHZ cell excluded), d4, d5, d6; the d3
        # reference row does not sum to 1 and is checked against the exact
        # oracle instead
        token_order = [b"Uh5W", b"/Vdn", b"oR1r", b"vJHZ", b"tH7c"]
        table_s = {
            "d1": [0.34, 0.06, 0, 0.60, 0],
            "d2": [0, 0, 0.19, None, 0.38],
            "d4": [0.04, 0.51, 0.25, 0.19, 0],
            "d5": [0.52, 0.44, 0, 0, 0.04],
            "d6": [0, 0, 0, 0.84, 0.16],
        }
        for doc, row in table_s.items():
            for token, want in zip(token_order, row):
                if want is not None:
                    assert entry(mats["S"], doc, token) == pytest.approx(want, abs=0.01)

        # reference separation factors, minus the one propagated typo (tH7c)
        for token, want in {b"Uh5W": 0.39, b"/Vdn": 0.45, b"oR1r": 0.21, b"vJHZ": 0.58}.items():
            assert entry(mats["C"], token, token) == pytest.approx(want, abs=0.02)

        tokens = sorted(EXAMPLE_FREQS)
        dense_a = [[EXAMPLE_FREQS[t].get(d, 0) for d in docs] for t in tokens]
        exact_c, exact_trace = exact_pipeline(dense_a)
        got_c = mats["C"].mat.toarray()
        for i in range(len(tokens)):
            for j in range(len(tokens)):
                assert got_c[i][j] == pytest.approx(float(exact_c[i][j]), abs=1e-9)

        est = estimate_k(mats["C"])
        assert est.trace == pytest.approx(float(exact_trace), abs=1e-9)
        assert est.trace == pytest.approx(EXACT_TRACE, abs=1e-12)
        assert est.k == 3
        assert time.perf_counter() - started < 1.0


def test_criterion_02_stochasticity_fuzz():
    with criterion(2, "row-stochasticity on 200 random indexes"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            m = int(rng.integers(1, 201))
            d = int(rng.integers(1, 101))
            index, _ = random_index(rng, m, d)
            mats = matrix_pipeline(trim(index))
            for name in ("R", "S", "C"):
                sums = np.asarray(mats[name].mat.sum(axis=1)).ravel()
                nonzero = sums > 1e-12
                assert np.allclose(sums[nonzero], 1.0, atol=1e-9), name
            c = mats["C"].mat
            if c.nnz:
                assert c.data.min() >= -1e-12 and c.data.max() <= 1 + 1e-9
            est = estimate_k(mats["C"])
            assert 1 <= est.k <= est.m
        assert time.perf_counter() - started < 30.0


def _assignments(cluster_set):
    return [(c.center, c.tokens) for c in cluster_set.clusters]


def test_criterion_03_scale_and_permutation_invariance():
    with criterion(3, "scale and permutation invariance of k and assignments"):
        rng = np.random.default_rng(3033)
        for _ in range(50):
            index, freqs = random_index(rng, int(rng.integers(3, 30)), int(rng.integers(2, 15)))
            base_clusters, base_est = cluster_index(index, k="auto")
            assert base_est is not None
            records = records_from_freqs(freqs, index.docs)
            variants = []
            for factor in (2, 10, 1000):
                scaled = {t: {d: f * factor for d, f in by.items()} for t, by in freqs.items()}
                variants.append(records_from_freqs(scaled, index.docs))
            shuffled = [records[i] for i in rng.permutation(len(records))]
            shuffled = [
                (doc, [pairs[i] for i in rng.permutation(len(pairs))] if pairs else [])
                for doc, pairs in shuffled
            ]
            variants.append(shuffled)
            for variant in variants[:3]:
                clusters, est = cluster_index(ingest(variant), k="auto")
                assert est.k == base_est.k
                assert _assignments(clusters) == _assignments(base_clusters)
            clusters, est = cluster_index(ingest(variants[3]), k="auto")
            assert est.k == base_est.k
            assert _assignments(clusters) == _assignments(base_clusters)


def test_criterion_04_oracle_equivalence():
    with criterion(4, "sparse pipeline, centers, and distribution match oracles"):
        rng = np.random.default_rng(4044)
        for _ in range(12):
            index, freqs = random_index(rng, int(rng.integers(2, 51)), int(rng.integers(1, 51)))
            mats = matrix_pipeline(keep_all(index))
            tokens = index.tokens()
            dense_a = [[float(freqs[t].get(d, 0)) for d in index.docs] for t in tokens]
            _, _, _, dense_c = dense_pipeline(dense_a)
            assert np.allclose(mats["C"].mat.toarray(), dense_c, atol=1e-9)

            diag = {t: float(v) for t, v in zip(mats["C"].row_labels, mats["C"].mat.diagonal())}
            est = estimate_k(mats["C"])
            for k in {1, est.k, len(tokens)}:
                assert choose_centers(k, mats["C"], index) == algorithm_centers(k, diag, doc_sets(index))

            n_centers = int(rng.integers(1, min(5, len(tokens)) + 1))
            centers = [tokens[i] for i in rng.choice(len(tokens), size=n_centers, replace=False)]
            clusters = distribute(index, centers)
            for cluster in clusters.clusters:
                for token in cluster.tokens:
                    if token != cluster.center:
                        assert assignment_matches(freqs, centers, token, cluster.center)


def test_criterion_05_partition_property():
    with criterion(5, "cluster partition over 500 fuzzed indexes"):
        rng = np.random.default_rng(5055)
        for _ in range(500):
            index, _ = random_index(rng, int(rng.integers(1, 25)), int(rng.integers(1, 12)))
            tokens = index.tokens()
            n_centers = int(rng.integers(1, len(tokens) + 1))
            centers = [tokens[i] for i in rng.choice(len(tokens), size=n_centers, replace=False)]
            clusters = distribute(index, centers)
            seen = [token for cluster in clusters.clusters for token in cluster.tokens]
            assert len(seen) == len(set(seen)) == index.token_count
            assert set(seen) == set(tokens)
            non_centers = [t for t in seen if t not in centers]
            assert len(non_centers) == index.token_count - n_centers


def test_criterion_06_pipeline_determinism(tmp_path, mini_corpus_dir, embeddings_path):
    with criterion(6, "byte-identical artifacts across pipeline reruns"):
        key_file = tmp_path / "test.key"
        key_file.write_bytes(bytes(range(32)))
        # keyed runs: all pipeline artifacts must match byte for byte
        keyed = [tmp_path / "keyed_a", tmp_path / "keyed_b"]
        for out in keyed:
            rc = main(["pipeline", "--corpus", str(mini_corpus_dir), "--key", str(key_file),
                       "--out", str(out)])
            assert rc == 0
        for name in ("index.tsv", "k_report.json", "clusters.jsonl", "abstracts.jsonl",
                     "manifest.json"):
            assert (keyed[0] / name).read_bytes() == (keyed[1] / name).read_bytes(), name
        # identity runs: coherence report files must match too
        outs = [tmp_path / "run_a", tmp_path / "run_b"]
        for out in outs:
            rc = main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(out)])
            assert rc == 0
            rc = main(
                ["evaluate", "coherence", "--clusters", str(out / "clusters.jsonl"),
                 "--embeddings", str(embeddings_path), "--out", str(out / "report.json")]
            )
            assert rc == 0
        names = ["index.tsv", "k_report.json", "clusters.jsonl", "abstracts.jsonl",
                 "manifest.json", "report.json"]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_criterion_07_pruned_search_consistency(mini_corpus_dir, queries_path):
    with criterion(7, "pruned search equals whole-index search; pruning touches no more postings"):
        codec = IdentityTokenCodec()
        index = build_index_from_corpus(mini_corpus_dir, codec, n=20)
        clusters, _ = cluster_index(index, k="auto")
        abstracts = build_abstracts(clusters, a=100)
        queries = load_queries(queries_path)
        from cipherclust.crypto import encrypt_query

        # c = k: identical rankings for every bundled benchmark query
        for _, text in queries:
            tokens = encrypt_query(codec, text)
            selected = prune(tokens, abstracts, c=clusters.k_used)
            pruned = search(tokens, clusters, selected, cutoff=10)
            full = search(tokens, clusters, range(clusters.k_used), cutoff=10)
            assert pruned.ranked == full.ranked

        # c = 3: per query, pruned search must add no more postings than whole-index search. That
        # holds on the exact path, which every mini-corpus list takes; on the threshold path a pruned
        # search can read more postings than a full one (tests/test_search.py shows a case).
        longest = max(map(len, index.entries.values()))
        assert longest < clustering.LONG_LIST_POSTINGS, f"a list of {longest} postings takes the threshold path"
        for query_id, text in queries:
            tokens = encrypt_query(codec, text)
            pruned = search(tokens, clusters, prune(tokens, abstracts, c=3), cutoff=10)
            full = search(tokens, clusters, range(clusters.k_used), cutoff=10)
            assert pruned.postings_touched <= full.postings_touched, (
                f"{query_id}: pruned {pruned.postings_touched} postings > full {full.postings_touched}"
            )


def test_criterion_08_coherency_comparison(mini_corpus_dir, embeddings_path):
    with criterion(8, "dynamic-k vs static k=10 coherency comparison"):
        index = build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), n=20)
        table = load_embeddings(embeddings_path)
        dynamic, _ = cluster_index(index, k="auto")
        static, _ = cluster_index(index, k=10)
        dynamic_report = coherence_report(dynamic, table)
        static_report = coherence_report(static, table)
        comparison = compare(dynamic_report, static_report)
        assert dynamic_report.overall is not None
        ge = (
            static_report.overall is None
            or dynamic_report.overall >= static_report.overall
        )
        flagged = bool(comparison["flags"])
        assert ge or flagged
        print(
            f"    dynamic={comparison['dynamic_overall']:.4f} "
            f"static={comparison['static_overall']:.4f} "
            f"improvement={comparison['improvement_pct']}% flags={comparison['flags']}"
        )


def test_criterion_09_tsap_unit_suite():
    with criterion(9, "TSAP@10 tagged values and monotonicity fuzz"):
        docs = [f"d{i}" for i in range(10)]
        assert tsap_at_10(docs, {("q", d): 0 for d in docs}, "q") == 0.0
        assert tsap_at_10(docs, {("q", "d0"): 2}, "q") == pytest.approx(0.1, abs=1e-12)
        h10 = math.fsum(1.0 / i for i in range(1, 11))
        assert tsap_at_10(docs, {("q", d): 2 for d in docs}, "q") == pytest.approx(
            h10 / 10, abs=1e-12
        )
        assert h10 / 10 == pytest.approx(0.2929, abs=5e-5)

        rng = np.random.default_rng(9099)
        for _ in range(1000):
            grades = {("q", d): int(rng.integers(0, 3)) for d in docs}
            ranked = [docs[i] for i in rng.permutation(10)][: int(rng.integers(1, 11))]
            before = tsap_at_10(ranked, grades, "q")
            doc = docs[int(rng.integers(0, 10))]
            grades[("q", doc)] = min(2, grades[("q", doc)] + 1)
            assert tsap_at_10(ranked, grades, "q") >= before


def test_criterion_10_desk_scale_throughput():
    with criterion(10, "10k x 2k synthetic pipeline under 60 seconds"):
        rng = np.random.default_rng(1010)
        freqs = structured_freqs(rng, n_tokens=10_000, n_docs=2_000, n_topics=100)
        docs = [f"d{j:04d}" for j in range(2_000)]
        records = records_from_freqs(freqs, docs)

        started = time.perf_counter()
        index = ingest(records)
        clusters, est = cluster_index(index, k="auto")
        abstracts = build_abstracts(clusters, a=100)
        elapsed = time.perf_counter() - started

        assert index.token_count == 10_000 and len(index.docs) == 2_000
        assert est is not None and 1 <= est.k <= est.m
        assert clusters.k_used <= est.k
        assert abstracts.k == clusters.k_used
        seen = [token for cluster in clusters.clusters for token in cluster.tokens]
        assert len(seen) == len(set(seen)) == 10_000
        print(f"    k={est.k} k_used={clusters.k_used} elapsed={elapsed:.1f}s")
        assert elapsed < 60.0
